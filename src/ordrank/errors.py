"""Exception types shared across the package."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class NotLimit(ToolkitError):
    """A fundamental sequence was requested for a non-limit ordinal."""


class NotOracleSpace(ToolkitError):
    """The space bound is too large for the brute-force oracle representation."""


class ClassViolation(ToolkitError):
    """A set declared in a refinement fails its required Borel class check."""


class PartitionViolation(ToolkitError):
    """Step-function cells do not partition the space."""


class CertificateViolation(ToolkitError):
    """A caller-supplied approximation certificate failed; args carry the index."""


class VerificationError(ToolkitError):
    """A transfinite-family certificate failed; args carry the cert name and witness."""


class WitnessMismatch(ToolkitError):
    """A constructed separation family does not witness what it was built for."""


class InclusionViolation(ToolkitError):
    """A required set inclusion fails; args carry a witness point."""


class ResidualViolation(ToolkitError):
    """An alternating-sum residual left the sandwich bounds; args carry the point."""


class ExitNotFound(ToolkitError):
    """A point never leaves a decreasing set family that should expel it."""


class BudgetExceeded(ToolkitError):
    """Transfinite iteration exhausted its successor-step or limit-jump budget."""


class PrecisionUnreachable(ToolkitError):
    """A truncated presentation cannot reach the requested evaluation precision."""


class UnsupportedProgression(ToolkitError):
    """Symbolic limit machinery met a shape outside the affine fragment; fail loud."""


class PositionLimitExceeded(ToolkitError):
    """A fixture names a digit position, divisibility level or exponent above the limit."""


class DigitSetTooLarge(ToolkitError):
    """A digit set would need a prefix or period above the size limit."""


class FixtureParseError(ToolkitError):
    """Malformed fixture text; args carry position information."""
