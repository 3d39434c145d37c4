"""The separation, oscillation and convergence ranks, and witness verifiers.

For step functions the suprema over rational pairs p < q and over eps > 0
reduce to finite lists: the level pairs are the gaps between consecutive
values, and the oscillation thresholds are the pairwise value gaps (the
derivative is constant between consecutive attainable oscillations).

Two lemmas stop the suprema early; each is stated where it is used.
- Separation (`alpha_fn`): no separation rank of two disjoint sets exceeds
  the space's Cantor-Bendixson rank (`SpaceDesc.cb_rank`), so the supremum
  stops at the first level pair whose rank reaches it.
- Oscillation and convergence (`beta`, `gamma_seq`): the rank does not
  increase with eps, so the supremum is the rank at the least gap.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ordinal as o
from .altsum import Certificate
from .derivative import (Budget, ConvDeriv, DEFAULT_BUDGET, DerivativeOp,
                         IterationTrace, OscDeriv, SeparationDeriv, iterate)
from .errors import BudgetExceeded, InclusionViolation, VerificationError
from .family import TransfiniteFamily, even_diff_union, validate_set_family
from .functions import FnFamily, StepFn
from .ordinal import Ordinal, W
from .patterns import (FALSE, TRUE, Cell, Pat, cells_difference, iter_cell, meet, or_,
                       prune_cells, to_cells)
from .space import Topology


@dataclass(frozen=True)
class NotStabilized:
    fixpoint: bool
    reason: str

    def __str__(self) -> str:
        return "not-stabilized(%s)" % self.reason


RankValue = Ordinal | NotStabilized


@dataclass
class RankReport:
    kind: str
    value: RankValue
    witness_param: object
    trace: IterationTrace | None

    @property
    def ordinal(self) -> Ordinal:
        if isinstance(self.value, NotStabilized):
            raise VerificationError("rank did not stabilize: %s" % self.value)
        return self.value


def _rank_of(op: DerivativeOp,
             budget: Budget = DEFAULT_BUDGET) -> tuple[RankValue, IterationTrace | None]:
    try:
        trace = iterate(op, TRUE, budget)
    except BudgetExceeded as e:
        t = e.args[0] if e.args else None
        return NotStabilized(False, "budget exceeded"), t
    if trace.rank is None:
        return NotStabilized(trace.fixpoint, trace.reason), trace
    return trace.rank, trace


def alpha_pair(A: Pat, B: Pat, t: Topology,
               budget: Budget = DEFAULT_BUDGET) -> RankReport:
    value, trace = _rank_of(DerivativeOp(SeparationDeriv(A, B), t), budget)
    return RankReport("alpha_pair", value, (A, B), trace)


def _level_pairs(f: StepFn) -> list[tuple[Fraction, Fraction, Pat, Pat]]:
    vals = sorted(f.values())
    out = []
    for i in range(len(vals) - 1):
        p, q = vals[i], vals[i + 1]
        low = or_(*(pat for v, pat in f.pieces if v <= p))
        high = or_(*(pat for v, pat in f.pieces if v >= q))
        out.append((p, q, low, high))
    return out


def alpha_fn(f: StepFn, t: Topology, budget: Budget = DEFAULT_BUDGET) -> RankReport:
    """Separation rank: supremum of alpha over the level pairs of f.

    The report carries the pair of the first largest rank, or of the first
    rank that did not stabilize.  The scan stops at the first pair whose
    rank reaches the space's CB rank rho (`SpaceDesc.cb_rank`), by this
    lemma: the separation rank of disjoint A and B is at most rho.  A point
    of cl(F & A) & cl(F & B), F closed, is a limit point of F: were it
    isolated in F, it would lie in A and in B.  So, by induction (a limit
    stage is an intersection on both sides), stage theta lies in the
    space's theta-th CB derivative, and stage rho is empty.  In a refined
    topology the derived sets are smaller, so the bound holds there too.
    Every level pair {f <= p}, {f >= q} with p < q is disjoint, so no later
    pair changes the value or the pair reported."""
    pairs = _level_pairs(f)
    if not pairs:  # a constant f: separate the empty set from all
        rep = alpha_pair(FALSE, TRUE, t, budget)
        return RankReport("alpha_fn", rep.value, None, rep.trace)
    rho = t.space.cb_rank
    best = None
    for p, q, A, B in pairs:
        rep = alpha_pair(A, B, t, budget)
        if isinstance(rep.value, NotStabilized):
            return RankReport("alpha_fn", rep.value, (p, q), rep.trace)
        if best is None or o.compare(rep.value, best.value) > 0:
            best = RankReport("alpha_fn", rep.value, (p, q), rep.trace)
            if o.compare(rep.value, rho) >= 0:
                break
    return best


def _least_gap_rank(kind: str, variant, fn, t: Topology, budget: Budget) -> RankReport:
    """The rank of variant(fn, eps) at the least gap eps between fn's values
    (eps = 1 for one value), which is the supremum over every gap by this
    lemma: the rank does not increase with eps.  Both steps (`OscDeriv`,
    `ConvDeriv`) are monotone in F and shrink as eps grows (fewer value
    pairs are eps apart), so by induction each stage for a larger eps lies
    inside the stage for a smaller one, and empties no later.  The report
    carries the least gap as the parameter of the rank."""
    vals = sorted(set(fn.values()))
    eps = min((b - a for a, b in zip(vals, vals[1:])), default=Fraction(1))
    value, trace = _rank_of(DerivativeOp(variant(fn, eps), t), budget)
    return RankReport(kind, value, eps, trace)


def beta(f: StepFn, t: Topology, budget: Budget = DEFAULT_BUDGET) -> RankReport:
    """Oscillation rank: the supremum over eps, the rank at the least gap."""
    return _least_gap_rank("beta", OscDeriv, f, t, budget)


def gamma_seq(fam: FnFamily, t: Topology, budget: Budget = DEFAULT_BUDGET) -> RankReport:
    """Convergence rank of a function sequence; pseudouniform iff <= w.
    The supremum over eps, the rank at the least gap."""
    return _least_gap_rank("gamma_seq", ConvDeriv, fam, t, budget)


def is_pseudouniform(rep: RankReport) -> bool:
    return not isinstance(rep.value, NotStabilized) and o.compare(rep.value, W) <= 0


# ---------------------------------------------------------------------------
# Modified separation rank: witness verification.

def _least_point(cells: tuple[Cell, ...]) -> Ordinal:
    """The least point of nonempty canonical cells."""
    return min((x for c in cells for x in iter_cell(c, 1)), key=lambda x: x.terms)


def alpha_xi_verify(A: Pat, B: Pat, fam: TransfiniteFamily, xi: int,
                    t: Topology) -> Certificate:
    """Certify alpha_xi(A, B) <= length(fam) by checking the family
    invariants and both inclusions A <= union of even differences <= B^c.
    A violation names the least point of the offending cells."""
    bound = t.space.bound
    claims = tuple(validate_set_family(fam, t, xi=xi))
    u = to_cells(even_diff_union(fam), bound)
    bad = prune_cells(cells_difference(to_cells(A, bound), u))
    if bad:
        raise InclusionViolation("A not covered", _least_point(bad))
    bad = meet(u, to_cells(B, bound))
    if bad:
        raise InclusionViolation("differences meet B", _least_point(bad))
    claims = claims + ("A within the even differences", "differences avoid B")
    lam = fam.length.max_exp() or 0
    return Certificate("alpha_xi", lam, xi, claims)


def class_membership(f: StepFn, lam: int, xi: int,
                     witnesses: list[TransfiniteFamily], t: Topology,
                     refined: Topology | None = None,
                     budget: Budget = DEFAULT_BUDGET) -> Certificate:
    """Certify membership in the bounded class of exponent lam at level xi.

    Route one verifies per-level-pair witnesses in the given topology.
    Route two (refined not None) verifies them as level-1 witnesses in a
    finer topology whose new opens live at level xi of the base.  Either
    way the computed separation and oscillation ranks are cross-checked
    against w^lam.
    """
    topo = refined if refined is not None else t
    wit_xi = 1 if refined is not None else xi
    claims: list[str] = []
    pairs = _level_pairs(f)
    bound_len = o.omega_power(lam) if lam else o.from_int(1)
    if pairs:
        if len(witnesses) != len(pairs):
            raise VerificationError("need %d witnesses" % len(pairs))
        for (p, q, A, B), fam in zip(pairs, witnesses):
            if o.compare(fam.length, bound_len) > 0:
                raise VerificationError("witness longer than w^%d" % lam)
            alpha_xi_verify(B, A, fam, wit_xi, topo)
            claims.append("pair (%s, %s) separated at length %s"
                          % (p, q, fam.length))
    a = alpha_fn(f, topo, budget)
    b = beta(f, topo, budget)
    for name, rep in (("alpha", a), ("beta", b)):
        if isinstance(rep.value, NotStabilized) or o.compare(rep.value, bound_len) > 0:
            raise VerificationError("%s rank exceeds w^%d" % (name, lam))
        claims.append("computed %s = %s <= w^%d" % (name, rep.value, lam))
    if refined is not None:
        claims.append("witnesses verified at level 1 in the refined topology")
    return Certificate("class_membership", lam, xi, tuple(claims))