"""Finitely-presented ordinal-indexed families of sets.

A family assigns a pattern F_eta to every index eta below its length,
through finitely many segments whose bodies may reference the index via
affine atoms (x >= base + (eta - shift)*coeff).  Everything a decreasing
continuous family is used for reduces to per-point exit indices and
per-segment symbolic analysis, both exact on this fragment.  A segment
whose body has no index atom is concrete: F_eta is its body on the whole
segment, so its membership at a point is one truth interval read off the
body, with no breakpoint search.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import ordinal as o
from .errors import UnsupportedProgression, VerificationError
from .ordinal import Kind, Ordinal, ZERO, W
from .patterns import (
    FALSE, PARAM_ETA, Pat, PAnd, POrdGeEta, TRUE, _nnf, and_, atoms, digit_mod,
    is_concrete, not_, or_, ord_ge, ord_lt, subst_eta,
)
from .space import SpaceDesc, Topology, is_closed, is_empty, sem_eq, subset


@dataclass(frozen=True)
class Segment:
    lo: Ordinal
    hi: Ordinal  # exclusive
    body: Pat    # concrete, or with eta atoms
    # the body has no parameter atom, so F_eta is the body on the whole
    # segment, and the body's index atoms, depth first; computed once and
    # kept out of equality, hash and repr
    concrete: bool = field(init=False, repr=False, compare=False)
    index_atoms: tuple[Pat, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "concrete", is_concrete(self.body))
        object.__setattr__(self, "index_atoms",
                           tuple(a for a in atoms(self.body) if type(a) in PARAM_ETA))


@dataclass(frozen=True)
class TransfiniteFamily:
    length: Ordinal
    segments: tuple[Segment, ...]

    def segment_of(self, eta: Ordinal) -> Segment:
        for s in self.segments:
            if o.compare(s.lo, eta) <= 0 and o.compare(eta, s.hi) < 0:
                return s
        raise IndexError("index %s outside [0, %s)" % (eta, self.length))

    def at(self, eta: Ordinal) -> Pat:
        """F_eta; empty beyond the length (the usual convention)."""
        if o.compare(eta, self.length) >= 0:
            return FALSE
        return subst_eta(self.segment_of(eta).body, eta)

    def member(self, eta: Ordinal, x: Ordinal) -> bool:
        """x lies in F_eta, read off the body at eta with no pattern built."""
        if o.compare(eta, self.length) >= 0:
            return False
        return self.segment_of(eta).body.holds(x, eta)

    # -- per-point analysis ---------------------------------------------

    def pieces(self, x: Ordinal):
        """Intervals (start, end, x in F_eta there) that partition [0,
        length) in order, each inside one segment.  A concrete segment is
        one interval, read off its body; a segment with index atoms is cut
        where an atom's truth at x flips.  Neighbours may agree."""
        for s in self.segments:
            if s.concrete:
                yield s.lo, s.hi, s.body.holds(x, None)
            else:
                yield from _index_intervals(s, x)

    def truth_intervals(self, x: Ordinal) -> list[tuple[Ordinal, Ordinal, bool]]:
        """Partition of [0, length) into maximal intervals of constant
        membership of x: the `pieces`, neighbours that agree merged."""
        out = []
        for start, end, val in self.pieces(x):
            if out and out[-1][2] == val:
                out[-1] = (out[-1][0], end, val)
            else:
                out.append((start, end, val))
        return out

    def exit_index(self, x: Ordinal) -> Ordinal | None:
        """Least eta < length with x outside F_eta (None if never)."""
        for start, end, val in self.pieces(x):
            if not val:
                return start
        return None

    def pointwise_intersection_tail(self, theta: Ordinal) -> Pat:
        """Symbolic intersection of F_eta for eta < theta (theta a limit
        inside or at the end of the final covering segment)."""
        seg = None
        for s in self.segments:
            if o.compare(s.lo, theta) < 0:
                seg = s
        if seg is None:
            raise ValueError("theta must be positive")
        return _tail_intersection(seg, theta)


def _index_intervals(s: Segment, x: Ordinal) -> list[tuple[Ordinal, Ordinal, bool]]:
    """Intervals of constant membership of x on a segment with index atoms;
    each one's truth is the body's at its start, its index atoms decided
    there by threshold."""
    cuts = {s.lo}
    for t in _eta_breakpoints(s.index_atoms, x):
        if s.lo.terms < t.terms < s.hi.terms:
            cuts.add(t)
    marks = sorted(cuts, key=lambda a: a.terms)
    ends = marks[1:] + [s.hi]
    return [(start, end, s.body.holds(x, start))
            for start, end in zip(marks, ends)]


def _eta_breakpoints(index_atoms, x: Ordinal):
    """The indices where one of these index atoms switches at x: their
    switches (`EtaKind.switch`) other than None."""
    switches = (PARAM_ETA[type(a)].switch(a, x) for a in index_atoms)
    return (eta for eta in switches if eta is not None)


def _tail_intersection(seg: Segment, theta: Ordinal) -> Pat:
    """Intersection of seg.body over eta in [seg.lo, theta), theta a limit."""
    body = seg.body
    if seg.concrete:
        return body
    if isinstance(body, PAnd):
        return and_(*(_tail_intersection(Segment(seg.lo, seg.hi, q), theta)
                      for q in body.parts))
    kind = PARAM_ETA.get(type(body))
    if kind is None or kind.below is None:
        raise UnsupportedProgression(
            "symbolic tail intersection unsupported for %r" % (body,))
    return kind.below(body, theta)


# ---------------------------------------------------------------------------
# Builders.

def tails_family(length: Ordinal, base: Ordinal = ZERO, shift: Ordinal = ZERO,
                 coeff: int = 1) -> TransfiniteFamily:
    """F_eta = {x >= base + (eta - shift)*coeff} on [shift, shift+length)... the
    canonical decreasing continuous family when called with shift 0."""
    return TransfiniteFamily(length, (Segment(ZERO, length,
                                              POrdGeEta(base, shift, coeff)),))


def explicit_family(patterns: list[Pat]) -> TransfiniteFamily:
    segs = tuple(Segment(o.from_int(i), o.from_int(i + 1), p)
                 for i, p in enumerate(patterns))
    return TransfiniteFamily(o.from_int(len(patterns)), segs)


def from_segments(length: Ordinal, segs: list[tuple[Ordinal, Ordinal, Pat]]) -> TransfiniteFamily:
    return TransfiniteFamily(length, tuple(Segment(a, b, p) for a, b, p in segs))


def pad_with_empty(fam: TransfiniteFamily, new_length: Ordinal) -> TransfiniteFamily:
    if o.compare(new_length, fam.length) < 0:
        raise ValueError("padding cannot shorten")
    if new_length == fam.length:
        return fam
    return TransfiniteFamily(new_length,
                             fam.segments + (Segment(fam.length, new_length, FALSE),))


# ---------------------------------------------------------------------------
# Validation.

def _check_segments(fam: TransfiniteFamily) -> None:
    """The segments partition [0, length) in order, and every index atom's
    shift lies at or below its segment's start, so eta - shift exists on
    the whole segment; VerificationError("segments") otherwise."""
    pos = ZERO
    for s in fam.segments:
        if s.lo != pos or o.compare(s.lo, s.hi) >= 0:
            raise VerificationError("segments", "gap or overlap at %s" % s.lo)
        try:
            subst_eta(s.body, s.lo)
        except ValueError as e:  # left_sub: an index atom's shift lies above s.lo
            raise VerificationError("segments", "index atom shift above segment start %s"
                                    % s.lo) from e
        pos = s.hi
    if pos != fam.length:
        raise VerificationError("segments", "segments end at %s, length %s"
                                % (pos, fam.length))


def validate_set_family(fam: TransfiniteFamily, t: Topology, xi: int = 1) -> list[str]:
    """Check the decreasing-continuous-family invariants; returns the list of
    established certificates, raises VerificationError at the first failure.
    The level xi is at least 1 (ValueError otherwise).

    Each segment is checked once, at no sampled index.  A body whose index
    atoms all shrink in NNF (`PARAM_ETA`'s `shrinks`) decreases on its whole
    segment, as and/or are monotone; any other body is checked at every
    index of a finite segment, and is unsupported on an infinite one.  A
    successor start adds one inclusion; at a limit start the continuity
    check implies it.  Inside a segment, a body whose index atoms have
    coeff <= 1 is continuous at every limit: base + (eta - shift) is
    continuous in eta, and finite unions and intersections of decreasing
    chains commute with the intersection below a limit.  A coeff-0 atom is
    base at every index, so it is one rule whether it is the whole body or
    a part of one: constant, hence decreasing and continuous.  With coeff >= 2
    the least limit theta above the start is checked; the later members
    lie in F_theta, so an empty one settles every later limit, and a
    nonempty one leaves them unsupported.  At xi = 1 a concrete body is
    checked closed, and a one-atom `ge-param` body is some [t, bound).
    """
    if xi < 1:
        raise ValueError("xi must be at least 1, got %d" % xi)
    space = t.space
    _check_segments(fam)
    if not sem_eq(fam.at(ZERO), TRUE, space):
        raise VerificationError("F0", "F_0 must be the whole space")
    for s in fam.segments:
        if o.classify(s.lo) is Kind.SUCCESSOR:
            _check_step(fam, o.predecessor(s.lo), space)
        elif o.classify(s.lo) is Kind.LIMIT:
            _check_limit(fam, s.lo, fam.pointwise_intersection_tail(s.lo), space)
        index_atoms = [a for a in atoms(_nnf(s.body, False)) if type(a) in PARAM_ETA]
        if not all(PARAM_ETA[type(a)].shrinks for a in index_atoms):
            if not o.left_sub(s.hi, s.lo).is_finite:
                raise UnsupportedProgression("cannot decide whether %r decreases on [%s, %s)"
                                             % (s.body, s.lo, s.hi))
            eta = s.lo
            while o.compare(o.add(eta, 1), s.hi) < 0:
                _check_step(fam, eta, space)
                eta = o.add(eta, 1)
        theta = o.add(s.lo.limit_part(), W)  # the least limit above s.lo
        if any(a.coeff >= 2 for a in index_atoms) and o.compare(theta, s.hi) < 0:
            tail = _tail_intersection(s, theta)
            _check_limit(fam, theta, tail, space)
            if o.compare(o.add(theta, W), s.hi) < 0 and not is_empty(tail, space):
                raise UnsupportedProgression("cannot decide continuity of %r above %s"
                                             % (s.body, theta))
        if xi == 1 and not (is_closed(s.body, t) if s.concrete
                            else isinstance(s.body, POrdGeEta)):
            raise VerificationError("closed", "cannot certify F_%s closed" % s.lo)
    certs = ["segments partition [0, %s)" % fam.length, "F_0 = X",
             "decreasing (per segment, from the index atoms' directions)",
             "continuity at limit stages"]
    if o.classify(fam.length) is Kind.LIMIT:
        if not is_empty(fam.pointwise_intersection_tail(fam.length), space):
            raise VerificationError("vanishing",
                                    "intersection below %s nonempty" % fam.length)
        certs.append("intersection over all indices empty")
    certs.append("members closed (Pi^0_1)" if xi == 1 else
                 "members Pi^0_%d (countable space: automatic)" % xi)
    return certs


def _check_step(fam: TransfiniteFamily, eta: Ordinal, space: SpaceDesc) -> None:
    if not subset(fam.at(o.add(eta, 1)), fam.at(eta), space):
        raise VerificationError("decreasing", "increases at %s" % eta)


def _check_limit(fam: TransfiniteFamily, theta: Ordinal, tail: Pat, space: SpaceDesc) -> None:
    if not sem_eq(fam.at(theta), tail, space):
        raise VerificationError("continuity", "at %s" % theta)


# ---------------------------------------------------------------------------
# Even-difference unions (the transfinite-difference value of a family).

def even_diff_union(fam: TransfiniteFamily) -> Pat:
    """Union of F_eta minus F_{eta+1} over even eta below the length, with
    F_eta empty from the length on."""
    _check_segments(fam)
    parts: list[Pat] = []
    for s in fam.segments:
        seg_len = o.left_sub(s.hi, s.lo)
        if seg_len.is_finite:
            eta = s.lo
            while o.compare(eta, s.hi) < 0:
                if o.is_even(eta):
                    parts.append(and_(fam.at(eta), not_(fam.at(o.add(eta, 1)))))
                eta = o.add(eta, 1)
            continue
        # infinite segment: interior differences in closed form
        if s.concrete:
            pass  # constant on the segment: interior differences vanish
        elif isinstance(s.body, POrdGeEta) and s.body.coeff == 1:
            parts.append(_tail_diffs_pattern(s))
        else:
            raise UnsupportedProgression(
                "even differences unsupported for segment body %r" % (s.body,))
        # the last index (present when hi is a successor) crosses into the
        # next segment, so its difference is computed concretely
        if o.classify(s.hi) is Kind.SUCCESSOR:
            last = o.predecessor(s.hi)
            if o.is_even(last):
                parts.append(and_(fam.at(last), not_(fam.at(o.add(last, 1)))))
    return or_(*parts)


def _tail_diffs_pattern(s: Segment) -> Pat:
    """Union over even eta in [s.lo, s.hi), eta+1 < s.hi, of the singleton
    difference of x >= base + (eta - shift)."""
    base, shift = s.body.base, s.body.shift
    # x = base + z with z in [s.lo - shift, top - shift), eta = shift + z even;
    # when hi is a successor its predecessor's difference crosses segments and
    # is handled by the caller.
    top = s.hi if o.classify(s.hi) is Kind.LIMIT else o.predecessor(s.hi)
    z_lo = o.left_sub(s.lo, shift)
    z_hi = o.left_sub(top, shift)
    x_lo = o.add(base, z_lo)
    x_hi = o.add(base, z_hi)
    itv = and_(ord_ge(x_lo), ord_lt(x_hi))
    # parity of eta = shift + z where z = x - base
    fb, fs = base.fin() % 2, shift.fin() % 2
    near = and_(itv, ord_lt(o.add(base, W)),
                digit_mod(0, 2, (fb + fs) % 2))
    far = and_(itv, ord_ge(o.add(base, W)), digit_mod(0, 2, 0))
    return or_(near, far)
