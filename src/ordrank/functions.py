"""Rational-valued step functions and their finite presentations.

A step function is a finite list of (value, cell) pieces whose cells
partition the space.  Families indexed by a natural n are step functions
whose cell patterns may carry affine n-atoms; the map n -> f_n(x) is then
a step function of n with computable breakpoints, which keeps pointwise
limits, convergence oscillation and stabilization certificates exact.

At every point the truth of an n-atom is monotone in n, so each atom has
one limit: the atom taken at n = omega (`_atom_at_limit`).  A pointwise
limit replaces every atom by its limit, digit thresholds and ordinal
thresholds with any slope alike; an atom switches at a point at most
once, at the n its kind's `switch` names (`patterns.NKind`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import space as sp
from .errors import (CertificateViolation, PartitionViolation,
                     UnsupportedProgression)
from .ordinal import Ordinal, W
from .patterns import (
    FALSE, PARAM_N, TRUE, Pat, PDigitGeN, PDigitLtN, _dnf, _nnf, and_, atoms,
    digit_in, holds_at, map_atoms, mk_digitset, not_, or_, subst_n,
)
from .space import SpaceDesc, Topology, closure, is_open, member


def _q(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class StepFn:
    pieces: tuple[tuple[Fraction, Pat], ...]  # distinct values, cells partition
    space: SpaceDesc

    def eval(self, x: Ordinal) -> Fraction:
        return self.pieces[self.piece_of(x)][0]

    def piece_of(self, x: Ordinal) -> int:
        """The index of the one piece holding x."""
        hits = [i for i, (_, p) in enumerate(self.pieces) if holds_at(p, x)]
        if len(hits) != 1:
            raise PartitionViolation("point %s hit %d cells" % (x, len(hits)))
        return hits[0]

    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for v, _ in self.pieces)

    def norm(self) -> Fraction:
        return max((abs(v) for v, _ in self.pieces), default=Fraction(0))

    def inf(self) -> Fraction:
        return min(v for v, _ in self.pieces)

    def cell_of(self, value: Fraction) -> Pat:
        for v, p in self.pieces:
            if v == value:
                return p
        return FALSE

    def map_values(self, fn) -> "StepFn":
        return make_stepfn([(fn(v), p) for v, p in self.pieces], self.space)


def _merged(pieces) -> tuple[tuple[Fraction, Pat], ...]:
    """The pieces with equal values joined by or_, sorted by value."""
    merged: dict[Fraction, Pat] = {}
    for v, p in pieces:
        v = _q(v)
        merged[v] = or_(merged[v], p) if v in merged else p
    return tuple(sorted(merged.items()))


def make_stepfn(pieces, space: SpaceDesc, check: bool = True) -> StepFn:
    out = _merged((v, p) for v, p in pieces if not sp.is_empty(p, space))
    if not out:
        raise PartitionViolation("no nonempty pieces")
    if check:
        pats = [p for _, p in out]
        whole = or_(*pats)
        if not sp.is_empty(not_(whole), space):
            raise PartitionViolation("cells do not cover the space")
        for i in range(len(pats)):
            for j in range(i + 1, len(pats)):
                if not sp.is_empty(and_(pats[i], pats[j]), space):
                    raise PartitionViolation("cells %d and %d overlap" % (i, j))
    return StepFn(out, space)


def constant(c, space: SpaceDesc) -> StepFn:
    return StepFn(((_q(c), TRUE),), space)


def char_fn(p: Pat, space: SpaceDesc) -> StepFn:
    """The indicator of a pattern."""
    return make_stepfn([(Fraction(1), p), (Fraction(0), not_(p))], space,
                       check=False)


def fn_add(f: StepFn, g: StepFn) -> StepFn:
    assert f.space == g.space
    pieces = [(vf + vg, and_(pf, pg)) for vf, pf in f.pieces for vg, pg in g.pieces]
    return make_stepfn(pieces, f.space, check=False)


def fn_scale(f: StepFn, c) -> StepFn:
    return f.map_values(lambda v: v * _q(c))


def fn_add_const(f: StepFn, c) -> StepFn:
    return f.map_values(lambda v: v + _q(c))


def fn_sub(f: StepFn, g: StepFn) -> StepFn:
    return fn_add(f, fn_scale(g, -1))


def fn_max_const(f: StepFn, c) -> StepFn:
    """Pointwise max(f, c)."""
    return f.map_values(lambda v: max(v, _q(c)))


def sup_dist(f: StepFn, g: StepFn) -> Fraction:
    """Exact sup norm of f - g."""
    return fn_sub(f, g).norm()


def clamp_hk(g: StepFn, k: int) -> StepFn:
    """Postcompose with the 1-Lipschitz clamp to [0, 2^-k]."""
    top = Fraction(1, 2 ** k)
    return g.map_values(lambda v: Fraction(0) if v < 0 else min(v, top))


def oscillation(f: StepFn, x: Ordinal, F: Pat, t: Topology) -> Fraction:
    """Largest gap among values attained arbitrarily close to x within F."""
    if not member(F, x, t):
        raise ValueError("oscillation needs x in F")
    acc = [v for v, p in f.pieces if member(closure(and_(p, F), t), x, t)]
    return max(acc) - min(acc)


def _relevant_sublevels(f: StepFn):
    vals = sorted(f.values())
    for v in vals:
        yield v, or_(*(p for w, p in f.pieces if w < v))


def usc_check(f: StepFn, t: Topology) -> bool:
    """Upper semi-continuity: every sublevel set {f < c} is open."""
    return all(is_open(s, t) for _, s in _relevant_sublevels(f))


def semi_borel_class(f: StepFn, t: Topology) -> int:
    """Least xi in {1, 2} with every {f < c} in Sigma^0_xi.

    In a countable space every subset is a countable union of closed
    singletons, hence Sigma^0_2; the answer never exceeds 2.
    """
    return 1 if usc_check(f, t) else 2


# ---------------------------------------------------------------------------
# Natural-indexed step-function families.

@dataclass(frozen=True)
class FnFamily:
    """Step functions f_n given by one parametric piece list, one piece
    per value: equal values are joined at construction, sorted by value."""
    pieces: tuple[tuple[Fraction, Pat], ...]
    space: SpaceDesc

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", _merged(self.pieces))

    def at(self, n: int) -> StepFn:
        return make_stepfn([(v, subst_n(p, n)) for v, p in self.pieces],
                           self.space, check=False)

    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for v, _ in self.pieces)

    def value_trace(self, x: Ordinal) -> tuple[tuple[int, Fraction], ...]:
        """The step function n -> f_n(x) as ((n_from, value), ...)."""
        bps = {0}
        for _, p in self.pieces:
            bps |= _breakpoints(p, x)
        cuts = sorted(bps)
        out: list[tuple[int, Fraction]] = []
        for nc in cuts:
            val = self.at(nc).eval(x)
            if not out or out[-1][1] != val:
                out.append((nc, val))
        return tuple(out)

    def final_value(self, x: Ordinal) -> Fraction:
        return self.value_trace(x)[-1][1]

    def stabilization(self, x: Ordinal) -> int:
        return self.value_trace(x)[-1][0]

    def cell_pattern_of(self, value: Fraction) -> Pat:
        return dict(self.pieces).get(value, FALSE)

    def eventual_pattern(self, value: Fraction) -> Pat:
        return eventual(self.cell_pattern_of(value))

    def pointwise_limit(self) -> StepFn:
        pieces = [(v, self.eventual_pattern(v)) for v in self.values()]
        return make_stepfn(pieces, self.space)


def fam_add(a: FnFamily, b: FnFamily) -> FnFamily:
    assert a.space == b.space
    return FnFamily(tuple((va + vb, and_(pa, pb)) for va, pa in a.pieces
                          for vb, pb in b.pieces), a.space)


def fam_map_values(a: FnFamily, fn) -> FnFamily:
    return FnFamily(tuple((fn(v), p) for v, p in a.pieces), a.space)


def fam_clamp_hk(a: FnFamily, k: int) -> FnFamily:
    top = Fraction(1, 2 ** k)
    return fam_map_values(a, lambda v: Fraction(0) if v < 0 else min(v, top))


def _breakpoints(p: Pat, x: Ordinal) -> set[int]:
    """The n where the truth of p at x switches: its atoms' switches
    (`NKind.switch`) other than 0 and None."""
    switches = (PARAM_N[type(a)].switch(a, x) for a in atoms(p) if type(a) in PARAM_N)
    return {n for n in switches if n}


# -- symbolic limits and unions over the parameter ---------------------------

def _atom_at_limit(a: Pat) -> Pat:
    """The atom a at n = omega (a itself when it has no natural parameter).

    At every fixed point the atom's truth is monotone in n, hence
    eventually constant, and this pattern holds exactly where that
    constant is true.  Slope-0 atoms do not move.  Digit and divisibility
    thresholds with a positive slope pass every point, so shrinking kinds
    become FALSE and growing ones TRUE; ordinal thresholds climb to
    base + slope*omega."""
    kind = PARAM_N.get(type(a))
    if kind is None:
        return a
    if kind.at_omega:
        return kind.at(a, W)
    if a.slope == 0:
        return kind.at(a, 0)
    return FALSE if kind.shrinks else TRUE


def union_from_param(p: Pat) -> Pat:
    """Union over n >= N as a pattern affine in the start index N.

    Shrinking cells keep their atoms (now read as functions of N),
    growing atoms take their limit value, sliding windows leave a
    threshold plus a residue class."""
    cells_out = []
    for conj in _dnf(_nnf(p, False)):
        # a slope-0 atom does not move with n: it is a constant
        conj = [subst_n(a, 0) if type(a) in PARAM_N and a.slope == 0 else a
                for a in conj]
        dec = [a for a in conj if type(a) in PARAM_N and PARAM_N[type(a)].shrinks]
        inc = [a for a in conj if type(a) in PARAM_N and not PARAM_N[type(a)].shrinks]
        const = [a for a in conj if type(a) not in PARAM_N]
        if not dec:
            cells_out.append(and_(*const, *map(_atom_at_limit, inc)))
        elif not inc:
            cells_out.append(and_(*conj))
        elif (len(dec) == 1 and len(inc) == 1
                and isinstance(dec[0], PDigitGeN) and isinstance(inc[0], PDigitLtN)
                and dec[0].i == inc[0].i and dec[0].slope == inc[0].slope > 0):
            # sliding window [a + d*n, b + d*n) on one digit
            i, d = dec[0].i, dec[0].slope
            a, b = dec[0].base, inc[0].base
            if b <= a:
                continue
            if b - a >= d:
                cells_out.append(and_(*const, PDigitGeN(i, a, d)))
            else:
                residues = {(a + k) % d for k in range(b - a)}
                cells_out.append(and_(*const, PDigitGeN(i, a, d),
                                      digit_in(i, mk_digitset((), d, residues))))
        else:
            raise UnsupportedProgression(
                "mixed-direction parametric cell: %r" % (conj,))
    return or_(*cells_out)


def eventual(p: Pat) -> Pat:
    """{y : y in p(n) for all large n}, exactly.

    Every atom is eventually constant at each point, so p(n) eventually
    agrees with p with each atom taken at n = omega; that holds under
    negation too, so no normal form is needed."""
    return map_atoms(p, _atom_at_limit)


# ---------------------------------------------------------------------------
# Uniform presentations (truncated geometric sums of step functions).

@dataclass(frozen=True)
class UniformPresentation:
    base: Fraction
    terms: tuple[StepFn, ...]  # g^0 .. g^K, ||g^k|| <= 2^-k for k >= 1
    truncated: bool = False    # True when the terms only approximate the target

    def __post_init__(self) -> None:
        for k, g in enumerate(self.terms):
            if k >= 1 and g.norm() > Fraction(1, 2 ** k):
                raise CertificateViolation(k)

    @property
    def tail_bound(self) -> Fraction:
        if not self.truncated:
            return Fraction(0)
        return Fraction(1, 2 ** max(0, len(self.terms) - 1))

    def partial(self, upto: int) -> StepFn:
        acc = constant(self.base, self.terms[0].space)
        for g in self.terms[:upto]:
            acc = fn_add(acc, g)
        return acc

    def eval_approx(self, x: Ordinal) -> tuple[Fraction, Fraction]:
        v = self.base + sum((g.eval(x) for g in self.terms), Fraction(0))
        return v, self.tail_bound


def monotonize_and_diff(approx: list[StepFn], target: StepFn,
                        strict: bool = True) -> UniformPresentation:
    """Turn certified uniform approximations into a geometric presentation.

    Shifts each f^k down by 2^-(k+3) and clips at 0 (skipped when the raw
    sequence is already nondecreasing), verifies monotonicity and the
    norm discipline of the differences, and folds inf(target) into g^0.
    """
    if not approx:
        raise CertificateViolation("empty approximation sequence")
    if target.inf() < 0:
        raise CertificateViolation("target must be non-negative; split off its infimum")
    if strict:
        for k, f in enumerate(approx):
            if sup_dist(f, target) > Fraction(1, 2 ** (k + 5)):
                raise CertificateViolation(k)
    already_monotone = all(
        fn_sub(approx[k + 1], approx[k]).inf() >= 0 for k in range(len(approx) - 1))
    if already_monotone:
        shifted = list(approx)
    else:
        shifted = [fn_max_const(fn_add_const(f, -Fraction(1, 2 ** (k + 3))), 0)
                   for k, f in enumerate(approx)]
        for k in range(len(shifted) - 1):
            if fn_sub(shifted[k + 1], shifted[k]).inf() < 0:
                raise CertificateViolation(k)
        if strict:
            for k, f in enumerate(shifted):
                if sup_dist(f, target) > Fraction(1, 2 ** (k + 2)):
                    raise CertificateViolation(k)
    # inf(target) rides inside g^0: the approximations target f itself, so the
    # telescoping sum already carries the constant.
    gs = [shifted[0]]
    for k in range(1, len(shifted)):
        g = fn_sub(shifted[k], shifted[k - 1])
        if g.inf() < 0:
            raise CertificateViolation(k)
        if g.norm() > Fraction(1, 2 ** k):
            raise CertificateViolation(k)
        gs.append(g)
    return UniformPresentation(Fraction(0), tuple(gs), truncated=True)
