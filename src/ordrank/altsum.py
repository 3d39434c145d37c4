"""Transfinite alternating sums of decreasing function sequences.

The sequences are nonnegative combinations of decreasing set families, so
the index map eta -> f_eta(x) is a step function of eta with finitely
many ordinal thresholds.  Its value trace is swept from the families'
intervals of constant membership of x (`TransfiniteFamily.pieces`) and
memoised per (sequence, point); the length certificate
builds it once per sampled point, reads the identity from it, and reads the
partial sum and f_theta(x) at every checked even stage in one sweep of it.
The alternating sum up to theta is evaluated exactly by crossing the
constant intervals: over a stretch of constant value v starting at an even
index, the partial sum
gains v at odd stages and returns at even and limit stages; starting at an
odd index it dips by v at even stages.  Limit stages agree with the
supremum of even partial sums below, so no approximation is involved.

The sums run on integers.  A sequence fixes D, the least common multiple of
its weights' denominators, and each weight's integer numerator w*D; the
memoised trace holds every value f_eta(x) as an integer numerator over D.
Every value and every partial sum is an integer combination of the weights,
so it is a multiple of 1/D, and the integer sums are exact: an evaluation
builds one Fraction, numerator over D, per answer.  The certificate compares
its identity and its residual sandwich on numerators too, which is exact
because D > 0: each value of f, less the constant, becomes its numerator
over D once, and a Fraction is built only for a failure's message.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from math import lcm

from . import ordinal as o
from .errors import (ExitNotFound, PrecisionUnreachable, ResidualViolation,
                     VerificationError, WitnessMismatch)
from .family import TransfiniteFamily, even_diff_union, validate_set_family
from .functions import StepFn, UniformPresentation
from .ordinal import Kind, Ordinal, ZERO
from .patterns import and_, iter_cell, not_, or_, to_cells
from .space import SpaceDesc, Topology, sample_points, sem_eq


# ---------------------------------------------------------------------------
# Indexed function sequences.

@dataclass(frozen=True)
class ComboSeq:
    """f_eta = sum of weight_i * chi(F^i_eta); weights nonnegative.

    Sequences key the value-trace memo, so the hash of the three fields
    is computed once, at construction, as are the common denominator
    `_den` of the weights and their integer numerators `_nums` over it."""
    terms: tuple[tuple[Fraction, TransfiniteFamily], ...]
    length: Ordinal
    space: SpaceDesc
    _hash: int = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)
    _nums: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.terms, self.length, self.space)))
        den = lcm(*(w.denominator for w, _ in self.terms))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", tuple(w.numerator * (den // w.denominator)
                                                for w, _ in self.terms))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # as Cell's: the hash depends on digit sets' identities, so a copy
        # or an unpickled sequence computes its own
        return ComboSeq, (self.terms, self.length, self.space)

    def value_trace(self, x: Ordinal) -> tuple[tuple[Ordinal, Fraction], ...]:
        """The step function eta -> f_eta(x) on [0, length) as ((from, value), ...)."""
        return tuple((m, Fraction(v, self._den)) for m, v in self._num_trace(x))

    @lru_cache(maxsize=256)
    def _num_trace(self, x: Ordinal) -> tuple[tuple[Ordinal, int], ...]:
        """`value_trace` with each value as its integer numerator over `_den`.

        Swept from the families' pieces at x: a term's weight enters where
        an interval of x in F_eta starts and leaves where it ends, so at a
        cut between two such intervals it leaves and enters again, which
        changes no sum.  Memoized: a length certificate and the evaluations
        after it read the same points of the same sequence."""
        delta = {ZERO: 0}
        for w, (_, fam) in zip(self._nums, self.terms):
            for start, end, val in fam.pieces(x):
                if val:
                    delta[start] = delta.get(start, 0) + w
                    delta[end] = delta.get(end, 0) - w
        total = 0
        out = []
        length = self.length.terms
        for m in sorted(delta, key=lambda a: a.terms):
            if out and m.terms >= length:
                break
            total += delta[m]
            if not out or out[-1][1] != total:
                out.append((m, total))
        return tuple(out)

    def value(self, eta: Ordinal, x: Ordinal) -> Fraction:
        return sum((w for w, fam in self.terms if fam.member(eta, x)
                    if o.compare(eta, fam.length) < 0), Fraction(0))

    def norm_bound(self) -> Fraction:
        return sum((w for w, _ in self.terms), Fraction(0))


def char_seq(fam: TransfiniteFamily, space: SpaceDesc) -> ComboSeq:
    return ComboSeq(((Fraction(1), fam),), fam.length, space)


@dataclass(frozen=True)
class DUSBSeq:
    seq: ComboSeq
    xi: int
    certs: tuple[str, ...]

    @property
    def length(self) -> Ordinal:
        return self.seq.length


def verify_dusb(seq: ComboSeq, xi: int, t: Topology) -> DUSBSeq:
    """Establish the decreasing-sequence certificates or raise with the
    first violated one.  The level xi is at least 1 (ValueError otherwise),
    also for a sequence without terms."""
    if xi < 1:
        raise ValueError("xi must be at least 1, got %d" % xi)
    certs = []
    for w, fam in seq.terms:
        if w < 0:
            raise VerificationError("nonnegative", "weight %s" % w)
    certs.append("nonnegative (weights >= 0, indicator components)")
    certs.append("bounded by %s" % seq.norm_bound())
    for i, (w, fam) in enumerate(seq.terms):
        sub = validate_set_family(fam, t, xi=xi)
        certs.append("component %d: %s" % (i, "; ".join(sub)))
        if o.compare(fam.length, seq.length) > 0:
            raise VerificationError("length", "component %d too long" % i)
    if o.classify(seq.length) is Kind.LIMIT:
        certs.append("vanishing at the limit length (componentwise)")
    return DUSBSeq(seq, xi, tuple(certs))


# ---------------------------------------------------------------------------
# Exact evaluation.

# The sums below take a trace of any exact number type: integer numerators
# from `ComboSeq._num_trace`, or Fractions.
Num = int | Fraction


def _cross(sum0: Num, a: Ordinal, b: Ordinal, v: Num) -> Num:
    """Partial sum after an interval of constant value v on [a, b).

    An ordinal is odd when its last term is a finite part that is odd."""
    if v == 0:
        return sum0
    a, b = a.terms, b.terms
    b_odd = b and b[-1][0] == 0 and b[-1][1] & 1
    if a and a[-1][0] == 0 and a[-1][1] & 1:
        return sum0 if b_odd else sum0 - v
    return sum0 + v if b_odd else sum0


def altsum_eval(d: DUSBSeq | ComboSeq, x: Ordinal, theta: Ordinal) -> Fraction:
    """Alternating sum of f_eta(x) over eta < theta, theta <= length."""
    seq = d.seq if isinstance(d, DUSBSeq) else d
    if o.compare(theta, seq.length) > 0:
        raise ValueError("theta beyond the sequence length")
    if theta.is_zero:
        return Fraction(0)
    return Fraction(_trace_sum(seq._num_trace(x), theta), seq._den)


def _trace_sum(trace: tuple[tuple[Ordinal, Num], ...], theta: Ordinal) -> Num:
    """Alternating sum over eta < theta of a value trace."""
    total = 0
    th = theta.terms
    for i, (start, val) in enumerate(trace):
        if start.terms >= th:
            break
        end = trace[i + 1][0] if i + 1 < len(trace) else theta
        if end.terms > th:
            end = theta
        total = _cross(total, start, end, val)
    return total


def _stage_readings(trace: tuple[tuple[Ordinal, Num], ...],
                    thetas: list[Ordinal]) -> list[tuple[Num, Num]]:
    """(alternating sum below theta, f_theta(x)) for each theta of an
    ascending list, from one sweep of a value trace: the sum is
    `_trace_sum(trace, theta)` and the value that of the last mark at or
    below theta (0 before the first mark)."""
    out = []
    total = 0
    i = 0
    for theta in thetas:
        th = theta.terms
        # cross every interval that ends at or below theta
        while i + 1 < len(trace) and trace[i + 1][0].terms <= th:
            total = _cross(total, trace[i][0], trace[i + 1][0], trace[i][1])
            i += 1
        start, val = trace[i]
        if start.terms < th:
            out.append((_cross(total, start, theta, val), val))
        else:  # theta at the mark, or before the first one
            out.append((total, val if start is theta else 0))
    return out


def altsum_unrolled(d: DUSBSeq | ComboSeq, x: Ordinal, steps: int) -> list[Fraction]:
    """Finite prefix of partial sums by the literal recursion (test oracle)."""
    seq = d.seq if isinstance(d, DUSBSeq) else d
    out = [Fraction(0)]
    for n in range(steps):
        eta = o.from_int(n)
        sign = 1 if o.is_even(eta) else -1
        out.append(out[-1] + sign * seq.value(eta, x))
    return out


def exit_parity_eval(fam: TransfiniteFamily, x: Ordinal) -> int:
    """1 iff x lies in an even transfinite difference of the family.

    The least index expelling x is a successor zeta+1 (sets beyond the
    length count as empty); the answer is the parity bit of zeta."""
    e = fam.exit_index(x)
    if e is None:
        if o.classify(fam.length) is not Kind.SUCCESSOR:
            raise ExitNotFound(x)
        e = fam.length
    if o.classify(e) is not Kind.SUCCESSOR:
        raise ExitNotFound("exit at limit index %s for %s" % (e, x))
    zeta = o.predecessor(e)
    return 1 if o.is_even(zeta) else 0


# ---------------------------------------------------------------------------
# Decomposition builders.

@dataclass(frozen=True)
class Certificate:
    kind: str
    lam: int
    xi: int
    claims: tuple[str, ...]


def build_char_decomposition(fam: TransfiniteFamily, t: Topology,
                             xi: int = 1) -> DUSBSeq:
    """The indicator sequence of a separation family."""
    return verify_dusb(char_seq(fam, t.space), xi, t)


def build_step_decomposition(f: StepFn, witnesses: list[TransfiniteFamily],
                             t: Topology, xi: int = 1) -> DUSBSeq:
    """Combine per-level witnesses into a sequence with alternating sum f.

    Levels are the descending value thresholds of f (the same pairs the
    separation rank takes its supremum over); witnesses[i] must realize
    {f >= v_i} as its union of even differences.  Nesting the levels keeps
    every f_eta bounded by ||f||.
    """
    if f.inf() < 0:
        raise WitnessMismatch("decompose nonnegative functions only")
    vals = sorted(f.values(), reverse=True)
    levels = [v for v in vals if v > 0]
    if len(witnesses) != len(levels):
        raise WitnessMismatch("need %d level witnesses, got %d"
                              % (len(levels), len(witnesses)))
    space = t.space
    terms = []
    max_len = ZERO
    for i, v in enumerate(levels):
        nxt = levels[i + 1] if i + 1 < len(levels) else Fraction(0)
        weight = v - nxt
        level_set = or_(*(p for w, p in f.pieces if w >= v))
        u = even_diff_union(witnesses[i])
        if not sem_eq(u, level_set, space):
            bad = sample_points(or_(and_(u, not_(level_set)),
                                    and_(level_set, not_(u))), space, 1)
            raise WitnessMismatch("level %s witness realizes the wrong set"
                                  % v, bad[0] if bad else None)
        terms.append((weight, witnesses[i]))
        if o.compare(witnesses[i].length, max_len) > 0:
            max_len = witnesses[i].length
    seq = ComboSeq(tuple(terms), max_len, space)
    if seq.norm_bound() > f.norm():
        raise WitnessMismatch("norm discipline violated: %s > %s"
                              % (seq.norm_bound(), f.norm()))
    return verify_dusb(seq, xi, t)


@dataclass(frozen=True)
class LazyDUSB:
    """Per-term sequences for the geometric pieces of a presentation."""
    presentation: UniformPresentation
    terms: tuple[DUSBSeq, ...]

    def __post_init__(self) -> None:
        for k, d in enumerate(self.terms):
            if k >= 1 and d.seq.norm_bound() > Fraction(1, 2 ** k):
                raise VerificationError("geometric norm", "term %d" % k)


def build_uniform_decomposition(pres: UniformPresentation,
                                per_term: list[DUSBSeq]) -> LazyDUSB:
    if len(per_term) != len(pres.terms):
        raise VerificationError("terms", "need one sequence per presentation term")
    return LazyDUSB(pres, tuple(per_term))


def eval_to_precision(lazy: LazyDUSB, x: Ordinal, theta: Ordinal,
                      eps: Fraction) -> tuple[Fraction, Fraction]:
    """An interval of width < eps certified to contain the full sum.

    Every term's partial sums lie in [0, ||g^k||], so truncating after K
    leaves an error inside [0, 2^-K]."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    k = 0
    while Fraction(1, 2 ** k) >= eps / 2:
        k += 1
    avail = len(lazy.terms) - 1
    if k > avail:
        if lazy.presentation.truncated:
            raise PrecisionUnreachable(eps)
        k = avail  # a complete presentation is exact once every term is in
    s = lazy.presentation.base
    for d in lazy.terms[:k + 1]:
        th = theta if o.compare(theta, d.length) <= 0 else d.length
        s += altsum_eval(d, x, th)
    tail = Fraction(1, 2 ** k) if k < avail or lazy.presentation.truncated else Fraction(0)
    return s, s + tail


_SAMPLE_CAP = 60   # points checked against the identity
_EVEN_THETAS = 10  # even stages checked against the residual sandwich


def length_upper_certificate(f: StepFn, witness: DUSBSeq, lam: int,
                             t: Topology, const: Fraction = Fraction(0)) -> Certificate:
    """Certify f = const + alternating sum of the witness, with the residual
    sandwich 0 <= f - partial <= f_theta at sampled even stages."""
    space = t.space
    bound_len = o.omega_power(lam) if lam else o.from_int(1)
    if o.compare(witness.length, bound_len) > 0:
        raise WitnessMismatch("witness length %s exceeds w^%d"
                              % (witness.length, lam))
    # in turn from every cell of every piece, so infinite points are sampled
    turns = zip_longest(*(iter_cell(c, _SAMPLE_CAP) for _, p in f.pieces
                          for c in to_cells(p, space.bound)))
    pts: list[Ordinal] = []
    seen: set[Ordinal] = set()  # the list keeps the sampling order
    for x in chain.from_iterable(turns):
        if len(pts) == _SAMPLE_CAP:
            break
        if x is not None and x not in seen:
            seen.add(x)
            pts.append(x)
    claims = []
    # one value trace and one f(x) per point serve the identity and every
    # stage; traces and sums are numerators over seq._den, and so is each
    # value of f less const (None when it is no multiple of 1/seq._den,
    # which no sum equals)
    seq = witness.seq
    wants = [_numerator((v - const) * seq._den) for v, _ in f.pieces]
    checked = []
    for x in pts:
        trace = seq._num_trace(x)
        total = _trace_sum(trace, witness.length)
        i = f.piece_of(x)
        if total != wants[i]:
            raise WitnessMismatch("identity fails at %s: %s != %s"
                                  % (x, const + Fraction(total, seq._den), f.pieces[i][0]))
        checked.append((x, trace, total))
    claims.append("f = const + alternating sum at %d sampled points" % len(pts))
    thetas = _even_stage_samples(witness.length)
    # every stage of a point is read in one sweep of its trace; with the
    # identity f(x) - const = total / seq._den, the residual is
    # (total - partial) / seq._den
    readings = [(x, total, _stage_readings(trace, thetas))
                for x, trace, total in checked[: max(6, len(pts) // 4)]]
    for j, theta in enumerate(thetas):
        inside = o.compare(theta, witness.length) < 0
        for x, total, stages in readings:
            partial, val = stages[j]
            resid = total - partial
            if resid < 0 or resid > (val if inside else 0):
                raise ResidualViolation(x, theta)
    claims.append("residual sandwich at %d even stages" % len(thetas))
    return Certificate("length_upper", lam, witness.xi, tuple(claims))


def _numerator(q: Fraction) -> int | None:
    """q as an int, or None when it is not one."""
    return q.numerator if q.denominator == 1 else None


def _even_stage_samples(length: Ordinal) -> list[Ordinal]:
    out = {ZERO}
    if o.classify(length) is Kind.LIMIT:
        for n in range(_EVEN_THETAS):
            out.add(o.fundamental_sequence(length, n, even_only=True))
    else:
        eta = ZERO
        while o.compare(eta, length) < 0 and len(out) < _EVEN_THETAS:
            if o.is_even(eta):
                out.add(eta)
            eta = o.add(eta, 1)
    out.add(o.even_floor(length))
    return sorted(out, key=lambda a: a.terms)[:_EVEN_THETAS]
