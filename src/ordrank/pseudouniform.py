"""Generating higher bounded classes as pseudouniform limits.

Starting from a length-w^(lam+1) separation family for a set A, the
window sets B_k collect the even differences whose offset inside each
w^lam-block stays below an even threshold lam_k; their indicators
converge pointwise to the indicator of A, the convergence rank stays at
or below w, and each indicator's oscillation rank is tied down through
the shifted local witness families (the P construction) whose even
differences reproduce the local window."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ordinal as o
from .altsum import Certificate
from .derivative import Budget, DEFAULT_BUDGET
from .errors import ToolkitError, UnsupportedProgression, VerificationError, WitnessMismatch
from .family import Segment, TransfiniteFamily, _check_segments, even_diff_union
from .functions import (FnFamily, StepFn, char_fn, fam_add, fam_clamp_hk,
                        fam_map_values, fn_add, constant)
from .ordinal import Ordinal, W, ZERO, omega_power
from .patterns import (FALSE, TRUE, Pat, PDigitGeN, PDigitLtN, POrdGeEta,
                       and_, digit_eq, digit_in, digit_mod, ds_lt, not_, or_,
                       ord_ge, ord_lt)
from .ranks import (NotStabilized, RankReport, alpha_xi_verify, beta,
                    gamma_seq, is_pseudouniform)
from .space import SpaceDesc, Topology, is_empty, sample_points, sem_eq, subset


def _require_tails(fam: TransfiniteFamily) -> None:
    """Refuse a family other than one plain tail segment: with
    VerificationError("segments") when its segments do not partition its
    length, as every other reader of a family does, else as unsupported."""
    _check_segments(fam)
    ok = (len(fam.segments) == 1
          and isinstance(fam.segments[0].body, POrdGeEta)
          and fam.segments[0].body.base.is_zero
          and fam.segments[0].body.shift.is_zero
          and fam.segments[0].body.coeff == 1)
    if not ok:
        raise UnsupportedProgression(
            "window construction implemented for plain tail families only")


def remainder_lt(lam: int, bound: Ordinal) -> Pat:
    """{x : the part of x below w^lam is < bound} (bound < w^lam, or w^lam
    itself for the degenerate full window)."""
    if o.compare(bound, omega_power(lam)) >= 0:
        return TRUE
    branches = []
    for p in range(lam - 1, -1, -1):
        t = bound.digit(p)
        if t > 0:
            eq_above = [digit_eq(i, bound.digit(i)) for i in range(p + 1, lam)]
            branches.append(and_(*(eq_above + [digit_in(p, ds_lt(t))])))
    return or_(*branches) if branches else FALSE


def build_Bk(sep_fam: TransfiniteFamily, lam: int, lam_ks: list[Ordinal]) -> list[Pat]:
    """The window sets: even differences with block offset below lam_k."""
    for lk in lam_ks:
        if not o.is_even(lk) or lk.is_zero:
            raise ValueError("window thresholds must be even and positive")
    u = even_diff_union(sep_fam)
    return [and_(u, remainder_lt(lam, lk)) for lk in lam_ks]


def build_P_eta(sep_fam: TransfiniteFamily, lam: int, m: int, lam_k: Ordinal,
                t: Topology) -> TransfiniteFamily:
    """The length-(lam_k+4) witness for the block-m window indicator.

    For infinite lam_k the four-branch table applies verbatim; for finite
    lam_k the overlapping branches are replaced by the shift-through
    variant, the unique family of that length whose even differences give
    the window.  The result is verified as a level-1 witness before it is
    returned."""
    _require_tails(sep_fam)
    if not o.is_even(lam_k) or lam_k.is_zero:
        raise ValueError("window threshold must be even and positive")
    base = o.mul(omega_power(lam), m)
    two = o.from_int(2)
    if lam_k.is_finite:
        segs = (Segment(ZERO, two, TRUE),
                Segment(two, o.add(lam_k, 2), POrdGeEta(base, two, 1)),
                Segment(o.add(lam_k, 2), o.add(lam_k, 4), FALSE))
    else:
        segs = (Segment(ZERO, two, TRUE),
                Segment(two, W, POrdGeEta(base, two, 1)),
                Segment(W, lam_k, POrdGeEta(base, ZERO, 1)),
                Segment(lam_k, o.add(lam_k, 2), ord_ge(o.add(base, lam_k))),
                Segment(o.add(lam_k, 2), o.add(lam_k, 4), FALSE))
    segs = tuple(s for s in segs if o.compare(s.lo, s.hi) < 0)
    fam = TransfiniteFamily(o.add(lam_k, 4), segs)
    h = and_(ord_ge(base), ord_lt(o.add(base, lam_k)), digit_mod(0, 2, 0))
    try:
        alpha_xi_verify(h, not_(h), fam, 1, t)
    except ToolkitError as e:
        raise WitnessMismatch("window witness failed verification") from e
    return fam


def window_indicator_family(lam: int, lam_k_of_n, space: SpaceDesc) -> FnFamily:
    """chi(B_n) as one parametric family; lam_k_of_n describes the affine
    thresholds: ('finite', base, slope) for lam_k = base + slope*n, or
    ('limit', base, slope) for lam_k = w*(base + slope*n)."""
    kind, b0, sl = lam_k_of_n
    evens = digit_mod(0, 2, 0)
    if kind == "finite":
        inside = PDigitLtN(0, b0, sl)
        outside = PDigitGeN(0, b0, sl)
        extra_zero = [digit_eq(i, 0) for i in range(1, lam)]
    else:
        inside = PDigitLtN(1, b0, sl)
        outside = PDigitGeN(1, b0, sl)
        extra_zero = [digit_eq(i, 0) for i in range(2, lam)]
    one_cell = and_(*( [evens, inside] + extra_zero))
    zero_cell = or_(digit_mod(0, 2, 1), outside,
                    *(not_(z) for z in extra_zero))
    return FnFamily(((Fraction(0), zero_cell), (Fraction(1), one_cell)), space)


@dataclass(frozen=True)
class PhiWitness:
    target: StepFn
    sequence: FnFamily
    per_term_beta: tuple
    gamma_report: RankReport
    certificate: Certificate
    refinement: Topology | None = None


_CONTAINMENT_N = 5  # blocks D^n checked against the separation family
_DIAGONAL_N = 6     # diagonal functions f_n checked by the tail estimate


def certify_pseudouniform(fam: FnFamily, t: Topology,
                          sep_fam: TransfiniteFamily | None = None,
                          lam: int | None = None,
                          budget: Budget = DEFAULT_BUDGET) -> tuple[RankReport, Certificate]:
    """Convergence rank <= w, with the block containment D^n <= F_(w^lam*n)
    checked against an attached separation family."""
    rep = gamma_seq(fam, t, budget)
    if not is_pseudouniform(rep):
        raise VerificationError("pseudouniform",
                                "convergence rank not bounded by w: %s" % (rep.value,))
    claims = ["gamma rank %s <= w" % rep.value]
    if sep_fam is not None and lam is not None and rep.trace is not None:
        step = omega_power(lam)
        for n in range(_CONTAINMENT_N + 1):
            stage = rep.trace.stage_at(o.from_int(n))
            target_set = sep_fam.at(o.mul(step, n))
            if not subset(stage, target_set, t.space):
                raise VerificationError("containment",
                                        "D^%d not inside F_(w^%d*%d)" % (n, lam, n))
        claims.append("D^n inside F_(w^%d*n) for n <= %d" % (lam, _CONTAINMENT_N))
        limit_stage = rep.trace.stage_at(W) if o.compare(rep.ordinal, W) >= 0 else FALSE
        if not is_empty(limit_stage, t.space):
            raise VerificationError("containment", "D^w nonempty")
        claims.append("D^w empty (symbolically)")
    return rep, Certificate("pseudouniform", lam or 0, 1, tuple(claims))


def phi_generate(A: Pat, sep_fam: TransfiniteFamily, lam: int, t: Topology,
                 k_count: int = 5, m_max: int = 3,
                 budget: Budget = DEFAULT_BUDGET,
                 refinement: Topology | None = None) -> PhiWitness:
    """Generate the indicator of A as a pseudouniform limit of window
    indicators, with every certificate of the construction machine-checked."""
    if lam not in (1, 2):
        raise UnsupportedProgression("window generation runs at lam = 1 or 2")
    topo = refinement if refinement is not None else t
    space = topo.space
    _require_tails(sep_fam)
    if sep_fam.length != omega_power(lam + 1):
        raise WitnessMismatch("separation family must have length w^%d" % (lam + 1))
    u = even_diff_union(sep_fam)
    if not sem_eq(u, A, space):
        raise WitnessMismatch("family differences do not produce the target set")

    if lam == 1:
        lam_ks = [o.from_int(2 * (k + 1)) for k in range(k_count)]
        fam = window_indicator_family(1, ("finite", 2, 2), space)
    else:
        lam_ks = [o.mul(W, k + 1) for k in range(k_count)]
        fam = window_indicator_family(2, ("limit", 1, 1), space)
    bks = build_Bk(sep_fam, lam, lam_ks)
    for k in range(min(3, k_count)):
        if not sem_eq(fam.at(k).cell_of(Fraction(1)), bks[k], space):
            raise WitnessMismatch("window family disagrees with B_%d" % k)

    # pointwise convergence, exactly
    limit = fam.pointwise_limit()
    target = char_fn(A, space)
    if not sem_eq(limit.cell_of(Fraction(1)), A, space):
        raise WitnessMismatch("pointwise limit differs from the target")

    # per-term oscillation bounds through the shifted local witnesses
    per_term = []
    step = omega_power(lam)
    for k in range(k_count):
        lam_k = lam_ks[k]
        for m in range(1, m_max + 1):
            build_P_eta(sep_fam, lam, m - 1, lam_k, topo)
        f_k = fam.at(k)
        rep = beta(f_k, topo, budget)
        bound = o.mul(o.add(lam_k, 4), W)  # equals lam_k * w
        if isinstance(rep.value, NotStabilized) or o.compare(rep.value, bound) > 0:
            raise VerificationError("beta bound", "term %d" % k)
        if rep.trace is not None:
            for m in range(m_max + 1):
                stage = rep.trace.stage_at(o.mul(o.add(lam_k, 4), m))
                if not subset(stage, sep_fam.at(o.mul(step, m)), space):
                    raise VerificationError(
                        "containment", "term %d at block %d" % (k, m))
        per_term.append((k, rep.value, bound))

    gam, cert = certify_pseudouniform(fam, topo, sep_fam, lam, budget=budget)
    claims = cert.claims + tuple(
        "beta(f_%d) = %s <= (lam_%d+4)*w = %s" % (k, v, k, b)
        for k, v, b in per_term)
    return PhiWitness(target, fam, tuple(per_term), gam,
                      Certificate("phi_generate", lam, 1, claims), refinement)


def phi_step_and_sum(target, piece_witnesses: list[PhiWitness], t: Topology,
                     budget: Budget = DEFAULT_BUDGET) -> PhiWitness:
    """Dispatch on the target kind: step functions combine per-indicator
    witnesses; presentations go through the clamped diagonal stage."""
    if isinstance(target, StepFn):
        return phi_step_combination(target, piece_witnesses, t, budget)
    return phi_sum_stage(target, piece_witnesses, t, budget=budget)


def phi_step_combination(target: StepFn, piece_witnesses: list[PhiWitness],
                         t: Topology, budget: Budget = DEFAULT_BUDGET) -> PhiWitness:
    """Combine per-indicator witnesses for a step function target:
    f^k = sum of c_i * f_i^k, pseudouniform by additivity of the
    convergence bound, recomputed directly here."""
    vals = [v for v, _ in target.pieces]
    if len(piece_witnesses) != len(vals):
        raise WitnessMismatch("need one witness per value cell")
    combined: FnFamily | None = None
    for (v, cell), wit in zip(target.pieces, piece_witnesses):
        if not sem_eq(wit.target.cell_of(Fraction(1)), cell, t.space):
            raise WitnessMismatch("witness target differs from the %s cell" % v)
        scaled = fam_map_values(wit.sequence, lambda w, v=v: w * v)
        combined = scaled if combined is None else fam_add(combined, scaled)
    limit = combined.pointwise_limit()
    for v, cell in target.pieces:
        if not sem_eq(limit.cell_of(v), cell, t.space):
            raise WitnessMismatch("combined limit differs from the target")
    gam, cert = certify_pseudouniform(combined, t, budget=budget)
    per = []
    for n in range(3):
        rep = beta(combined.at(n), t, budget)
        per.append((n, rep.value, None))
    claims = cert.claims + ("per-term oscillation ranks: %s"
                            % ", ".join(str(v) for _, v, _ in per),)
    return PhiWitness(target, combined, tuple(per), gam,
                      Certificate("phi_step", 0, 1, claims))


def phi_sum_stage(pres, piece_witnesses: list[PhiWitness], t: Topology,
                  budget: Budget = DEFAULT_BUDGET) -> PhiWitness:
    """The diagonal stage: f_n = sum over k <= n of the clamped n-th
    approximants of the geometric pieces; pseudouniformity is certified
    through the truncated-sum reduction."""
    K = len(pres.terms) - 1
    if len(piece_witnesses) != K + 1:
        raise WitnessMismatch("need one witness per presentation term")
    clamped = [fam_clamp_hk(w.sequence, k) if k >= 1 else w.sequence
               for k, w in enumerate(piece_witnesses)]
    # truncated-sum family (all K+1 terms)
    total: FnFamily | None = None
    for famk in clamped:
        total = famk if total is None else fam_add(total, famk)
    gam, cert = certify_pseudouniform(total, t, budget=budget)
    # diagonal functions f_n for n <= _DIAGONAL_N, via exact finite sums
    const0 = constant(0, t.space)
    diagonals = []
    for n in range(_DIAGONAL_N + 1):
        acc = const0
        for k in range(min(n, K) + 1):
            acc = fn_add(acc, clamped[k].at(n))
        diagonals.append(acc)
    # tail estimate at sampled points: |f_n - f_m| <= |truncated diff| + 2^(1-K)
    pts = sample_points(TRUE, t.space, per_cell=12)[:40]
    tail = Fraction(2, 2 ** K)
    for n in range(_DIAGONAL_N):
        for x in pts:
            d = abs(diagonals[n + 1].eval(x) - diagonals[n].eval(x))
            dK = abs(sum((clamped[k].at(n + 1).eval(x) - clamped[k].at(n).eval(x)
                          for k in range(K + 1)), Fraction(0)))
            if d > dK + tail:
                raise VerificationError("tail estimate", (n, x))
    target = pres.partial(len(pres.terms))
    claims = cert.claims + (
        "diagonal tail estimate verified on %d points" % len(pts),)
    return PhiWitness(target, total, (), gam,
                      Certificate("phi_sum", 0, 1, claims))
