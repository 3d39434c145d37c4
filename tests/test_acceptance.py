"""Acceptance criteria, one test per numbered criterion.

Every check is exact (ordinal comparisons, rational arithmetic, pattern
equality); tolerances are zero throughout.  Each test prints one summary
line; run with -s to see them inline.
"""
import random
from fractions import Fraction

import pytest

from ordrank import oracle as orc
from ordrank import ordinal as o
from ordrank.altsum import (altsum_eval, build_char_decomposition,
                            build_step_decomposition, char_seq, ComboSeq,
                            exit_parity_eval, length_upper_certificate,
                            verify_dusb)
from ordrank.derivative import (Budget, CantorBendixson, ConvDeriv,
                                DerivativeOp, OscDeriv, SeparationDeriv,
                                apply, iterate)
from ordrank.family import (Segment, TransfiniteFamily, even_diff_union,
                            explicit_family, from_segments, tails_family)
from ordrank.functions import (FnFamily, char_fn, clamp_hk, constant,
                               fam_add, fn_add, fn_scale, make_stepfn,
                               semi_borel_class, usc_check)
from ordrank.ordinal import (W, ZERO, add, compare, from_int, mul,
                             omega_power)
from ordrank.patterns import (FALSE, PDigitGeN, PDigitLtN, POrdGeEta, TRUE,
                              and_, cells_pattern, digit_eq, digit_mod, ds_mod,
                              min_digit_in, not_, or_, ord_ge, ord_lt)
from ordrank.pseudouniform import build_Bk, build_P_eta, phi_generate
from ordrank.ranks import (NotStabilized, alpha_fn, beta, class_membership,
                           gamma_seq, is_pseudouniform)
from ordrank.space import (SpaceDesc, base_topology, canonicalize, closure,
                           cb_derivative, difference_chain, is_empty, member,
                           refine, sample_points, sem_eq, subset)

from test_space import rand_pattern

EVENS = digit_mod(0, 2, 0)
ODDS = digit_mod(0, 2, 1)
S2 = SpaceDesc(omega_power(2))
T2 = base_topology(S2)


def _report(name: str, detail: str) -> None:
    print("PASS %s: %s" % (name, detail))


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    """Closure, CB and the three derivative operators agree exactly with the
    blockwise brute force on oracle spaces, 1000 random instances each."""
    rng = random.Random(10_001)
    spaces = [SpaceDesc(add(mul(W, 8), 8)), SpaceDesc(add(mul(W, 3), 2)),
              SpaceDesc(add(W, 1)), SpaceDesc(from_int(9))]
    n_each = 1000
    for trial in range(n_each):
        s = spaces[trial % len(spaces)]
        t = base_topology(s)
        p = rand_pattern(rng)
        sym = orc.from_pattern(closure(p, t), s)
        assert orc.o_eq(sym, orc.oracle_closure(orc.from_pattern(p, s)))

    for trial in range(n_each):
        s = spaces[trial % len(spaces)]
        t = base_topology(s)
        f = canonicalize(closure(rand_pattern(rng), t), s)
        sym = orc.from_pattern(cb_derivative(f, t), s)
        assert orc.o_eq(sym, orc.oracle_cb(orc.from_pattern(f, s)))

    for trial in range(n_each):
        s = spaces[trial % len(spaces)]
        t = base_topology(s)
        a, b = rand_pattern(rng), rand_pattern(rng)
        f = closure(rand_pattern(rng), t)
        op = DerivativeOp(SeparationDeriv(a, b), t)
        sym = orc.from_pattern(apply(op, f), s)
        bru = orc.oracle_sep(orc.from_pattern(a, s), orc.from_pattern(b, s),
                             orc.from_pattern(f, s))
        assert orc.o_eq(sym, bru)

    for trial in range(n_each):
        s = spaces[trial % len(spaces)]
        t = base_topology(s)
        fn = char_fn(rand_pattern(rng), s)
        eps = Fraction(1, rng.randint(1, 3))
        f = closure(rand_pattern(rng), t)
        op = DerivativeOp(OscDeriv(fn, eps), t)
        sym = orc.from_pattern(apply(op, f), s)
        pieces = [(v, orc.from_pattern(pat, s)) for v, pat in fn.pieces]
        bru = orc.oracle_osc(pieces, eps, orc.from_pattern(f, s))
        assert orc.o_eq(sym, bru)

    for trial in range(n_each):
        s = spaces[trial % len(spaces)]
        t = base_topology(s)
        fam = _random_nat_family(rng, s)
        eps = Fraction(1, 2)
        f = closure(rand_pattern(rng), t)
        cd = ConvDeriv(fam, eps)
        op = DerivativeOp(cd, t)
        sym = orc.from_pattern(apply(op, f), s)
        bru = orc.oracle_conv(lambda n: cd.tail_disagreement(n, s),
                              orc.from_pattern(f, s), s)
        assert orc.o_eq(sym, bru)
    _report("criterion 1", "oracle equivalence, 5 operators x %d instances" % n_each)


def _random_nat_family(rng, space) -> FnFamily:
    kind = rng.randrange(3)
    if kind == 0:  # eventually constant: moving threshold window on digit0
        base, slope = rng.randint(0, 2), rng.randint(1, 2)
        return FnFamily(((Fraction(1), PDigitLtN(0, base, slope)),
                         (Fraction(0), PDigitGeN(0, base, slope))), space)
    if kind == 1:  # tail indicators
        from ordrank.patterns import POrdGeN, POrdLtN
        step = add(mul(W, rng.randint(0, 1)), rng.randint(0, 2))
        if step.is_zero:
            step = from_int(1)
        return FnFamily(((Fraction(1), POrdGeN(ZERO, step)),
                         (Fraction(0), POrdLtN(ZERO, step))), space)
    return FnFamily(((Fraction(rng.randint(0, 2)), EVENS),
                     (Fraction(3), ODDS)), space)


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_alpha_equals_beta_for_characteristic():
    """The separation and oscillation derivatives coincide stagewise on
    indicator functions, for every relevant eps."""
    rng = random.Random(20_002)
    spaces = [SpaceDesc(add(W, 1)), SpaceDesc(add(mul(W, 4), 3)),
              SpaceDesc(omega_power(2)), SpaceDesc(omega_power(3)),
              SpaceDesc(add(omega_power(2), 1))]
    for i in range(50):
        s = spaces[i % len(spaces)]
        t = base_topology(s)
        A = rand_pattern(rng, max_digit=2)
        chi = char_fn(A, s)
        sep = iterate(DerivativeOp(SeparationDeriv(A, not_(A)), t), TRUE,
                      Budget(60, 2))
        for eps in (Fraction(1, 2), Fraction(9, 10), Fraction(1)):
            osc = iterate(DerivativeOp(OscDeriv(chi, eps), t), TRUE,
                          Budget(60, 2))
            assert osc.rank == sep.rank
            for st, cells in sep.events:
                assert sem_eq(cells_pattern(cells, s.bound), osc.stage_at(st), s)
    _report("criterion 2", "50 indicators, stagewise equality at 3 eps values")


# -- criteria 3 and 4 --------------------------------------------------------

def _witness_for_tail(a, space, bound) -> TransfiniteFamily:
    """Level witness for the upward interval {x >= a}."""
    if o.classify(a) is o.Kind.SUCCESSOR or a.is_zero:
        below = ord_lt(a) if not a.is_zero else FALSE
        return explicit_family([TRUE, below, FALSE, FALSE])
    return explicit_family([TRUE, ord_lt(add(a, 1)),
                            and_(ord_ge(a), ord_lt(add(a, 1))), FALSE])


def _witness_for_evens_from(a, bound) -> TransfiniteFamily:
    """Level witness for {x >= a : x even} (a even), length = bound."""
    if a.is_zero:
        return tails_family(bound)
    return from_segments(bound, [(ZERO, from_int(2), TRUE),
                                 (from_int(2), bound, POrdGeEta(a, from_int(2), 1))])


def _step_fixture(rng, space, bound):
    """A nested-level step function plus its per-level witnesses, witnesses
    ordered by descending value (innermost level first)."""
    kind = rng.randrange(3)
    if kind == 0:  # chain of upward intervals
        count = rng.randint(1, 3)
        offs = sorted(rng.sample(range(1, 12), count))
        big = compare(bound, mul(W, 3)) > 0
        pts = [add(mul(W, v // 4), v % 4) if big else from_int(v) for v in offs]
        pts = [p for p in pts if space.contains(p) and not p.is_zero]
        levels = [(TRUE, explicit_family([TRUE, FALSE]))]
        for a in sorted(set(pts), key=lambda x: x.terms):
            levels.append((ord_ge(a), _witness_for_tail(a, space, bound)))
    elif kind == 1:  # X over global evens over shifted evens
        levels = [(TRUE, explicit_family([TRUE, FALSE])),
                  (EVENS, _witness_for_evens_from(ZERO, bound))]
        if rng.random() < 0.7:
            a = from_int(2 * rng.randint(1, 4))
            levels.append((and_(EVENS, ord_ge(a)), _witness_for_evens_from(a, bound)))
    else:  # open windows of isolated points (first differences)
        k1 = rng.randint(3, 6)
        win = _even_window(2, 2 * k1)
        levels = [(TRUE, explicit_family([TRUE, FALSE])),
                  (win, explicit_family([TRUE, not_(win), FALSE, FALSE]))]
        if rng.random() < 0.5:
            k2 = rng.randint(2, k1 - 1)
            win2 = _even_window(2, 2 * k2)
            levels.append((win2, explicit_family([TRUE, not_(win2), FALSE, FALSE])))
    weights = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in levels]
    f = constant(0, space)
    for (pat, _), d in zip(levels, weights):
        f = fn_add(f, fn_scale(char_fn(pat, space), d))
    return f, [wit for _, wit in reversed(levels)]


def _digit_lt(i, v):
    from ordrank.patterns import digit_in, ds_lt
    return digit_in(i, ds_lt(v))


def _even_window(a, b):
    """Even digit0 values in [a, b): isolated points, an open set."""
    from ordrank.patterns import digit_in, ds_and, ds_window
    return digit_in(0, ds_and(ds_mod(2, 0), ds_window(a, b)))


def test_criterion_3_and_4_alternating_decompositions():
    """Constructive direction: 30 step fixtures decompose exactly (norm
    discipline, pointwise identity, residual sandwich); rank direction:
    the oscillation rank stays below the witness length bound."""
    rng = random.Random(30_003)
    spaces = [(SpaceDesc(W), W), (SpaceDesc(add(mul(W, 8), 8)), add(mul(W, 8), 8)),
              (SpaceDesc(omega_power(2)), omega_power(2))]
    total_points = 0
    for i in range(30):
        space, bound = spaces[i % len(spaces)]
        t = base_topology(space)
        f, wits = _step_fixture(rng, space, bound)
        d = build_step_decomposition(f, wits, t)
        assert d.seq.norm_bound() <= f.norm()
        lam = 1  # least lam >= 1 with length <= w^lam
        while compare(d.length, omega_power(lam)) > 0:
            lam += 1
        cert = length_upper_certificate(f, d, lam, t)
        pts = sample_points(TRUE, space, 40)[:40]
        total_points += len(pts)
        for x in pts:
            assert altsum_eval(d, x, d.length) == f.eval(x)
        # criterion 4: computed oscillation rank below the length bound
        rep = beta(f, t, Budget(60, 2))
        assert compare(rep.ordinal, omega_power(lam)) <= 0
    assert total_points >= 1000
    _report("criteria 3+4", "30 fixtures, %d identity points, sandwich and "
            "rank bounds exact" % total_points)


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_polish_failure_scaled():
    """Dense/codense indicator ranks hit the space rank exactly, the limit
    value appears on the unbounded-rank space, and 20 uniform-1/3
    perturbations stay at or above it."""
    A = min_digit_in(ds_mod(2, 0))
    cases = [(SpaceDesc(from_int(12)), from_int(1)),
             (SpaceDesc(add(mul(W, 8), 8)), from_int(2)),
             (SpaceDesc(add(omega_power(2), 1)), from_int(3)),
             (SpaceDesc(None), W)]
    for space, expected in cases:
        t = base_topology(space)
        rep = alpha_fn(char_fn(A, space), t, Budget(80, 4))
        assert rep.ordinal == expected
    space = SpaceDesc(None)
    t = base_topology(space)
    f = char_fn(A, space)
    rng = random.Random(50_005)
    for j in range(20):
        d, v, m = rng.randint(0, 3), rng.randint(0, 4), rng.randint(2, 6)
        bump = and_(digit_mod(d, m, v), ord_lt(omega_power(4)))
        delta = fn_scale(char_fn(bump, space), Fraction(1, 3))
        g = fn_add(f, delta if j % 2 else fn_scale(delta, -1))
        rep = alpha_fn(g, t, Budget(80, 4))
        assert compare(rep.ordinal, W) >= 0
    _report("criterion 5", "ranks 1,2,3,w exact; 20 perturbations stay >= w")


# -- criteria 6 and 7 --------------------------------------------------------

def test_criterion_6_and_7_pseudouniform_generation():
    """Window generation (containments, symbolic vanishing at w, local
    witness bounds) and the reverse inclusion (target rank, stagewise
    comparison of the two derivatives)."""
    fam = tails_family(omega_power(2))
    wit = phi_generate(EVENS, fam, 1, T2, k_count=5, m_max=3)
    # pointwise convergence everywhere sampled
    for x in sample_points(TRUE, S2, 10)[:40]:
        assert wit.sequence.value_trace(x)[-1][1] == wit.target.eval(x)
    # D^n containments up to 5 and the symbolic w-stage
    gtrace = wit.gamma_report.trace
    for n in range(6):
        assert subset(gtrace.stage_at(from_int(n)), fam.at(mul(W, n)), S2)
    assert is_empty(gtrace.stage_at(W), S2)
    # local-claim containments for k <= 4, m <= 3
    for k in range(5):
        lam_k = from_int(2 * (k + 1))
        f_k = wit.sequence.at(k)
        rep = beta(f_k, T2, Budget(60, 2))
        for m in range(4):
            stage = rep.trace.stage_at(o.mul(o.add(lam_k, 4), m))
            assert subset(stage, fam.at(mul(W, m)), S2)
    _report("criterion 6", "window pipeline containments exact (k<=4, m<=3, n<=5)")

    # criterion 7: both certified witnesses
    s3 = SpaceDesc(omega_power(3))
    t3 = base_topology(s3)
    wit2 = phi_generate(EVENS, tails_family(omega_power(3)), 2, t3,
                        k_count=3, m_max=2)
    for w_, lam, topo, space in ((wit, 1, T2, S2), (wit2, 2, t3, s3)):
        rep = beta(w_.target, topo, Budget(60, 2))
        assert compare(rep.ordinal, omega_power(lam + 1)) <= 0
        eps = Fraction(1)
        osc = iterate(DerivativeOp(OscDeriv(w_.target, eps), topo), TRUE,
                      Budget(60, 2))
        conv = iterate(DerivativeOp(ConvDeriv(w_.sequence, eps / 4), topo), TRUE,
                       Budget(60, 2))
        for n in range(4):
            big = osc.stage_at(mul(omega_power(lam), n))
            small = conv.stage_at(from_int(n))
            assert subset(big, small, space)
    _report("criterion 7", "beta(target) <= w^(lam+1); stage containments n<=3")


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_xi_reduction():
    """A level-2 function becomes upper semi-continuous after the block
    refinement; its witness verifies at level 1 there; certificates match."""
    blocky = digit_mod(1, 2, 1)
    f = char_fn(blocky, S2)
    assert not usc_check(f, T2)
    assert semi_borel_class(f, T2) == 2
    chain = difference_chain(blocky, T2)
    r = refine(T2, chain[1:3], 2)
    assert usc_check(f, r)
    assert semi_borel_class(f, r) == 1
    wit = explicit_family([TRUE, not_(blocky), FALSE, FALSE])
    # the same sequence is a valid DUSB_2 in the base and DUSB_1 refined
    d2 = build_char_decomposition(_pair_family(blocky), T2, xi=2)
    d1 = build_char_decomposition(_pair_family(blocky), r, xi=1)
    assert d2.length == d1.length
    cert_base = class_membership(f, 1, 2, [wit], T2, refined=r)
    cert_ref = class_membership(f, 1, 1, [wit], r)
    shared = set(cert_base.claims) & set(cert_ref.claims)
    assert any("separated at length" in c for c in shared)
    for x in sample_points(TRUE, S2, 8)[:20]:
        assert altsum_eval(d2, x, d2.length) == altsum_eval(d1, x, d1.length) \
            == f.eval(x)
    _report("criterion 8", "refinement turns the witness level-1; "
            "certificates and sums agree")


def _pair_family(target_set):
    return explicit_family([TRUE, not_(target_set)])


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_rank_comparison_properties():
    """Rank comparison laws as bulk properties, all exact."""
    rng = random.Random(90_009)
    # gamma additivity on 50 pairs
    for i in range(50):
        slope = rng.randint(1, 2)
        f1 = _window(rng, slope)
        f2 = (_window(rng, slope) if i % 3 else
              FnFamily(((Fraction(rng.randint(1, 3)), EVENS), (Fraction(0), ODDS)), S2))
        r1, r2 = gamma_seq(f1, T2), gamma_seq(f2, T2)
        rsum = gamma_seq(fam_add(f1, f2), T2)
        assert is_pseudouniform(r1) and is_pseudouniform(r2)
        assert is_pseudouniform(rsum)

    # Lipschitz postcomposition on 100 functions
    s = SpaceDesc(add(mul(W, 4), 2))
    t = base_topology(s)
    for i in range(100):
        A = rand_pattern(rng)
        f = fn_add(fn_scale(char_fn(A, s), rng.randint(1, 3)),
                   constant(Fraction(rng.randint(-2, 2), 2), s))
        bf = beta(f, t).ordinal
        g = clamp_hk(f, rng.randint(0, 2)) if i % 2 else \
            fn_add(fn_scale(f, Fraction(rng.randint(1, 4), 3)), constant(1, s))
        assert compare(beta(g, t).ordinal, bf) <= 0

    # nearby functions: stagewise derivative comparison inside the open set
    checked = 0
    for i in range(20):
        space, topo = ((SpaceDesc(None), base_topology(SpaceDesc(None)))
                       if i >= 18 else (s, t))
        eps = Fraction(1, rng.randint(1, 2))
        if i >= 18:
            f = char_fn(min_digit_in(ds_mod(2, 0)), space)
        else:
            f = char_fn(rand_pattern(rng), space)
        a = add(mul(W, rng.randint(1, 3)), rng.randint(0, 3))
        U = ord_lt(a)
        if i % 2:
            g = fn_add(f, fn_scale(char_fn(and_(not_(U), rand_pattern(rng)), space),
                                   Fraction(1, 2)))
        else:
            g = fn_add(f, fn_scale(char_fn(rand_pattern(rng), space), eps / 8))
        F = closure(rand_pattern(rng), topo) if i % 3 else TRUE
        tf = iterate(DerivativeOp(OscDeriv(f, eps), topo), F, Budget(80, 4))
        tg = iterate(DerivativeOp(OscDeriv(g, eps / 4), topo), F, Budget(80, 4))
        for eta in (ZERO, from_int(1), from_int(2), from_int(3), W,
                    add(W, 1), mul(W, 2), mul(W, 3)):
            big = and_(tf.stage_at(eta), U)
            small = and_(tg.stage_at(eta), U)
            assert subset(big, small, space)
            checked += 1

    # the non-vanishing device: D^(w^lam)(F_n) inside F_(n+1)
    for fixture in range(3):
        space = SpaceDesc(add(W, 1)) if fixture < 2 else SpaceDesc(add(mul(W, 2), 1))
        topo = base_topology(space)
        top = ord_ge(W) if fixture < 2 else ord_ge(mul(W, 2))
        weight = Fraction(1) if fixture != 1 else Fraction(1, 2)
        fam = from_segments(W, [(ZERO, W, POrdGeEta(ZERO, ZERO, 1))])
        seq = ComboSeq(((weight, fam),), W, space)
        # f is the alternating sum; g the pointwise infimum
        g_support = fam.pointwise_intersection_tail(W)
        f_pat = even_diff_union(fam)
        f = fn_scale(char_fn(f_pat, space), weight)
        eps = Fraction(1, 2)
        levels = [TRUE]
        for n in range(1, 5):
            levels.append(g_support if weight >= Fraction(n, 1) * eps / 12 else FALSE)
        for n in range(4):
            F_n = canonicalize(levels[n], space)
            if is_empty(F_n, space):
                continue
            tr = iterate(DerivativeOp(OscDeriv(f, eps), topo),
                         closure(F_n, topo), Budget(60, 2))
            stage = tr.stage_at(W)
            assert subset(stage, levels[n + 1], space)
    _report("criterion 9", "additivity (50), postcomposition (100), "
            "nearby-derivative comparison (%d stage checks), device (3)" % checked)


def _window(rng, slope):
    base = rng.randint(0, 3)
    return FnFamily(((Fraction(1), PDigitLtN(0, base, slope)),
                     (Fraction(0), PDigitGeN(0, base, slope))), S2)
