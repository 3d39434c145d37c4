"""Step functions: evaluation, arithmetic, oscillation, classes, presentations."""
import random
from fractions import Fraction

import pytest

from ordrank.errors import (CertificateViolation, PartitionViolation,
                            UnsupportedProgression)
from ordrank.functions import (FnFamily, StepFn, UniformPresentation, char_fn,
                               clamp_hk, constant, fam_add, fam_map_values,
                               fn_add, fn_add_const, fn_max_const, fn_scale,
                               fn_sub, make_stepfn, monotonize_and_diff,
                               oscillation, semi_borel_class, sup_dist,
                               union_from_param, usc_check)
from ordrank.ordinal import max_mult as _max_mult
from ordrank.ordinal import (W, ZERO, Ordinal, add, compare, from_int, mul,
                             omega_power)
from ordrank.patterns import (PDigitGeN, PDigitLtN, PDivN, POrdGeN, POrdLtN,
                              TRUE, and_, digit_mod, holds_at, not_, or_,
                              ord_ge, ord_lt, subst_n)
from ordrank.ranks import gamma_seq
from ordrank.space import SpaceDesc, base_topology, refine, sem_eq

W1 = SpaceDesc(add(W, 1))
T1 = base_topology(W1)
EVENS = digit_mod(0, 2, 0)


def test_eval_examples():
    c = constant(Fraction(7, 2), W1)
    assert c.eval(from_int(3)) == Fraction(7, 2)
    chi = char_fn(EVENS, W1)
    assert chi.eval(from_int(7)) == 0
    f = make_stepfn([(2, ord_lt(W)), (5, ord_ge(W))], W1)
    assert f.eval(W) == 5


def test_partition_violation():
    with pytest.raises(PartitionViolation):
        make_stepfn([(1, ord_lt(W)), (0, ord_lt(W))], W1)
    with pytest.raises(PartitionViolation):
        make_stepfn([(1, ord_lt(W))], W1)


def test_oscillation_examples():
    f = char_fn(ord_lt(W), W1)
    assert oscillation(f, from_int(4), TRUE, T1) == 0
    assert oscillation(f, W, TRUE, T1) == 1
    assert oscillation(f, W, ord_ge(W), T1) == 0


def test_oscillation_monotone_and_bounded():
    rng = random.Random(999)
    from test_space import rand_pattern
    from ordrank.space import closure, member
    s = SpaceDesc(add(mul(W, 3), 2))
    t = base_topology(s)
    for _ in range(60):
        f = char_fn(rand_pattern(rng), s)
        F = closure(rand_pattern(rng), t)
        G = closure(or_(F, rand_pattern(rng)), t)
        for x in (W, mul(W, 2), add(W, 3), from_int(5)):
            if not member(F, x, t):
                continue
            of = oscillation(f, x, F, t)
            og = oscillation(f, x, G, t)
            assert of <= og
            assert of <= 2 * f.norm()


def test_arith_examples():
    f = char_fn(EVENS, W1)
    assert sem_eq(fn_add(f, constant(0, W1)).cell_of(Fraction(1)),
                  f.cell_of(Fraction(1)), W1)
    g = fn_add(f, char_fn(not_(EVENS), W1))
    assert g.values() == (Fraction(1),)
    h = fn_max_const(fn_add_const(f, Fraction(-1, 8)), 0)
    assert h.values() == (Fraction(0), Fraction(7, 8))


def test_clamp_examples():
    assert clamp_hk(constant(-1, W1), 0).values() == (Fraction(0),)
    assert clamp_hk(constant(Fraction(1, 2), W1), 0).values() == (Fraction(1, 2),)
    assert clamp_hk(constant(3, W1), 0).values() == (Fraction(1),)


def test_semi_borel_class_examples():
    assert usc_check(constant(5, W1), T1)
    assert semi_borel_class(constant(5, W1), T1) == 1
    chi_top = char_fn(ord_ge(W), W1)
    assert usc_check(chi_top, T1)
    chi_open = char_fn(ord_lt(W), W1)
    assert not usc_check(chi_open, T1)
    assert semi_borel_class(chi_open, T1) == 2


def test_usc_after_refinement():
    s = SpaceDesc(omega_power(2))
    t = base_topology(s)
    f = char_fn(digit_mod(1, 2, 0), s)  # block parity indicator
    assert not usc_check(f, t)
    from ordrank.space import difference_chain
    chain = difference_chain(f.cell_of(Fraction(0)), t)
    r = refine(t, [c for c in chain[1:] if c is not None], 2)
    assert usc_check(char_fn(digit_mod(1, 2, 1), s), r)


def test_fn_family_traces():
    fam = FnFamily(((Fraction(1), PDigitLtN(0, 0, 1)),
                    (Fraction(0), PDigitGeN(0, 0, 1))), W1)
    # f_n = chi{digit0 < n}: at x=5 switches to 1 at n=6
    tr = fam.value_trace(from_int(5))
    assert tr == ((0, Fraction(0)), (6, Fraction(1)))
    assert fam.final_value(from_int(5)) == 1
    assert fam.stabilization(from_int(5)) == 6
    lim = fam.pointwise_limit()
    assert lim.eval(from_int(9)) == 1
    assert lim.eval(W) == 1  # digit0(w) = 0, below every positive threshold
    # f_n = chi{x >= n}: every f_n is 1 at w and beyond, so the limit is too
    for space in (SpaceDesc(mul(W, 2)), SpaceDesc(None)):
        fam = FnFamily(((Fraction(1), POrdGeN(ZERO, from_int(1))),
                        (Fraction(0), POrdLtN(ZERO, from_int(1)))), space)
        assert fam.value_trace(W) == ((0, 1),)
        lim = fam.pointwise_limit()
        assert [lim.eval(x) for x in (from_int(3), W, add(W, 5))] == [0, 1, 1]
    # a far finite point: the switch index comes from the CNF terms directly
    fam = FnFamily(((Fraction(1), POrdGeN(ZERO, from_int(1))),
                    (Fraction(0), POrdLtN(ZERO, from_int(1)))),
                   SpaceDesc(add(mul(W, 2), 1)))
    assert fam.value_trace(from_int(3_000_000)) == ((0, 1), (3_000_001, 0))
    # f_n = chi{w^n divides x, x != 0}: the complemented divisibility atom
    # has a limit too, and every point leaves by n = its least exponent + 1
    for space in (SpaceDesc(add(mul(W, 8), 8)), SpaceDesc(None)):
        fam = FnFamily(((Fraction(1), PDivN(0, 1)),
                        (Fraction(0), not_(PDivN(0, 1)))), space)
        assert fam.value_trace(W) == ((0, 1), (2, 0))
        lim = fam.pointwise_limit()
        assert lim.pieces == ((Fraction(0), TRUE),)
        assert [lim.eval(x) for x in (ZERO, from_int(3), W, add(W, 5))] == [0] * 4


def test_fn_family_joins_repeated_values():
    # before, cell_pattern_of and eventual_pattern read only the first piece
    # with a value: gamma came out as 1, and pointwise_limit raised
    space = SpaceDesc(add(mul(W, 2), 1))
    low, rest = ord_lt(1), and_(PDigitLtN(0, 0, 1), ord_ge(1))
    zero = and_(ord_ge(1), PDigitGeN(0, 0, 1))
    split = FnFamily(((Fraction(1), low), (Fraction(1), rest), (Fraction(0), zero)), space)
    joined = FnFamily(((Fraction(1), or_(low, rest)), (Fraction(0), zero)), space)
    assert split == joined
    assert split.values() == (Fraction(0), Fraction(1))
    assert split.cell_pattern_of(Fraction(1)) == or_(low, rest)
    lim = split.pointwise_limit()
    assert lim.values() == (Fraction(1),)
    assert sem_eq(lim.cell_of(Fraction(1)), TRUE, space)
    t = base_topology(space)
    assert gamma_seq(split, t).value == gamma_seq(joined, t).value == from_int(2)
    assert fam_map_values(split, lambda v: Fraction(0)).pieces == (
        (Fraction(0), or_(zero, low, rest)),)


def _brute_max_mult(step, r):
    n = 0
    while compare(mul(step, n + 1), r) <= 0:
        n += 1
    return n


def test_max_mult_against_search():
    rng = random.Random(77)

    def rand_ord():
        return Ordinal(tuple((e, rng.randint(1, 5)) for e in range(2, -1, -1)
                             if rng.random() < 0.5))

    checked = 0
    for _ in range(600):
        step, r = rand_ord(), rand_ord()
        if step.is_zero:
            continue
        if (r.max_exp() or 0) > step.max_exp():
            with pytest.raises(UnsupportedProgression):
                _max_mult(step, r)
            continue
        assert _max_mult(step, r) == _brute_max_mult(step, r), (step, r)
        checked += 1
    assert checked >= 300


def test_union_from_param_against_window():
    """union_from_param at N agrees with the union over n in [N, N+64]."""
    rng = random.Random(4242)
    pts = [ZERO, from_int(4), from_int(9), W, add(W, 3), mul(W, 2),
           add(mul(W, 3), 1), add(mul(W, 7), 7)]
    cases = [(SpaceDesc(add(mul(W, 8), 8)), pts),
             (SpaceDesc(None), pts + [omega_power(2), add(omega_power(2), W)])]
    # a slope-0 increasing atom beside a decreasing one is not mixed
    fixed = [and_(PDigitGeN(0, 0, 1), PDigitLtN(1, 3, 0)),
             and_(PDigitGeN(0, 2, 1), PDigitLtN(0, 5, 1)),
             or_(and_(POrdGeN(W, from_int(1)), PDigitLtN(0, 2, 0)),
                 POrdLtN(from_int(3), W))]
    for space, xs in cases:
        pats = fixed + [_rand_param_pattern(rng) for _ in range(80)]
        checked = 0
        for k, p in enumerate(pats):
            try:
                u = union_from_param(p)
            except UnsupportedProgression:
                assert k >= len(fixed), p
                continue
            checked += 1
            at_n = [[holds_at(subst_n(p, n), x) for x in xs] for n in range(7 + 65)]
            for n_from in (0, 1, 3, 7):
                un = subst_n(u, n_from)
                for j, x in enumerate(xs):
                    brute = any(at_n[n][j] for n in range(n_from, n_from + 65))
                    assert holds_at(un, x) == brute, (p, n_from, x)
        assert checked >= 60


def _rand_param_atom(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return PDigitGeN(rng.randint(0, 1), rng.randint(0, 4), rng.randint(0, 2))
    if kind == 1:
        return PDigitLtN(rng.randint(0, 1), rng.randint(0, 4), rng.randint(0, 2))
    if kind == 4:
        return digit_mod(rng.randint(0, 1), rng.randint(2, 3), rng.randint(0, 1))
    base = add(mul(W, rng.randint(0, 3)), rng.randint(0, 3))
    slope = rng.choice([ZERO, from_int(1), from_int(2), W, add(W, 1)])
    return (POrdGeN if kind == 2 else POrdLtN)(base, slope)


def _rand_param_pattern(rng):
    """A depth-2 and/or of natural-parameter and digit-residue atoms."""
    outer, inner = (and_, or_) if rng.random() < 0.5 else (or_, and_)
    return outer(*(inner(*(_rand_param_atom(rng) for _ in range(rng.randint(1, 2))))
                   for _ in range(rng.randint(1, 3))))


def test_fn_family_limits_random():
    """Pointwise limit, per-point trace and a late member all agree."""
    rng = random.Random(2024)
    pts = [ZERO, from_int(4), W, add(W, 3), mul(W, 2), add(mul(W, 3), 1),
           add(mul(W, 7), 7)]
    cases = [(SpaceDesc(add(mul(W, 8), 8)), pts),
             (SpaceDesc(None), pts + [omega_power(2), add(omega_power(2), W)])]
    for space, xs in cases:
        for _ in range(60):
            p = _rand_param_pattern(rng)
            fam = FnFamily(((Fraction(1), p), (Fraction(0), not_(p))), space)
            lim, late = fam.pointwise_limit(), fam.at(64)
            for x in xs:
                assert lim.eval(x) == fam.final_value(x) == late.eval(x), (p, x)


def test_monotonize_and_diff_trivial():
    f = char_fn(EVENS, W1)
    pres = monotonize_and_diff([f, f, f], f)
    assert sup_dist(pres.partial(len(pres.terms)), f) == 0
    assert pres.terms[0].pieces == f.pieces
    assert all(g.norm() == 0 for g in pres.terms[1:])


def test_monotonize_and_diff_lenient():
    f = char_fn(EVENS, W1)
    f0 = fn_scale(f, Fraction(3, 4))
    pres = monotonize_and_diff([f0, f], f, strict=False)
    assert all(g.inf() >= 0 for g in pres.terms)
    assert pres.terms[1].norm() <= Fraction(1, 2)


def test_monotonize_and_diff_strict_rejects():
    f = char_fn(EVENS, W1)
    bad = fn_scale(f, Fraction(1, 2))
    with pytest.raises(CertificateViolation):
        monotonize_and_diff([bad, bad], f, strict=True)


def test_monotonize_and_diff_shifts_a_non_monotone_sequence():
    """f^1 < f^0 at every even: each f^k is shifted down by 2^-(k+3) and
    clipped at 0, which makes the sequence nondecreasing within the strict
    bounds; a drop larger than the shifts still raises."""
    f = char_fn(EVENS, W1)
    f0, f1 = fn_add_const(f, Fraction(1, 64)), fn_add_const(f, -Fraction(1, 128))
    assert fn_sub(f1, f0).inf() < 0
    pres = monotonize_and_diff([f0, f1], f)
    assert pres.terms[0].pieces == fn_max_const(fn_add_const(f0, -Fraction(1, 8)), 0).pieces
    assert all(g.inf() >= 0 for g in pres.terms)
    assert sup_dist(pres.partial(len(pres.terms)), f) <= Fraction(1, 8)
    with pytest.raises(CertificateViolation) as drop:
        monotonize_and_diff([f, fn_scale(f, Fraction(1, 4))], f, strict=False)
    assert drop.value.args == (0,)  # the shifted f^0 and f^1 are out of order


def test_uniform_presentation_bounds():
    f = char_fn(EVENS, W1)
    with pytest.raises(CertificateViolation):
        UniformPresentation(Fraction(0), (f, f))  # term 1 too large
    ok = UniformPresentation(Fraction(0), (f, fn_scale(f, Fraction(1, 2))),
                             truncated=True)
    assert ok.tail_bound == Fraction(1, 2)
    assert UniformPresentation(Fraction(0), (f,)).tail_bound == 0
