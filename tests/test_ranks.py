"""Separation/oscillation/convergence ranks and their comparison laws."""
import random
from fractions import Fraction

import pytest

from ordrank.altsum import Certificate
from ordrank.derivative import (Budget, DerivativeOp, OscDeriv,
                                SeparationDeriv, iterate)
from ordrank.errors import InclusionViolation, VerificationError
from ordrank.family import explicit_family, tails_family
from ordrank.functions import (FnFamily, char_fn, clamp_hk, constant,
                               fam_add, fn_add, fn_scale, make_stepfn)
from ordrank.ordinal import W, ZERO, add, compare, from_int, mul, omega_power
from ordrank.patterns import (FALSE, PDigitGeN, PDigitLtN, TRUE, and_,
                              cells_pattern, digit_mod, ds_mod, min_digit_in,
                              not_, or_, ord_ge, ord_lt)
from ordrank.ranks import (NotStabilized, alpha_fn, alpha_pair,
                           alpha_xi_verify, beta, class_membership,
                           gamma_seq, is_pseudouniform)
from ordrank.space import SpaceDesc, base_topology, refine, sem_eq

W1 = SpaceDesc(add(W, 1))
T1 = base_topology(W1)
EVENS = digit_mod(0, 2, 0)
ODDS = digit_mod(0, 2, 1)


def test_alpha_pair_examples():
    assert alpha_pair(FALSE, TRUE, T1).ordinal == from_int(1)
    assert alpha_pair(ord_lt(W), ord_ge(W), T1).ordinal == from_int(2)
    s = SpaceDesc(add(omega_power(2), 1))
    t = base_topology(s)
    A = min_digit_in(ds_mod(2, 0))
    B = or_(ord_lt(1), min_digit_in(ds_mod(2, 1)))
    assert alpha_pair(A, B, t).ordinal == from_int(3)


def test_alpha_fn_examples():
    assert alpha_fn(constant(5, W1), T1).ordinal == from_int(1)
    assert alpha_fn(char_fn(ord_lt(W), W1), T1).ordinal == from_int(2)
    s = SpaceDesc(add(omega_power(2), 1))
    t = base_topology(s)
    f = char_fn(min_digit_in(ds_mod(2, 0)), s)
    rep = alpha_fn(f, t)
    assert rep.ordinal == from_int(3)
    assert rep.witness_param == (Fraction(0), Fraction(1))


def test_beta_examples():
    assert beta(constant(2, W1), T1).ordinal == from_int(1)
    assert beta(char_fn(ord_lt(W), W1), T1).ordinal == from_int(2)
    s = SpaceDesc(add(omega_power(2), 1))
    t = base_topology(s)
    f3 = make_stepfn([
        (Fraction(0), min_digit_in(ds_mod(2, 1))),
        (Fraction(1), min_digit_in(ds_mod(2, 0))),
        (Fraction(3), ord_lt(1)),
    ], s)
    assert beta(f3, t).ordinal == alpha_fn(f3, t).ordinal


def test_gamma_examples():
    const_fam = FnFamily(((Fraction(1), TRUE),), W1)
    assert gamma_seq(const_fam, T1).ordinal == from_int(1)
    tails = FnFamily(((Fraction(1), ord_ge_n()), (Fraction(0), ord_lt_n())), W1)
    rep = gamma_seq(tails, T1)
    assert rep.ordinal == from_int(2)
    assert is_pseudouniform(rep)


def ord_ge_n():
    from ordrank.patterns import POrdGeN
    return POrdGeN(ZERO, from_int(1))


def ord_lt_n():
    from ordrank.patterns import POrdLtN
    return POrdLtN(ZERO, from_int(1))


def test_alpha_equals_beta_for_char():
    # stagewise equality of the two derivative operators, every relevant eps
    rng = random.Random(808)
    from test_space import rand_pattern
    spaces = [SpaceDesc(add(W, 1)), SpaceDesc(add(mul(W, 3), 2)),
              SpaceDesc(omega_power(2)), SpaceDesc(omega_power(3))]
    for i in range(50):
        s = spaces[i % len(spaces)]
        t = base_topology(s)
        A = rand_pattern(rng, max_digit=2)
        chi = char_fn(A, s)
        sep = iterate(DerivativeOp(SeparationDeriv(A, not_(A)), t), TRUE,
                      Budget(40, 2))
        for eps in (Fraction(1, 2), Fraction(1)):
            osc = iterate(DerivativeOp(OscDeriv(chi, eps), t), TRUE,
                          Budget(40, 2))
            assert osc.rank == sep.rank
            for st, cells in sep.events:
                assert sem_eq(cells_pattern(cells, s.bound), osc.stage_at(st), s)


def test_gamma_additive():
    # pointwise sums of pseudouniform sequences stay pseudouniform; pairs move
    # on a shared digit with a shared slope, or one side is eventually constant
    rng = random.Random(11)
    s = SpaceDesc(omega_power(2))
    t = base_topology(s)
    for i in range(12):
        slope = rng.randint(1, 2)
        f1 = _window_fam(s, 0, rng.randint(0, 3), slope)
        if i % 3 == 0:
            f2 = FnFamily(((Fraction(rng.randint(1, 2)), EVENS),
                           (Fraction(0), ODDS)), s)
        else:
            f2 = _window_fam(s, 0, rng.randint(0, 3), slope)
        r1, r2 = gamma_seq(f1, t), gamma_seq(f2, t)
        assert is_pseudouniform(r1) and is_pseudouniform(r2)
        rsum = gamma_seq(fam_add(f1, f2), t)
        assert is_pseudouniform(rsum)


def _window_fam(space, digit, base, slope):
    return FnFamily(((Fraction(1), PDigitLtN(digit, base, slope)),
                     (Fraction(0), PDigitGeN(digit, base, slope))), space)


def test_beta_composition_bound():
    # beta(g o f) <= beta(f) for the clamp and affine postcompositions
    rng = random.Random(5)
    from test_space import rand_pattern
    s = SpaceDesc(add(mul(W, 4), 2))
    t = base_topology(s)
    for i in range(100):
        A = rand_pattern(rng)
        f = fn_add(fn_scale(char_fn(A, s), rng.randint(1, 3)),
                   constant(Fraction(rng.randint(-2, 2), 2), s))
        bf = beta(f, t).ordinal
        g1 = clamp_hk(f, rng.randint(0, 2))
        assert compare(beta(g1, t).ordinal, bf) <= 0
        g2 = fn_add(fn_scale(f, Fraction(rng.randint(1, 4), 3)), constant(1, s))
        assert compare(beta(g2, t).ordinal, bf) <= 0


def test_alpha_xi_verify_examples():
    cert = alpha_xi_verify(TRUE, FALSE, explicit_family([TRUE, FALSE]), 1, T1)
    assert cert.kind == "alpha_xi"

    sw = SpaceDesc(W)
    tw = base_topology(sw)
    cert = alpha_xi_verify(EVENS, ODDS, tails_family(W), 1, tw)
    assert cert.lam == 1

    broken = explicit_family([TRUE, FALSE, FALSE, FALSE])  # realizes X only
    with pytest.raises(InclusionViolation):
        alpha_xi_verify(EVENS, ODDS, broken, 1, tw)


def test_alpha_xi_violation_names_a_point_at_w6():
    # the even differences of (X, X, 0) are empty, so A is not covered; its
    # least point is w^6, which an exponent ceiling of 6 could not name
    A = digit_mod(6, 2, 1)
    t = base_topology(SpaceDesc(None))
    with pytest.raises(InclusionViolation) as err:
        alpha_xi_verify(A, not_(A), explicit_family([TRUE, TRUE, FALSE]), 1, t)
    assert err.value.args == ("A not covered", omega_power(6))


def test_class_membership_routes():
    sw = SpaceDesc(W)
    tw = base_topology(sw)
    cert = class_membership(constant(1, sw), 1, 1, [], tw)
    assert cert.kind == "class_membership"

    s1 = SpaceDesc(add(W, 1))
    t1 = base_topology(s1)
    f = char_fn(and_(EVENS, ord_lt(W)), s1)
    odds_top = or_(and_(ODDS, ord_lt(W)), ord_ge(W))
    wit = explicit_family([TRUE, odds_top, FALSE, FALSE])
    cert = class_membership(f, 1, 1, [wit], t1)
    assert any("alpha" in c for c in cert.claims)

    # xi = 2 via refinement: block-parity indicator on [0, w^2)
    s2 = SpaceDesc(omega_power(2))
    t2 = base_topology(s2)
    blocky = char_fn(digit_mod(1, 2, 1), s2)
    from ordrank.space import difference_chain
    chain = difference_chain(blocky.cell_of(Fraction(1)), t2)
    r = refine(t2, chain[1:3], 2)
    wit2 = explicit_family([TRUE, not_(blocky.cell_of(Fraction(1))), FALSE, FALSE])
    cert2 = class_membership(blocky, 1, 2, [wit2], t2, refined=r)
    assert "refined" in cert2.claims[-1]


def test_polish_failure_scaled():
    # dense/codense pairs realize the space rank exactly, and the limit rank
    # appears only on the unbounded-rank space
    A = min_digit_in(ds_mod(2, 0))
    B = or_(ord_lt(1), min_digit_in(ds_mod(2, 1)))
    cases = [
        (SpaceDesc(from_int(12)), from_int(1)),
        (SpaceDesc(add(mul(W, 8), 8)), from_int(2)),
        (SpaceDesc(add(omega_power(2), 1)), from_int(3)),
        (SpaceDesc(None), W),
    ]
    for space, expected in cases:
        t = base_topology(space)
        f = char_fn(A, space)
        rep = alpha_fn(f, t, Budget(60, 4))
        assert rep.ordinal == expected, space
    # compact spaces yield successor ranks
    for space, expected in cases[:3]:
        assert expected.is_finite


def test_polish_failure_perturbations():
    space = SpaceDesc(None)
    t = base_topology(space)
    A = min_digit_in(ds_mod(2, 0))
    f = char_fn(A, space)
    rng = random.Random(4)
    count = 0
    for j in range(20):
        d = rng.randint(0, 3)
        v = rng.randint(0, 5)
        bump = and_(digit_mod(d, 6, v), ord_lt(omega_power(4)))
        delta = fn_scale(char_fn(bump, space), Fraction(1, 3))
        g = fn_add(f, delta if j % 2 == 0 else fn_scale(delta, -1))
        rep = alpha_fn(g, t, Budget(80, 4))
        assert compare(rep.ordinal, W) >= 0
        count += 1
    assert count == 20


def test_compact_char_ranks_are_successors():
    # on compact spaces the separation rank of an indicator never lands on
    # a limit ordinal; the half-open spaces are where limits appear
    rng = random.Random(606)
    from test_space import rand_pattern
    from ordrank.ordinal import Kind, classify
    for space in (SpaceDesc(add(W, 1)), SpaceDesc(add(mul(W, 4), 3)),
                  SpaceDesc(add(omega_power(2), 1))):
        assert space.is_compact
        t = base_topology(space)
        for _ in range(8):
            f = char_fn(rand_pattern(rng), space)
            rep = alpha_fn(f, t)
            assert classify(rep.ordinal) in (Kind.SUCCESSOR, Kind.ZERO) or \
                rep.ordinal == from_int(1)
            assert classify(rep.ordinal) is not Kind.LIMIT


def test_phi_with_refinement_route():
    # running the generation pipeline in a refined topology yields the same
    # certificate claims as the plain run when the refinement is irrelevant
    from ordrank.family import tails_family
    from ordrank.pseudouniform import phi_generate
    s2 = SpaceDesc(omega_power(2))
    t2 = base_topology(s2)
    plain = phi_generate(EVENS, tails_family(omega_power(2)), 1, t2,
                         k_count=3, m_max=2)
    r = refine(t2, [or_(and_(ODDS, ord_lt(W)), ord_ge(W))], 2)
    refined = phi_generate(EVENS, tails_family(omega_power(2)), 1, t2,
                           k_count=3, m_max=2, refinement=r)
    assert refined.refinement is r
    assert plain.certificate.claims == refined.certificate.claims


def test_rank_comparability_alpha_vs_witness():
    sw = SpaceDesc(W)
    tw = base_topology(sw)
    fam = tails_family(W)
    cert = alpha_xi_verify(EVENS, ODDS, fam, 1, tw)
    rep = alpha_pair(EVENS, ODDS, tw)
    assert compare(rep.ordinal, fam.length) <= 0
