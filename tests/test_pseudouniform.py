"""Window-set generation, local witnesses, and the pseudouniform pipeline."""
from fractions import Fraction

import pytest

from ordrank.altsum import exit_parity_eval
from ordrank.derivative import Budget
from ordrank import pseudouniform
from ordrank.errors import InclusionViolation, UnsupportedProgression, WitnessMismatch
from ordrank.family import even_diff_union, explicit_family, tails_family
from ordrank.functions import (UniformPresentation, char_fn, constant,
                               fn_scale, make_stepfn)
from ordrank.ordinal import W, ZERO, add, compare, from_int, mul, omega_power
from ordrank.patterns import (FALSE, TRUE, and_, digit_eq, digit_mod, not_,
                              or_, ord_ge, ord_lt)
from ordrank.pseudouniform import (PhiWitness, build_Bk, build_P_eta,
                                   certify_pseudouniform, phi_generate,
                                   phi_step_combination, phi_sum_stage,
                                   remainder_lt, window_indicator_family)
from ordrank.ranks import gamma_seq, is_pseudouniform
from ordrank.space import SpaceDesc, base_topology, member, sem_eq

S2 = SpaceDesc(omega_power(2))
T2 = base_topology(S2)
EVENS = digit_mod(0, 2, 0)


def test_remainder_lt():
    # below w^1: the part under w is digit0
    p = remainder_lt(1, from_int(4))
    assert member(p, add(mul(W, 3), 2), T2)
    assert not member(p, add(W, 5), T2)
    # below w^2 with bound w*2: digit1 <= 1
    s3 = SpaceDesc(omega_power(3))
    t3 = base_topology(s3)
    q = remainder_lt(2, mul(W, 2))
    assert member(q, add(omega_power(2), add(W, 7)), t3)
    assert not member(q, add(omega_power(2), mul(W, 2)), t3)
    assert sem_eq(remainder_lt(1, W), TRUE, S2)


def test_build_Bk_examples():
    fam = tails_family(omega_power(2))
    bks = build_Bk(fam, 1, [from_int(2), from_int(4)])
    # B_1 = first even difference of each block = {w*n}
    assert sem_eq(bks[0], and_(EVENS, digit_eq(0, 0)), S2) or \
        sem_eq(bks[0], digit_eq(0, 0), S2)
    assert member(bks[0], mul(W, 3), T2)
    assert not member(bks[0], add(mul(W, 3), 2), T2)
    # lam_k = 4 adds offset 2
    assert member(bks[1], add(mul(W, 3), 2), T2)
    assert not member(bks[1], add(mul(W, 3), 4), T2)
    # full window degenerates to the whole union
    full = build_Bk(fam, 1, [W])[0]
    assert sem_eq(full, even_diff_union(fam), S2)


def test_build_P_eta_finite():
    fam = tails_family(omega_power(2))
    p = build_P_eta(fam, 1, 0, from_int(2), T2)
    assert p.length == from_int(6)
    u = even_diff_union(p)
    assert sem_eq(u, and_(ord_lt(from_int(2)), EVENS), S2)
    p4 = build_P_eta(fam, 1, 0, from_int(4), T2)
    u4 = even_diff_union(p4)
    assert sem_eq(u4, and_(ord_lt(from_int(4)), EVENS), S2)
    # block m = 1
    pm = build_P_eta(fam, 1, 1, from_int(4), T2)
    um = even_diff_union(pm)
    assert member(um, add(W, 2), T2)
    assert not member(um, from_int(2), T2)


def test_build_P_eta_reports_only_package_errors(monkeypatch):
    # a failed verification is a mismatch; any other exception is a bug
    # and propagates unchanged
    fam = tails_family(omega_power(2))

    def raising(exc):
        def verify(*args):
            raise exc
        return verify

    monkeypatch.setattr(pseudouniform, "alpha_xi_verify",
                        raising(InclusionViolation("A not covered", None)))
    with pytest.raises(WitnessMismatch):
        build_P_eta(fam, 1, 0, from_int(2), T2)
    monkeypatch.setattr(pseudouniform, "alpha_xi_verify", raising(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        build_P_eta(fam, 1, 0, from_int(2), T2)


def test_build_P_eta_table_branch():
    s3 = SpaceDesc(omega_power(3))
    t3 = base_topology(s3)
    fam = tails_family(omega_power(3))
    p = build_P_eta(fam, 2, 0, W, t3)
    assert p.length == add(W, 4)
    u = even_diff_union(p)
    assert sem_eq(u, and_(ord_lt(W), EVENS), s3)
    # verify the shift absorbs at the limit: P_w = F_w
    assert sem_eq(p.at(W), ord_ge(W), s3)


def test_certify_pseudouniform():
    fam = window_indicator_family(1, ("finite", 2, 2), S2)
    rep, cert = certify_pseudouniform(fam, T2, tails_family(omega_power(2)), 1)
    assert is_pseudouniform(rep)
    assert any("D^n" in c for c in cert.claims)
    assert any("D^w" in c for c in cert.claims)


def test_phi_generate_lambda1():
    fam = tails_family(omega_power(2))
    wit = phi_generate(EVENS, fam, 1, T2)
    assert wit.certificate.kind == "phi_generate"
    assert is_pseudouniform(wit.gamma_report)
    # pointwise convergence at sampled points
    for x in (from_int(4), add(W, 3), mul(W, 2), add(mul(W, 5), 6)):
        trace = wit.sequence.value_trace(x)
        assert trace[-1][1] == wit.target.eval(x)
    # per-term bounds recorded with beta <= (lam_k + 4) * w
    for k, val, bnd in wit.per_term_beta:
        assert compare(val, bnd) <= 0
        assert compare(val, omega_power(2)) <= 0


def test_phi_generate_degenerate_empty():
    fam = explicit_family([TRUE, TRUE, FALSE, FALSE])
    s1 = SpaceDesc(add(W, 1))
    t1 = base_topology(s1)
    # the family's even differences are empty, so every window is empty
    bks = build_Bk(fam, 1, [from_int(2)])
    from ordrank.space import is_empty
    assert is_empty(bks[0], s1)


def test_phi_generate_lambda2():
    s3 = SpaceDesc(omega_power(3))
    t3 = base_topology(s3)
    fam = tails_family(omega_power(3))
    wit = phi_generate(EVENS, fam, 2, t3, k_count=3, m_max=2)
    assert is_pseudouniform(wit.gamma_report)
    for x in (from_int(2), add(omega_power(2), add(W, 4))):
        assert wit.sequence.value_trace(x)[-1][1] == wit.target.eval(x)


def test_phi_generate_rejects_wrong_target():
    fam = tails_family(omega_power(2))
    with pytest.raises(WitnessMismatch):
        phi_generate(digit_mod(0, 2, 1), fam, 1, T2)


def test_phi_step_combination():
    fam = tails_family(omega_power(2))
    w1 = phi_generate(EVENS, fam, 1, T2, k_count=3, m_max=2)
    # complement indicator: the odd differences, generated from the shifted family
    odds = digit_mod(0, 2, 1)
    target = make_stepfn([(2, EVENS), (1, odds)], S2)
    w2 = _complement_witness(w1, odds)
    wit = phi_step_combination(target, [w2, w1], T2)
    assert is_pseudouniform(wit.gamma_report)
    for x in (from_int(3), from_int(4), add(W, 1)):
        assert wit.sequence.value_trace(x)[-1][1] == target.eval(x)


def _complement_witness(wit, odds):
    from ordrank.functions import FnFamily, fam_map_values
    flipped = fam_map_values(wit.sequence, lambda v: 1 - v)
    return PhiWitness(char_fn(odds, S2), flipped, (), wit.gamma_report,
                      wit.certificate)


def test_phi_sum_stage():
    fam = tails_family(omega_power(2))
    w_even = phi_generate(EVENS, fam, 1, T2, k_count=3, m_max=2)
    g0 = char_fn(EVENS, S2)
    g1 = fn_scale(g0, Fraction(1, 2))
    g2 = fn_scale(g0, Fraction(1, 4))
    pres = UniformPresentation(Fraction(0), (g0, g1, g2))
    scaled = [_scaled_witness(w_even, Fraction(1, 2 ** k)) for k in range(3)]
    wit = phi_sum_stage(pres, scaled, T2)
    assert is_pseudouniform(wit.gamma_report)
    assert "tail estimate" in " ".join(wit.certificate.claims)


def _scaled_witness(wit, c):
    from ordrank.functions import fam_map_values
    fam = fam_map_values(wit.sequence, lambda v: v * c)
    return PhiWitness(fn_scale(wit.target, c), fam, (), wit.gamma_report,
                      wit.certificate)


def test_phi_step_and_sum_dispatch():
    from ordrank.pseudouniform import phi_step_and_sum
    fam = tails_family(omega_power(2))
    w1 = phi_generate(EVENS, fam, 1, T2, k_count=3, m_max=2)
    odds = digit_mod(0, 2, 1)
    target = make_stepfn([(2, EVENS), (1, odds)], S2)
    wit = phi_step_and_sum(target, [_complement_witness(w1, odds), w1], T2)
    assert wit.certificate.kind == "phi_step"
    g0 = char_fn(EVENS, S2)
    pres = UniformPresentation(Fraction(0), (g0, fn_scale(g0, Fraction(1, 2))))
    scaled = [_scaled_witness(w1, Fraction(1, 2 ** k)) for k in range(2)]
    wit2 = phi_step_and_sum(pres, scaled, T2)
    assert wit2.certificate.kind == "phi_sum"
