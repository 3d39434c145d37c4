"""Cantor-normal-form arithmetic, parity, classification, fundamental sequences."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordrank.errors import NotLimit
from ordrank.ordinal import (
    W, ZERO, Kind, Parity, add, classify, compare, even_floor,
    format_ordinal, from_int, fundamental_sequence, is_even, least_multiple_above,
    left_sub, mul, omega_power, parity, parse_ordinal, sup_mul_below, Ordinal,
)


def rand_ordinal(rng, max_exp=3, max_coeff=5):
    terms = []
    for e in range(max_exp, -1, -1):
        if rng.random() < 0.4:
            terms.append((e, rng.randint(1, max_coeff)))
    return Ordinal(tuple(terms))


@st.composite
def ordinals(draw, max_exp=3, max_coeff=5):
    terms = []
    for e in range(max_exp, -1, -1):
        if draw(st.booleans()):
            terms.append((e, draw(st.integers(1, max_coeff))))
    return Ordinal(tuple(terms))


def test_compare_examples():
    assert compare(ZERO, W) == -1
    two_w_1 = add(mul(W, 2), 1)
    assert compare(two_w_1, two_w_1) == 0
    assert compare(add(W, 5), omega_power(2)) == -1


def test_add_examples():
    assert add(1, W) == W
    assert add(W, 1) == Ordinal(((1, 1), (0, 1)))
    assert add(add(W, 4), add(W, 4)) == add(mul(W, 2), 4)


def test_public_arithmetic_coerces_ints():
    # compare and add take naturals as well as Ordinals, on either side
    assert compare(3, from_int(3)) == 0 and compare(from_int(3), 3) == 0
    assert compare(2, W) == -1 and compare(W, 2) == 1 and compare(0, 0) == 0
    assert add(2, 3) == from_int(5) and add(W, 0) == W and add(0, W) == W
    assert add(from_int(2), 3) == 5
    # equality with a natural in both directions; Ordinals compare by terms
    assert from_int(3) == 3 and 3 == from_int(3) and ZERO == 0
    assert from_int(3) != 4 and W != 1
    assert Ordinal(((1, 2),)) == mul(W, 2) and Ordinal(((1, 2),)) != W
    # another type is refused by the coercing entry points, and is simply
    # unequal under ==
    for bad in ("3", 3.0, None, (0, 3)):
        with pytest.raises(TypeError):
            compare(W, bad)
        with pytest.raises(TypeError):
            compare(bad, W)
        with pytest.raises(TypeError):
            add(bad, W)
        with pytest.raises(TypeError):
            add(W, bad)
        assert not (from_int(3) == bad) and from_int(3) != bad


def test_int_operand_matches_coerced_path(monkeypatch):
    # add(a, n) and mul(a, n) with an int n build no Ordinal for n; they
    # equal the path through from_int, refuse a negative n alike, and a
    # bool still goes through _coerce
    import ordrank.ordinal as ordmod
    rng = random.Random(2020)
    for _ in range(3_000):
        a = rand_ordinal(rng, max_exp=rng.randint(0, 4), max_coeff=rng.randint(1, 9))
        n = rng.randint(-3, 50)
        for op in (add, mul):
            if n < 0:
                with pytest.raises(ValueError) as got:
                    op(a, n)
                with pytest.raises(ValueError) as want:
                    op(a, from_int(n))
                assert got.value.args == want.value.args
                continue
            got, want = op(a, n), op(a, from_int(n))
            assert type(got) is Ordinal and got.terms == want.terms, (op, a, n)
            assert all(type(c) is int for _, c in got.terms)
        if n == 0:
            assert add(a, 0) is a and mul(a, 0) == ZERO
    calls = []
    real = ordmod._coerce
    monkeypatch.setattr(ordmod, "_coerce", lambda x: calls.append(x) or real(x))
    assert add(W, 3) == add(W, from_int(3)) and mul(W, 3) == mul(W, from_int(3))
    assert calls == []
    assert add(W, True) == add(W, 1) and mul(W, True) == W
    assert calls == [True, True]


def test_mul_absorbs_finite_offsets():
    # (lam_k + 4) * w == lam_k * w, here with lam_k = w and finite lam_k >= 1
    assert mul(add(W, 4), W) == omega_power(2)
    for lam_k in (from_int(2), from_int(6), W, mul(W, 3)):
        assert mul(add(lam_k, 4), W) == mul(lam_k, W)


def test_parity_examples():
    assert parity(ZERO) is Parity.EVEN
    assert parity(W) is Parity.EVEN
    assert parity(add(W, 3)) is Parity.ODD
    assert is_even(omega_power(2))


def test_classify_examples():
    assert classify(add(mul(W, 2), 1)) is Kind.SUCCESSOR
    assert classify(W) is Kind.LIMIT
    assert classify(ZERO) is Kind.ZERO


def test_fundamental_sequence_examples():
    assert fundamental_sequence(W, 3, even_only=True) == from_int(6)
    assert fundamental_sequence(omega_power(2), 2) == mul(W, 2)
    with pytest.raises(NotLimit):
        fundamental_sequence(add(W, 1), 0)


def test_fundamental_sequence_monotone_cofinal():
    rng = random.Random(7)
    for _ in range(200):
        a = rand_ordinal(rng)
        if classify(a) is not Kind.LIMIT:
            continue
        for even_only in (False, True):
            seq = [fundamental_sequence(a, n, even_only) for n in range(8)]
            for x, y in zip(seq, seq[1:]):
                assert compare(x, y) == -1
                assert compare(y, a) == -1
            if even_only:
                assert all(is_even(x) for x in seq)
        # cofinal: every b < a is passed eventually
        b = fundamental_sequence(a, 5)
        assert any(compare(b, fundamental_sequence(a, n)) == -1 for n in range(10))


def test_no_exponent_ceiling():
    assert omega_power(6).max_exp() == 6
    assert Ordinal(((7, 2),)) == omega_power(7, 2)
    assert mul(omega_power(4), omega_power(4)) == omega_power(8)


def test_left_sub_and_div():
    a = add(omega_power(2), add(mul(W, 3), 5))
    b = add(omega_power(2), W)
    assert add(b, left_sub(a, b)) == a
    assert left_sub(a, a) == ZERO
    with pytest.raises(ValueError):
        left_sub(W, add(W, 1))


def test_sup_mul_below_fundamental_samples():
    """sup of z*m over z < a against the fundamental sequences of a and of
    the sup: every sample lies below it, and every point below it is passed."""
    limits = [Ordinal(tuple((e, k) for e, k in ((2, a), (1, b)) if k))
              for a in range(4) for b in range(4) if a or b]
    for a in limits:
        for m in (1, 2, 3):
            s = sup_mul_below(a, m)
            below = [mul(fundamental_sequence(a, n), m) for n in range(12)]
            assert all(compare(z, s) < 0 for z in below), (a, m)
            for n in range(6):
                assert any(compare(z, fundamental_sequence(s, n)) >= 0
                           for z in below), (a, m, n)
    # for a single-term limit the sup lies below a*m once m >= 2
    assert sup_mul_below(W, 2) == W
    assert sup_mul_below(mul(W, 2), 2) == mul(W, 3)
    assert sup_mul_below(add(omega_power(2), W), 2) == mul(add(omega_power(2), W), 2)


def test_least_multiple_above_brute():
    # z*m is the m-fold sum z + ... + z, the multiplication family atoms use
    grid = [Ordinal(tuple((e, k) for e, k in ((2, a), (1, b), (0, c)) if k))
            for a in range(3) for b in range(4) for c in range(5)]
    for a in grid:
        for m in (1, 2, 3):
            z0 = least_multiple_above(a, m)
            assert compare(mul(z0, m), a) > 0
            for z in grid:
                assert (compare(mul(z, m), a) > 0) == (compare(z, z0) >= 0)
    assert least_multiple_above(mul(W, 5), 2) == mul(W, 3)
    assert least_multiple_above(add(mul(W, 4), 3), 2) == add(mul(W, 2), 4)


@settings(max_examples=300)
@given(ordinals(), ordinals(), ordinals())
def test_associativity(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_associativity_bulk_random():
    rng = random.Random(20240)
    for _ in range(10_000):
        a, b, c = (rand_ordinal(rng) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


@settings(max_examples=200)
@given(ordinals(), ordinals(), ordinals())
def test_left_monotone(a, b, c):
    if compare(a, b) == -1:
        assert compare(add(c, a), add(c, b)) == -1
    assert compare(add(a, b), a) >= 0


@settings(max_examples=200)
@given(ordinals())
def test_parity_flip(a):
    assert parity(add(a, 1)) is not parity(a)


@settings(max_examples=200)
@given(ordinals())
def test_even_floor(a):
    f = even_floor(a)
    assert is_even(f)
    assert compare(f, a) <= 0
    assert compare(a, add(f, 2)) == -1


@settings(max_examples=200)
@given(ordinals())
def test_parse_roundtrip(a):
    assert parse_ordinal(format_ordinal(a)) == a


def test_parse_variants():
    assert parse_ordinal("w") == W
    assert parse_ordinal("w^2") == omega_power(2)
    assert parse_ordinal("w^2*3 + w*1 + 4") == Ordinal(((2, 3), (1, 1), (0, 4)))
    assert parse_ordinal("0") == ZERO
    with pytest.raises(ValueError):
        parse_ordinal("q + 1")


def test_distributive_left():
    rng = random.Random(5)
    for _ in range(500):
        a, b, c = (rand_ordinal(rng) for _ in range(3))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


# The general paths of add, of a*n, of left_sub and of least_multiple_above
# on term tuples, as they run when no identity shortcut is taken.

def _general_add(a, b):
    """a + b for b != 0: a's terms above b's leading exponent, then b's
    terms, the leading coefficient raised by a's at that exponent."""
    e = b.terms[0][0]
    merged = list(b.terms)
    for ea, ca in a.terms:
        if ea == e:
            merged[0] = (e, ca + b.terms[0][1])
    return tuple(t for t in a.terms if t[0] > e) + tuple(merged)


def _general_times_nat(a, n):
    return () if n == 0 or not a.terms else ((a.terms[0][0], a.terms[0][1] * n),) + a.terms[1:]


def _general_left_sub(a, b):
    for j, (eb, cb) in enumerate(b.terms):
        ea, ca = a.terms[j]
        if ea > eb:
            return a.terms[j:]
        if ca > cb:
            return ((ea, ca - cb),) + a.terms[j + 1:]
    return a.terms[len(b.terms):]


def _general_least_multiple_above(a, m):
    if not a.terms:
        return ((0, 1),)
    (e, k), rest = a.terms[0], Ordinal(a.terms[1:])
    if k % m:
        return ((e, k // m + 1),)
    return add(add(omega_power(e, k // m), rest), 1).terms


def test_identities_return_the_operand():
    """0 + b, a + 0, a*1, a - 0 and the least z with z*1 > a: the operand
    itself (a + 1 for the last), equal by terms to the general path."""
    rng = random.Random(2801)
    pool = [rand_ordinal(rng) for _ in range(300)] + [ZERO, W, from_int(1)]
    for a in pool:
        for zero in (ZERO, 0):
            assert add(zero, a) is a and add(a, zero) is a and left_sub(a, zero) is a
        assert mul(a, 1) is a and mul(a, from_int(1)) is a
        succ = least_multiple_above(a, 1)
        assert succ is add(a, 1) and compare(succ, a) > 0
        if a.terms:
            assert _general_add(ZERO, a) == a.terms
        assert _general_times_nat(a, 1) == a.terms
        assert _general_left_sub(a, ZERO) == a.terms
        assert _general_least_multiple_above(a, 1) == succ.terms
        # the general paths agree with the functions away from the identities
        b = rand_ordinal(rng)
        if b.terms:
            assert _general_add(a, b) == add(a, b).terms
        n = rng.randint(0, 4)
        assert _general_times_nat(a, n) == mul(a, n).terms
        lo, hi = sorted((a, b), key=lambda x: x.terms)
        assert _general_left_sub(hi, lo) == left_sub(hi, lo).terms
        m = rng.randint(1, 4)
        assert _general_least_multiple_above(a, m) == least_multiple_above(a, m).terms
