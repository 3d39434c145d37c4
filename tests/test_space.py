"""Pattern algebra, closure, Cantor-Bendixson, Borel classes, refinements, oracle."""
import random

import pytest

from ordrank import oracle as orc
from ordrank import ordinal as o
from ordrank import space as sp
from ordrank.errors import ClassViolation, NotOracleSpace
from ordrank.ordinal import W, ZERO, add, from_int, mul, omega_power
from ordrank.patterns import (
    FALSE, TRUE, and_, digit_eq, digit_ge, digit_mod, divpow, ds_mod,
    min_digit_in, not_, or_, ord_ge, ord_lt, to_cells,
)
from ordrank.space import (
    BorelClass, SpaceDesc, Topology, base_topology, borel_class,
    cb_derivative, closure, difference_chain, is_closed, is_empty, is_open,
    member, refine, sample_points, sem_eq, subset,
)

W1 = SpaceDesc(add(W, 1))          # [0, w+1)
W2P1 = SpaceDesc(add(omega_power(2), 1))  # [0, w^2+1)
EVENS = digit_mod(0, 2, 0)


def rand_pattern(rng, max_depth=3, max_digit=1, space=None):
    def atom():
        kind = rng.randrange(5)
        i = rng.randint(0, max_digit)
        if kind == 0:
            return digit_eq(i, rng.randint(0, 3))
        if kind == 1:
            return digit_ge(i, rng.randint(1, 4))
        if kind == 2:
            return digit_mod(i, rng.randint(2, 4), rng.randint(0, 3))
        b = add(mul(W, rng.randint(0, 4)), rng.randint(0, 5))
        return ord_ge(b) if kind == 3 else (ord_lt(b) if not b.is_zero else TRUE)

    def build(d):
        if d == 0:
            return atom()
        k = rng.randrange(4)
        if k == 0:
            return atom()
        if k == 1:
            return and_(build(d - 1), build(d - 1))
        if k == 2:
            return or_(build(d - 1), build(d - 1))
        return not_(build(d - 1))

    return build(max_depth)


def rich_pattern(rng, max_digit=2):
    """rand_pattern mixed with divisibility and least-digit atoms."""
    base = rand_pattern(rng, max_digit=max_digit)
    extras = []
    if rng.random() < 0.4:
        extras.append(divpow(rng.randint(1, 2)))
    if rng.random() < 0.4:
        extras.append(min_digit_in(ds_mod(rng.randint(2, 3), rng.randint(0, 2))))
    mix = rng.randrange(3)
    if mix == 0 or not extras:
        return base
    if mix == 1:
        return or_(base, *extras)
    return and_(base, *extras) if rng.random() < 0.5 else or_(and_(base, extras[0]), base)


def test_member_examples():
    t = base_topology(W1)
    assert member(digit_mod(0, 2, 0), from_int(4), t)
    assert not member(ord_ge(W), from_int(3), t)
    t2 = base_topology(SpaceDesc(omega_power(2)))
    assert member(and_(digit_eq(1, 2), digit_eq(0, 0)), mul(W, 2), t2)


def test_closure_examples():
    t = base_topology(W1)
    assert is_empty(closure(FALSE, t), W1)
    fin_evens = and_(EVENS, ord_lt(W))
    cl = closure(fin_evens, t)
    assert sem_eq(cl, or_(fin_evens, ord_ge(W)), W1)

    t2 = base_topology(W2P1)
    s = and_(digit_eq(0, 1), ord_lt(omega_power(2)))
    cl2 = closure(s, t2)
    assert member(cl2, add(mul(W, 3), 1), t2)
    assert not member(cl2, mul(W, 4), t2)
    assert member(cl2, omega_power(2), t2)
    expected = or_(s, ord_ge(omega_power(2)))
    assert sem_eq(cl2, expected, W2P1)


def test_cb_derivative_examples():
    t2 = base_topology(W2P1)
    d1 = cb_derivative(TRUE, t2)
    assert sem_eq(d1, or_(and_(divpow(1), ord_lt(omega_power(2))),
                          ord_ge(omega_power(2))), W2P1)
    fin = or_(*(sp.canonicalize(and_(ord_ge(i), ord_lt(i + 1)), W2P1.space if False else W2P1)
                for i in ()))  # placeholder no-op
    finite_set = or_(and_(ord_ge(3), ord_lt(4)), and_(ord_ge(7), ord_lt(8)))
    assert is_empty(cb_derivative(finite_set, t2), W2P1)
    t1 = base_topology(W1)
    assert is_empty(cb_derivative(ord_ge(W), t1), W1)


def test_set_ops_examples():
    t = base_topology(W1)
    assert is_empty(and_(digit_eq(0, 1), digit_mod(0, 2, 0)), W1)
    assert is_empty(and_(TRUE, not_(TRUE)), W1)
    assert is_empty(and_(ord_ge(W), ord_lt(W)), W1)


def test_borel_class_examples():
    t = base_topology(W1)
    assert borel_class(and_(EVENS, ord_lt(W)), t) is BorelClass.OPEN
    assert borel_class(TRUE, t) is BorelClass.CLOPEN
    assert borel_class(ord_ge(W), t) is BorelClass.CLOSED


def test_borel_delta2():
    s2 = SpaceDesc(omega_power(2))
    t = base_topology(s2)
    # digit0-evens contain every limit, hence closed here
    assert borel_class(EVENS, t) is BorelClass.CLOSED
    assert borel_class(ord_lt(W), t) is BorelClass.OPEN
    # block parity: neither open nor closed, finite difference chain exists
    blocky = digit_mod(1, 2, 1)
    assert borel_class(blocky, t) is BorelClass.DELTA2
    # dense/codense by least-nonzero-coefficient parity on the ceiling space:
    # still Delta2, but the chain reaches the empty set only at stage w
    tc = base_topology(SpaceDesc(None))
    assert borel_class(min_digit_in(ds_mod(2, 0)), tc) is BorelClass.DELTA2
    assert difference_chain(min_digit_in(ds_mod(2, 0)), tc) is None


def test_refine_examples():
    s2 = SpaceDesc(omega_power(2))
    t = base_topology(s2)
    assert refine(t, [], 2) == t
    r = refine(t, [ord_lt(W)], 2)
    fin_evens = and_(EVENS, ord_lt(W))
    assert not is_closed(fin_evens, t)
    assert is_closed(fin_evens, r)
    assert borel_class(ord_lt(W), r) is BorelClass.CLOPEN
    # boolean combinations of declared sets become clopen too
    r2 = refine(r, [ord_lt(mul(W, 3))], 2)
    for combo in (and_(ord_lt(mul(W, 3)), not_(ord_lt(W))),
                  or_(ord_lt(W), not_(ord_lt(mul(W, 3))))):
        assert borel_class(combo, r2) is BorelClass.CLOPEN
    # every set is Delta2: a transfinite difference chain is accepted at xi = 2
    parity = min_digit_in(ds_mod(2, 0))
    rc = refine(base_topology(SpaceDesc(None)), [parity], 2)
    assert borel_class(parity, rc) is BorelClass.CLOPEN
    with pytest.raises(ClassViolation):
        refine(t, [ord_lt(W)], 1)  # not clopen in the base


def test_refine_preserves_base_opens():
    s2 = SpaceDesc(omega_power(2))
    t = base_topology(s2)
    r = refine(t, [ord_lt(mul(W, 2))], 2)
    for p in (ord_lt(W), ord_lt(add(W, 5)), and_(EVENS, ord_lt(W))):
        if is_open(p, t):
            assert is_open(p, r)


def test_compactness_predicate():
    assert SpaceDesc(add(W, 1)).is_compact
    assert not SpaceDesc(W).is_compact
    assert not SpaceDesc(None).is_compact
    # decreasing closed chain in a compact space has nonempty intersection
    t = base_topology(W1)
    chain = [ord_ge(from_int(n)) for n in range(6)]
    inter = and_(*chain)
    assert all(is_closed(c, t) for c in chain)
    assert not is_empty(inter, W1)


def test_closure_algebra_properties():
    rng = random.Random(991)
    s = SpaceDesc(add(mul(W, 3), 4))
    t = base_topology(s)
    for _ in range(250):
        a = rand_pattern(rng)
        b = rand_pattern(rng)
        ca = closure(a, t)
        assert subset(a, ca, s)                      # extensive
        assert sem_eq(closure(ca, t), ca, s)         # idempotent
        if subset(a, b, s):
            assert subset(ca, closure(b, t), s)      # monotone
        assert sem_eq(closure(or_(a, b), t),
                      or_(ca, closure(b, t)), s)     # additive


def test_oracle_equivalence_closure_cb():
    rng = random.Random(4242)
    for bound in (add(mul(W, 2), 3), add(mul(W, 8), 8), add(W, 1), from_int(9)):
        s = SpaceDesc(bound)
        t = base_topology(s)
        for _ in range(250):
            p = rand_pattern(rng)
            os_ = orc.from_pattern(p, s)
            cl_sym = orc.from_pattern(closure(p, t), s)
            cl_orc = orc.oracle_closure(os_)
            assert orc.o_eq(cl_sym, cl_orc), (p,)
            closed = sp.canonicalize(closure(p, t), s)
            cb_sym = orc.from_pattern(cb_derivative(closed, t), s)
            cb_orc = orc.oracle_cb(orc.from_pattern(closed, s))
            assert orc.o_eq(cb_sym, cb_orc), (p,)


def test_oracle_equivalence_closure_cb_rich():
    # rand_pattern never draws divisibility or least-digit atoms
    rng = random.Random(4343)
    for bound in (add(mul(W, 2), 3), add(mul(W, 8), 8), add(W, 1), from_int(9)):
        s = SpaceDesc(bound)
        t = base_topology(s)
        for _ in range(120):
            p = rich_pattern(rng, max_digit=1)
            cl_sym = orc.from_pattern(closure(p, t), s)
            assert orc.o_eq(cl_sym, orc.oracle_closure(orc.from_pattern(p, s))), (p,)
            closed = closure(p, t)
            cb_sym = orc.from_pattern(cb_derivative(closed, t), s)
            cb_orc = orc.oracle_cb(orc.from_pattern(closed, s))
            assert orc.o_eq(cb_sym, cb_orc), (p,)


def test_oracle_roundtrip():
    rng = random.Random(77)
    s = SpaceDesc(add(mul(W, 3), 2))
    for _ in range(200):
        p = rand_pattern(rng)
        os_ = orc.from_pattern(p, s)
        back = orc.from_pattern(orc.to_pattern(os_), s)
        assert orc.o_eq(os_, back)
    with pytest.raises(NotOracleSpace):
        orc.oracle_shape(SpaceDesc(omega_power(2)))


def test_ceiling_space():
    s = SpaceDesc(None)
    t = base_topology(s)
    d = cb_derivative(TRUE, t)
    assert sem_eq(d, divpow(1), s)
    d2 = cb_derivative(d, t)
    assert sem_eq(d2, divpow(2), s)
    assert member(divpow(3), omega_power(4), t)
    assert not is_empty(divpow(5), s)
