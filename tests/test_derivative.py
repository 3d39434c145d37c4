"""Derivative operators, transfinite iteration, template limit jumps."""
import random
from fractions import Fraction

import pytest

from ordrank import oracle as orc
from ordrank.derivative import (Budget, CantorBendixson, ConvDeriv,
                                DerivativeOp, OscDeriv, SeparationDeriv,
                                apply, iterate)
from ordrank.functions import FnFamily, char_fn
from ordrank.ordinal import W, ZERO, add, from_int, mul, omega_power
from ordrank.patterns import (FALSE, POrdGeN, POrdLtN, TRUE, and_, cells_pattern,
                              digit_mod, ds_mod, min_digit_in, not_, or_, ord_ge,
                              ord_lt)
from ordrank.space import (SpaceDesc, base_topology, is_empty, member,
                           sem_eq, subset)

W1 = SpaceDesc(add(W, 1))
T1 = base_topology(W1)


def test_apply_separation_examples():
    op = DerivativeOp(SeparationDeriv(ord_lt(W), FALSE), T1)
    assert is_empty(apply(op, TRUE), W1)
    op = DerivativeOp(SeparationDeriv(ord_lt(W), ord_ge(W)), T1)
    assert sem_eq(apply(op, TRUE), ord_ge(W), W1)


def test_apply_osc_example():
    f = char_fn(ord_lt(W), W1)
    op = DerivativeOp(OscDeriv(f, Fraction(1, 2)), T1)
    assert sem_eq(apply(op, TRUE), ord_ge(W), W1)


def test_iterate_cb_examples():
    tr = iterate(DerivativeOp(CantorBendixson(), T1), TRUE)
    assert tr.rank == from_int(2)
    assert [s for s, _ in tr.events] == [ZERO, from_int(1), from_int(2)]

    evens = and_(digit_mod(0, 2, 0), ord_lt(W))
    odds = and_(digit_mod(0, 2, 1), ord_lt(W))
    tr = iterate(DerivativeOp(SeparationDeriv(evens, odds), T1), TRUE)
    assert tr.rank == from_int(2)
    assert sem_eq(tr.stage_at(from_int(1)), ord_ge(W), W1)

    s2 = SpaceDesc(add(omega_power(2), 1))
    tr = iterate(DerivativeOp(CantorBendixson(), base_topology(s2)), TRUE)
    assert tr.rank == from_int(3)


def test_iterate_contract_and_monotone():
    rng = random.Random(31337)
    s = SpaceDesc(add(mul(W, 4), 4))
    t = base_topology(s)
    from test_space import rand_pattern
    from ordrank.space import closure
    for _ in range(40):
        a, b = rand_pattern(rng), rand_pattern(rng)
        op = DerivativeOp(SeparationDeriv(a, b), t)
        f = closure(rand_pattern(rng), t)
        g = closure(or_(f, rand_pattern(rng)), t)
        da, dg = apply(op, f), apply(op, g)
        assert subset(da, f, s)
        assert subset(da, dg, s)


def test_iterate_fixpoint_marker():
    # a sequence oscillating forever everywhere (outside the affine fragment,
    # so modeled directly): every tail attains both values at every point,
    # the derivative fixes the whole space, rank gets the omega_1 marker
    class Flip:
        """f_n alternates between 0 and 1 at every point."""
        def values(self):
            return (Fraction(0), Fraction(1))

        def cell_pattern_of(self, v):
            return TRUE

    op = DerivativeOp(ConvDeriv(Flip(), Fraction(1, 2)), T1)
    tr = iterate(op, TRUE)
    assert tr.rank is None and tr.fixpoint


def test_conv_deriv_tails():
    fam = FnFamily(((Fraction(1), POrdGeN(ZERO, from_int(1))),
                    (Fraction(0), POrdLtN(ZERO, from_int(1)))), W1)
    op = DerivativeOp(ConvDeriv(fam, Fraction(1, 2)), T1)
    d1 = apply(op, TRUE)
    assert sem_eq(d1, ord_ge(W), W1)
    tr = iterate(op, TRUE)
    assert tr.rank == from_int(2)


def test_limit_jump_ceiling_cb():
    sc = SpaceDesc(None)
    tc = base_topology(sc)
    tr = iterate(DerivativeOp(CantorBendixson(), tc), TRUE, Budget(40, 4))
    assert tr.rank == W
    assert tr.limit_jumps == 1
    from ordrank.patterns import divpow
    assert sem_eq(tr.stage_at(from_int(3)), divpow(3), sc)
    assert is_empty(tr.stage_at(W), sc)


def test_limit_jump_dense_codense():
    sc = SpaceDesc(None)
    tc = base_topology(sc)
    A = min_digit_in(ds_mod(2, 0))
    B = or_(ord_lt(1), min_digit_in(ds_mod(2, 1)))
    tr = iterate(DerivativeOp(SeparationDeriv(A, B), tc), TRUE, Budget(60, 4))
    assert tr.rank == W


def test_bounded_space_no_false_jump():
    # on [0, w^4) the CB iteration must terminate at the honest finite rank
    s = SpaceDesc(omega_power(4))
    tr = iterate(DerivativeOp(CantorBendixson(), base_topology(s)), TRUE,
                 Budget(60, 4))
    assert tr.rank == from_int(4)
    assert tr.limit_jumps == 0


def test_traces_strictly_decrease():
    rng = random.Random(2718)
    from test_space import rand_pattern
    s = SpaceDesc(add(mul(W, 4), 2))
    t = base_topology(s)
    for _ in range(20):
        A, B = rand_pattern(rng), rand_pattern(rng)
        tr = iterate(DerivativeOp(SeparationDeriv(A, B), t), TRUE)
        pats = [cells_pattern(c, s.bound) for _, c in tr.events]
        for p1, p2 in zip(pats, pats[1:]):
            assert subset(p2, p1, s)
            assert not subset(p1, p2, s) or is_empty(p1, s)


def test_trace_limit_stage_containment():
    sc = SpaceDesc(None)
    tc = base_topology(sc)
    tr = iterate(DerivativeOp(CantorBendixson(), tc), TRUE, Budget(40, 4))
    # every recorded limit stage is contained in sampled predecessors
    lim_events = [(s, cells_pattern(c, sc.bound)) for s, c in tr.events if not s.is_finite]
    assert lim_events
    for s, p in lim_events:
        for n in range(1, 6):
            assert subset(p, tr.stage_at(from_int(n)), sc)


def test_oracle_agreement_derivatives():
    rng = random.Random(5150)
    from test_space import rand_pattern
    from ordrank.space import closure
    s = SpaceDesc(add(mul(W, 3), 3))
    t = base_topology(s)
    for _ in range(60):
        a, b = rand_pattern(rng), rand_pattern(rng)
        f = closure(rand_pattern(rng), t)
        op = DerivativeOp(SeparationDeriv(a, b), t)
        sym = orc.from_pattern(apply(op, f), s)
        bru = orc.oracle_sep(orc.from_pattern(a, s), orc.from_pattern(b, s),
                             orc.from_pattern(f, s))
        assert orc.o_eq(sym, bru)


def test_oracle_agreement_derivatives_rich():
    # separation and oscillation steps on inputs with divisibility and
    # least-digit atoms, which rand_pattern never draws
    rng = random.Random(5151)
    from test_space import rich_pattern
    from ordrank.space import closure
    for bound in (add(mul(W, 3), 3), add(mul(W, 8), 8), add(W, 1)):
        s = SpaceDesc(bound)
        t = base_topology(s)
        for _ in range(40):
            a, b = rich_pattern(rng, max_digit=1), rich_pattern(rng, max_digit=1)
            f = closure(rich_pattern(rng, max_digit=1), t)
            sym = orc.from_pattern(apply(DerivativeOp(SeparationDeriv(a, b), t), f), s)
            bru = orc.oracle_sep(orc.from_pattern(a, s), orc.from_pattern(b, s),
                                 orc.from_pattern(f, s))
            assert orc.o_eq(sym, bru), (a, b, f)
            fn = char_fn(a, s)
            eps = Fraction(1, rng.randint(1, 3))
            sym = orc.from_pattern(apply(DerivativeOp(OscDeriv(fn, eps), t), f), s)
            pieces = [(v, orc.from_pattern(p, s)) for v, p in fn.pieces]
            assert orc.o_eq(sym, orc.oracle_osc(pieces, eps, orc.from_pattern(f, s))), (a, f)
