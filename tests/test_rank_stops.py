"""The early stops of the rank suprema, against exhaustive scans and the
brute-force oracle.

`alpha_fn` stops at the first level pair whose rank reaches the space's
Cantor-Bendixson rank (`SpaceDesc.cb_rank`); `beta` and `gamma_seq` take
the rank at the least gap only.  Here a test-local loop computes every term
of every supremum, and the oracle checks both lemmas from first principles:
no separation rank exceeds the CB rank, and the oscillation rank does not
increase with eps.
"""
import random
from fractions import Fraction

import pytest

from ordrank import oracle as orc
from ordrank import ranks
from ordrank.derivative import (Budget, ConvDeriv, DerivativeOp, OscDeriv,
                                SeparationDeriv, iterate)
from ordrank.errors import BudgetExceeded, UnsupportedProgression
from ordrank.functions import (FnFamily, char_fn, fam_add, fam_map_values, fn_add,
                               fn_scale, make_stepfn)
from ordrank.ordinal import W, ZERO, add, compare, from_int, mul, omega_power
from ordrank.patterns import (FALSE, TRUE, PDigitGeN, PDigitLtN, POrdGeN, POrdLtN,
                              and_, digit_mod, ds_mod, min_digit_in, not_, or_, ord_lt)
from ordrank.ranks import NotStabilized, alpha_fn, beta, gamma_seq
from ordrank.space import SpaceDesc, base_topology, refine

from test_space import rand_pattern, rich_pattern

BOUNDED = [SpaceDesc(from_int(12)), SpaceDesc(add(W, 1)), SpaceDesc(add(mul(W, 3), 2)),
           SpaceDesc(omega_power(2)), SpaceDesc(add(omega_power(2), 1))]
CEILING = SpaceDesc(None)
A = min_digit_in(ds_mod(2, 0))  # the polish-failure set: alpha(chi_A) = w


# ---------------------------------------------------------------------------
# The exhaustive reference: every term of every supremum.

def _rank(variant, t, budget):
    try:
        trace = iterate(DerivativeOp(variant, t), TRUE, budget)
    except BudgetExceeded:
        return NotStabilized(False, "budget exceeded")
    return trace.rank if trace.rank is not None else NotStabilized(trace.fixpoint, trace.reason)


def _scan(params, rank_at):
    """(value, parameter) of the first largest rank, or of the first rank
    that did not stabilize; every rank as well."""
    best, every = None, []
    for prm in params:
        value = rank_at(prm)
        every.append(value)
        if isinstance(value, NotStabilized):
            return (value, prm), every
        if best is None or compare(value, best[0]) > 0:
            best = (value, prm)
    return best, every


def _alpha_all(f, t, budget):
    sets = {(p, q): (a, b) for p, q, a, b in ranks._level_pairs(f)}
    if not sets:
        return (_rank(SeparationDeriv(FALSE, TRUE), t, budget), None), []
    return _scan(list(sets), lambda pq: _rank(SeparationDeriv(*sets[pq]), t, budget))


def _gaps(values):
    vals = sorted(set(values))
    return sorted({b - a for i, a in enumerate(vals) for b in vals[i + 1:]}) or [Fraction(1)]


def _eps_all(variant, fn, t, budget):
    """The scan over every gap, stopping at the first refusal: None in
    place of the answer when the least gap itself is refused."""
    every = []
    for eps in _gaps(fn.values()):
        try:
            every.append((eps, _rank(variant(fn, eps), t, budget)))
        except UnsupportedProgression:
            break
    if not every:
        return None, []
    return _scan([e for e, _ in every], dict(every).get)


def _report(rep):
    return rep.value, rep.witness_param


def _stepfn(rng, space):
    """Up to three values on pieces cut from two random patterns."""
    p, q = rich_pattern(rng, max_digit=1), rich_pattern(rng, max_digit=1)
    vals = [Fraction(rng.randint(-3, 6), rng.randint(1, 3)) for _ in range(3)]
    return make_stepfn([(vals[0], p), (vals[1], and_(q, not_(p))),
                        (vals[2], not_(or_(p, q)))], space)


def _perturbations(n, seed):
    """Criterion 5's inputs: chi_A +- chi_bump / 3 on the ceiling space."""
    rng = random.Random(seed)
    chi = char_fn(A, CEILING)
    for j in range(n):
        bump = and_(digit_mod(rng.randint(0, 3), rng.randint(2, 6), rng.randint(0, 1)),
                    ord_lt(omega_power(rng.randint(2, 5))))
        delta = fn_scale(char_fn(bump, CEILING), Fraction(1 if j % 2 == 0 else -1, 3))
        yield fn_add(chi, delta)


# ---------------------------------------------------------------------------
# The engine against the exhaustive scan.

def test_alpha_fn_matches_every_level_pair_on_bounded_spaces():
    rng = random.Random(3201)
    budget = Budget(60, 2)
    reached = stopped_early = 0
    for i in range(60):
        space = BOUNDED[i % len(BOUNDED)]
        base = base_topology(space)
        t = base if i % 3 else refine(base, [ord_lt(add(W, 1))], 2)
        f = _stepfn(rng, space)
        want, every = _alpha_all(f, t, budget)
        assert _report(alpha_fn(f, t, budget)) == want, (f, t)
        rho = space.cb_rank
        assert all(compare(v, rho) <= 0 for v in every), (f, every, rho)
        reached += want[0] == rho
        stopped_early += bool(every) and every.index(want[0]) < len(every) - 1
    assert reached > 20 and stopped_early > 5, (reached, stopped_early)


def test_alpha_fn_keeps_a_later_pair_that_reaches_the_cb_rank():
    """Pair (0, 1) has rank 1 = rho - 1 and pair (1, 2) rank 2 = rho, so a
    stop below the CB rank returns the first pair's rank."""
    space = SpaceDesc(add(mul(W, 3), 2))
    t = base_topology(space)
    evens = digit_mod(0, 2, 0)
    head = ord_lt(add(W, 1))
    f = make_stepfn([(Fraction(0), head), (Fraction(1), and_(evens, not_(head))),
                     (Fraction(2), and_(not_(evens), not_(head)))], space)
    want, every = _alpha_all(f, t, Budget(60, 2))
    assert every == [from_int(1), from_int(2)] and space.cb_rank == from_int(2)
    assert _report(alpha_fn(f, t)) == want == (from_int(2), (Fraction(1), Fraction(2)))


def test_alpha_fn_matches_every_level_pair_on_the_ceiling_space():
    t = base_topology(CEILING)
    budget = Budget(80, 4)
    for f in list(_perturbations(6, 4)) + [char_fn(A, CEILING)]:
        want, every = _alpha_all(f, t, budget)
        assert _report(alpha_fn(f, t, budget)) == want, f
        assert compare(want[0], W) == 0 and all(compare(v, W) <= 0 for v in every)


def test_beta_matches_every_gap():
    rng = random.Random(3202)
    budget = Budget(60, 2)
    several = 0
    for i in range(100):
        space = BOUNDED[i % len(BOUNDED)]
        t = base_topology(space)
        f = _stepfn(rng, space)
        want, every = _eps_all(OscDeriv, f, t, budget)
        assert _report(beta(f, t, budget)) == want, f
        assert all(compare(a, b) >= 0 for a, b in zip(every, every[1:])), every
        several += len(set(every)) > 1
    t = base_topology(CEILING)
    for f in _perturbations(3, 5):
        want, every = _eps_all(OscDeriv, f, t, budget)
        assert _report(beta(f, t, budget)) == want, f
        several += len(set(every)) > 1
    assert several > 5, several


def _nat_family(rng, space, digit):
    """A moving digit window, tail indicators or a fixed parity split."""
    kind = rng.randrange(3)
    if kind == 0:
        base, slope = rng.randint(0, 2), rng.randint(1, 2)
        return FnFamily(((Fraction(1), PDigitLtN(digit, base, slope)),
                         (Fraction(0), PDigitGeN(digit, base, slope))), space)
    if kind == 1:
        step = add(mul(W, rng.randint(0, 1)), rng.randint(1, 2))
        return FnFamily(((Fraction(1), POrdGeN(ZERO, step)),
                         (Fraction(0), POrdLtN(ZERO, step))), space)
    return FnFamily(((Fraction(0), digit_mod(digit, 2, 0)),
                     (Fraction(1), digit_mod(digit, 2, 1))), space)


def test_gamma_seq_matches_every_gap():
    rng = random.Random(3203)
    budget = Budget(60, 2)
    spaces = [SpaceDesc(add(W, 1)), SpaceDesc(add(mul(W, 3), 2)),
              SpaceDesc(omega_power(2)), CEILING]
    compared = refused = several = 0
    for i in range(40):
        space = spaces[i % len(spaces)]
        t = base_topology(space)
        k = Fraction(rng.randint(2, 3))
        fam = fam_add(_nat_family(rng, space, 0),
                      fam_map_values(_nat_family(rng, space, 1), lambda v: v * k))
        want, every = _eps_all(ConvDeriv, fam, t, budget)
        if want is None:  # the least gap is refused: loudly, as before
            with pytest.raises(UnsupportedProgression):
                gamma_seq(fam, t, budget)
            refused += 1
            continue
        compared += 1
        assert _report(gamma_seq(fam, t, budget)) == want, fam
        assert all(compare(a, b) >= 0 for a, b in zip(every, every[1:])), every
        several += len(set(every)) > 1
    assert compared >= 15 and several >= 8, (compared, refused, several)


# ---------------------------------------------------------------------------
# The lemmas by brute force.

ORACLE_SPACES = [SpaceDesc(from_int(1)), SpaceDesc(from_int(7)), SpaceDesc(W),
                 SpaceDesc(add(W, 1)), SpaceDesc(mul(W, 2)), SpaceDesc(add(mul(W, 5), 3))]


def _oracle_rank(step, start):
    cur, n = start, 0
    while not cur.is_empty:
        nxt = step(cur)
        assert not orc.o_eq(nxt, cur), "the oracle step fixed a nonempty set"
        cur, n = nxt, n + 1
    return n


def test_cb_rank_is_the_oracle_cb_length():
    for space in ORACLE_SPACES:
        full = orc.oracle_full(space)
        assert space.cb_rank == from_int(_oracle_rank(orc.oracle_cb, full)), space


def test_cb_rank_of_bounded_and_ceiling_spaces():
    cases = [(from_int(1), 1), (from_int(12), 1), (W, 1), (add(W, 1), 2),
             (omega_power(2), 2), (add(omega_power(2), 1), 3),
             (add(mul(omega_power(4), 3), 2), 5), (omega_power(4), 4)]
    for bound, rho in cases:
        assert SpaceDesc(bound).cb_rank == from_int(rho), bound
    assert CEILING.cb_rank == W


def test_oracle_separation_ranks_stay_within_the_cb_rank():
    rng = random.Random(3204)
    reached = 0
    for i in range(80):
        space = ORACLE_SPACES[i % len(ORACLE_SPACES)]
        a = orc.from_pattern(rand_pattern(rng), space)
        b = orc.o_and(orc.from_pattern(rand_pattern(rng), space), orc.o_not(a))
        r = _oracle_rank(lambda F: orc.oracle_sep(a, b, F), orc.oracle_full(space))
        rho = space.cb_rank.to_int()
        assert r <= rho, (space, a, b, r)
        reached += r == rho
    assert reached > 10, reached


def test_oracle_oscillation_ranks_do_not_increase_with_eps():
    rng = random.Random(3205)
    drops = 0
    for i in range(200):
        space = ORACLE_SPACES[2 + i % 4]
        f = _stepfn(rng, space)
        pieces = [(v, orc.from_pattern(p, space)) for v, p in f.pieces]
        full = orc.oracle_full(space)
        every = [_oracle_rank(lambda F: orc.oracle_osc(pieces, eps, F), full)
                 for eps in _gaps(f.values())]
        assert every == sorted(every, reverse=True), (f, every)
        drops += every[0] > every[-1]
    assert drops > 5, drops


# ---------------------------------------------------------------------------
# The stops fire.

def _counting(monkeypatch, name):
    calls = []
    real = getattr(ranks, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(ranks, name, counted)
    return calls


def test_alpha_fn_stops_at_the_first_pair_of_rank_w(monkeypatch):
    t = base_topology(CEILING)
    f = next(_perturbations(1, 4))
    pairs = ranks._level_pairs(f)
    assert len(pairs) == 3
    first_a, first_b = pairs[0][2:]
    assert ranks.alpha_pair(first_a, first_b, t, Budget(80, 4)).value == W
    calls = _counting(monkeypatch, "alpha_pair")
    assert alpha_fn(f, t, Budget(80, 4)).value == W
    assert len(calls) == 1


def test_beta_and_gamma_iterate_once(monkeypatch):
    space = SpaceDesc(add(mul(W, 3), 2))
    t = base_topology(space)
    f = make_stepfn([(Fraction(0), digit_mod(0, 3, 0)), (Fraction(1), digit_mod(0, 3, 1)),
                     (Fraction(3), digit_mod(0, 3, 2))], space)
    fam = FnFamily(((Fraction(0), TRUE),), space)
    calls = _counting(monkeypatch, "iterate")
    beta(f, t)
    gamma_seq(fam, t)
    assert len(_gaps(f.values())) == 3 and len(calls) == 2
