"""The least-member search of a cell (`patterns.cell_min_geq`).

It serves `cell_is_empty`, `iter_cell` and every sampler.  Here it is
checked against a brute force over small ordinals, and against the
recursive search it replaced, wherever that search returned.
"""
import itertools
import random
from fractions import Fraction

from ordrank import ordinal as o
from ordrank.derivative import Budget
from ordrank.functions import char_fn, fn_add, fn_scale
from ordrank.ordinal import Ordinal, ONE
from ordrank.patterns import (Cell, DS_EMPTY, and_, cell_min_geq, digit_mod,
                              ds_and, ds_eq, ds_ge, ds_lt, ds_mod, ds_not,
                              holds_at, min_digit_in, ord_ge, ord_lt)
from ordrank.ranks import alpha_fn
from ordrank.space import SpaceDesc, base_topology, is_empty


def test_min_digit_with_a_high_digit_constraint_is_nonempty():
    # an older search tried the least exponent e = 6 too, hit an exponent
    # ceiling there, and called the whole cell empty; 1 is a member
    for i in (4, 5):
        p = and_(digit_mod(i, 2, 0), min_digit_in(ds_mod(2, 1)))
        assert not is_empty(p, SpaceDesc(o.omega_power(2)))
        assert holds_at(p, ONE)


def test_min_digit_window_below_w5_is_nonempty():
    p = and_(min_digit_in(ds_mod(2, 0)), ord_ge(o.omega_power(4)),
             ord_lt(o.omega_power(5)))
    assert holds_at(p, o.omega_power(4, 2))
    assert not is_empty(p, SpaceDesc(None))
    assert not is_empty(p, SpaceDesc(o.omega_power(5)))


def test_perturbed_polish_failure_keeps_w4_at_stage_2():
    # rank-dense's perturbation (d, m, v, c, sign) = (0, 3, 0, 4, +); every
    # witness can be named, and stage 2 also holds w^4
    space = SpaceDesc(None)
    bump = and_(digit_mod(0, 3, 0), ord_lt(o.omega_power(4)))
    g = fn_add(char_fn(min_digit_in(ds_mod(2, 0)), space),
               fn_scale(char_fn(bump, space), Fraction(1, 3)))
    rep = alpha_fn(g, base_topology(space), Budget(80, 4, 4))
    assert rep.value == o.W
    assert holds_at(rep.trace.stage_at(o.from_int(2)), o.omega_power(4))


# -- the recursive search the scan replaced, as a reference ------------------

def _recursive_box_min(constraint, top, lower):
    def best(i, tight):
        if i < 0:
            return []
        ds = constraint(i)
        if not tight:
            m = ds.min_value()
            if m is None:
                return None
            rest = best(i - 1, False)
            if rest is None:
                return None
            return ([(i, m)] if m else []) + rest
        d_low = lower.digit(i)
        cand = None
        if d_low in ds:
            rest = best(i - 1, True)
            if rest is not None:
                cand = ([(i, d_low)] if d_low else []) + rest
        d_up = ds.min_geq(d_low + 1)
        if d_up is not None:
            rest = best(i - 1, False)
            if rest is not None:
                alt = [(i, d_up)] + rest
                if cand is None or sorted(alt, reverse=True) < sorted(cand, reverse=True):
                    cand = alt
        return cand

    res = best(top, True)
    return None if res is None else Ordinal(tuple(sorted(res, reverse=True)))


def _recursive_cell_min_geq(c, lower):
    if o.compare(lower, c.lo) < 0:
        lower = c.lo
    tops = [c.div]
    if c.digits:
        tops.append(max(i for i, _ in c.digits) + 1)
    if lower.max_exp() is not None:
        tops.append(lower.max_exp() + 1)
    top = max(tops)
    if c.md is None:
        return _recursive_box_min(c.constraint, top, lower)
    best_x = None
    for e in range(c.div, top + 2):
        at_e = ds_and(ds_and(c.constraint(e), c.md), ds_ge(1))
        if at_e.is_empty:
            continue

        def constr(i, e=e, at_e=at_e):
            if i < e:
                return ds_eq(0) if 0 in c.constraint(i) else DS_EMPTY
            return at_e if i == e else c.constraint(i)

        x = _recursive_box_min(constr, max(top, e), lower)
        if x is not None and (best_x is None or o.compare(x, best_x) < 0):
            best_x = x
    return best_x


_POOL = [ds_eq(0), ds_eq(1), ds_eq(3), ds_ge(1), ds_ge(2), ds_lt(2), ds_lt(3),
         ds_mod(2, 0), ds_mod(2, 1), ds_mod(3, 1), ds_not(ds_eq(1))]


def _rand_ordinal(rng, top_exp, coeff):
    return Ordinal(tuple((e, k) for e in range(top_exp, -1, -1)
                         if (k := rng.randrange(coeff)) and rng.random() < 0.5))


def _rand_cell(rng, positions, top_exp, coeff):
    """A cell in canonical shape: digit indices at or above div, lo >= 1
    when div or md is set, md inside {>= 1}."""
    div = rng.choice([0, 0, 0, 1, 2])
    md = None if rng.random() < 0.4 else ds_and(rng.choice(_POOL), ds_ge(1))
    if md is not None and (md.is_empty or md == ds_ge(1)):
        md = None
    digits = tuple((i, ds) for i in range(div, positions)
                   if rng.random() < 0.4 and not (ds := rng.choice(_POOL)).is_full)
    lo = _rand_ordinal(rng, top_exp, coeff)
    if (div or md is not None) and lo.is_zero:
        lo = ONE
    return Cell(lo, None, digits, div, md)


def test_scan_matches_the_recursive_search_where_it_returned():
    rng = random.Random(12)
    returned = 0
    for _ in range(3000):
        c = _rand_cell(rng, 5, 4, 5)
        lower = _rand_ordinal(rng, 4, 5)
        want = _recursive_cell_min_geq(c, lower)
        returned += 1
        assert cell_min_geq(c, lower) == want, (c, lower)
    assert returned > 1000


_COEFF = 8  # brute-force points have every digit below this


def _brute_least(c, lower, points):
    return next((x for x in points if o.compare(x, lower) >= 0 and c.holds(x)), None)


def test_scan_against_brute_force_below_w3():
    """Every cell and lower bound below w^3, against the least member among
    all points with digits below _COEFF.  When no member lies below w^3 the
    search must find one at or above w^3."""
    rng = random.Random(3)
    points = sorted((Ordinal(tuple((e, k) for e, k in zip((2, 1, 0), ds) if k))
                     for ds in itertools.product(range(_COEFF), repeat=3)),
                    key=lambda x: x.terms)
    cases = [(_rand_cell(rng, 3, 2, 4), _rand_ordinal(rng, 2, 5)) for _ in range(1500)]
    w3, deep = o.omega_power(3), 0
    for c, lower in cases:
        want = _brute_least(c, lower, points)
        got = cell_min_geq(c, lower)
        if got is None:
            assert want is None, (c, lower, want)
        elif all(k < _COEFF for _, k in got.terms) and o.compare(got, w3) < 0:
            assert got == want, (c, lower, got, want)
        else:  # past the brute-force points: a member, and none before it
            assert c.holds(got) and o.compare(got, lower) >= 0
            assert want is None or o.compare(want, got) > 0
            deep += o.compare(got, w3) >= 0
    assert deep
