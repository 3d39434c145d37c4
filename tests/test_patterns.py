"""The digit-set algebra and cell machinery against brute-force references."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordrank import ordinal as o
from ordrank.errors import DigitSetTooLarge
from ordrank.ordinal import W, add, from_int, mul
from ordrank.patterns import (MAX_DIGITSET, DigitSet, PAnd, PDigitGeN, PDigitLtN,
                              PMinDigit, POrdGe, POrdGeEta, POrdGeN, POrdLtEta, POrdLtN,
                              PTrue,
                              ds_and, ds_eq, ds_ge, ds_lt, ds_mod, ds_not,
                              ds_or, ds_window, mk_digitset, cells_difference,
                              holds_at, not_, and_, or_, ord_lt, to_cells, cell_and,
                              meet, prune_cells,
                              cell_pattern, cell_is_empty, _cell_key,
                              _cell_subsumes, _dnf, _merge_cell, _nnf)
from ordrank.space import SpaceDesc, cells_eq, sample_points
from ordrank.ordinal import ONE, ZERO
from ordrank.patterns import Cell, _mk_cell, cell_minus

from test_cell_pipeline import _cell_pool
from test_closure_probe import rich_pattern
from test_space import rand_pattern


@st.composite
def digitsets(draw):
    t = draw(st.integers(0, 6))
    prefix = tuple(draw(st.booleans()) for _ in range(t))
    period = draw(st.integers(1, 6))
    residues = {r for r in range(period) if draw(st.booleans())}
    return mk_digitset(prefix, period, residues)


REF_RANGE = 120


def members(ds, top=REF_RANGE):
    return {v for v in range(top) if v in ds}


@settings(max_examples=300)
@given(digitsets(), digitsets())
def test_digitset_boolean_algebra(a, b):
    assert members(ds_and(a, b)) == members(a) & members(b)
    assert members(ds_or(a, b)) == members(a) | members(b)
    assert members(ds_not(a)) == set(range(REF_RANGE)) - members(a)
    # the memoized algebra returns what the plain functions compute
    assert ds_and(a, b) == ds_and(b, a) == ds_and.__wrapped__(a, b)
    assert ds_or(a, b) == ds_or(b, a) == ds_or.__wrapped__(a, b)
    assert ds_not(a) == ds_not.__wrapped__(a)


@settings(max_examples=300)
@given(digitsets())
def test_digitset_canonical_unique(a):
    # equal membership functions produce structurally equal values
    blown = mk_digitset(tuple(v in a for v in range(len(a.prefix) + 7)),
                        a.period * 3, {r + k * a.period for r in a.residues
                                       for k in range(3)})
    assert blown == a
    assert mk_digitset(a.prefix, a.period, a.residues) == a


@settings(max_examples=200)
@given(digitsets(), st.integers(0, 5))
def test_digitset_shift(a, k):
    assert members(a.shift_up(k)) == {v + k for v in members(a, REF_RANGE - k)}


@settings(max_examples=200)
@given(digitsets(), st.integers(0, 30))
def test_digitset_min_geq(a, k):
    got = a.min_geq(k)
    want = min((v for v in members(a, REF_RANGE * 3) if v >= k), default=None)
    if want is not None and want < REF_RANGE * 2:
        assert got == want
    elif got is not None:
        assert got >= k and got in a


def test_constructors_against_reference():
    assert members(ds_eq(5)) == {5}
    assert members(ds_ge(7)) == set(range(7, REF_RANGE))
    assert members(ds_lt(4)) == {0, 1, 2, 3}
    assert members(ds_window(3, 9)) == set(range(3, 9))
    assert members(ds_mod(3, 2)) == {v for v in range(REF_RANGE) if v % 3 == 2}


def test_ds_window_rejects_negative_start():
    # before, ds_window(-2, 3) built {0, ..., 4}
    with pytest.raises(ValueError, match="digit window must start at >= 0"):
        ds_window(-2, 3)
    assert members(ds_window(0, 3)) == {0, 1, 2}


def test_ds_eq_rejects_negative():
    # before, ds_eq(-1) built {0}
    with pytest.raises(ValueError, match="digit value must be >= 0"):
        ds_eq(-1)
    assert members(ds_eq(0)) == {0}


def test_digit_set_size_budget():
    top = MAX_DIGITSET
    # at the limit every constructor still builds its set
    assert 4095 in ds_eq(top - 1) and 4094 not in ds_eq(top - 1)
    assert top in ds_ge(top) and top - 1 not in ds_ge(top)
    assert top - 1 in ds_lt(top) and 1 in ds_window(1, top)
    assert 1 in ds_mod(top, 1) and top + 1 in ds_mod(top, 1)
    assert 1 + 64 * 63 in ds_and(ds_mod(64, 1), ds_mod(63, 1))  # lcm 4032
    # one past it, or an lcm past it, is refused before anything is built
    for build in (lambda: ds_eq(top), lambda: ds_ge(top + 1), lambda: ds_lt(top + 1),
                  lambda: ds_window(0, top + 1), lambda: ds_mod(top + 1, 0),
                  lambda: mk_digitset((), 10 ** 12, {1}), lambda: ds_eq(10 ** 11),
                  lambda: ds_and(ds_mod(4093, 1), ds_mod(4091, 1)),
                  lambda: ds_or(ds_mod(4093, 1), ds_mod(4091, 1))):
        with pytest.raises(DigitSetTooLarge, match="above the limit 4096"):
            build()


def test_cells_difference_pointwise():
    rng = random.Random(424242)
    space = SpaceDesc(add(mul(W, 4), 4))
    for _ in range(150):
        a, b = rand_pattern(rng), rand_pattern(rng)
        ac = to_cells(a, space.bound)
        bc = to_cells(b, space.bound)
        diff = cells_difference(ac, bc)
        diff_pat = or_(*(cell_pattern(c, space.bound) for c in diff))
        for x in sample_points(or_(a, b), space, 6)[:24]:
            want = holds_at(a, x) and not holds_at(b, x)
            assert holds_at(diff_pat, x) == want, (a, b, x)
        # the staircase carve of a single cell is disjoint
        if ac and bc:
            from ordrank.patterns import cell_minus
            pieces = cell_minus(ac[0], bc[0])
            for i in range(len(pieces)):
                for j in range(i + 1, len(pieces)):
                    for x in sample_points(cell_pattern(pieces[i], space.bound), space, 3):
                        assert not pieces[j].holds(x)


def _whole_formula_cells(p, bound):
    """Reference normal form: merge every conjunction of the DNF of the
    whole formula, drop empty cells, sort, then the full O(n^2) prune."""
    cells = []
    for conj in _dnf(_nnf(p, False)):
        c = _merge_cell(conj, bound)
        if c is not None and not cell_is_empty(c):
            cells.append(c)
    uniq = sorted(set(cells), key=_cell_key)
    return tuple(c for c in uniq
                 if not any(k != c and _cell_subsumes(k, c) for k in uniq))


def test_to_cells_of_union_matches_whole_formula():
    rng = random.Random(8128)
    for space in (SpaceDesc(add(mul(W, 8), 8)), SpaceDesc(None)):
        for _ in range(120):
            gen = rand_pattern if rng.random() < 0.5 else rich_pattern
            parts = [gen(rng) for _ in range(rng.randint(2, 3))]
            if rng.random() < 0.5:
                to_cells(parts[0], space.bound)  # as closure does: p cached first
            p = or_(*parts)
            assert to_cells(p, space.bound) == _whole_formula_cells(p, space.bound), p


def test_cells_do_not_depend_on_the_space():
    """A set below b1 has the same cells, object for object, on [0, b1), on
    a larger [0, b2) and on the ceiling space: an upper end that reaches b1
    is b1 itself on every space.  So meet and cells_difference, which take
    no bound, agree too, and give the cells of the and and of the
    difference."""
    rng = random.Random(3131)
    pairs = [(add(W, 1), add(mul(W, 4), 4)), (add(mul(W, 4), 4), add(mul(W, 8), 8)),
             (from_int(9), o.omega_power(2)), (add(mul(W, 8), 8), None), (from_int(9), None)]
    seen = {"cells": 0, "meets": 0, "pieces": 0}
    for i in range(150):
        b1, b2 = pairs[i % len(pairs)]
        gen = rand_pattern if rng.random() < 0.5 else rich_pattern
        p, q = gen(rng), gen(rng)
        xs, ys = to_cells(p, b1), to_cells(q, b1)
        wide = to_cells(and_(p, ord_lt(b1)), b2), to_cells(and_(q, ord_lt(b1)), b2)
        assert wide == (xs, ys), (p, q, b1, b2)
        assert all(c is d for c, d in zip(xs + ys, wide[0] + wide[1]))
        assert all(c.hi is not None and o.compare(c.hi, b1) <= 0 for c in xs + ys)
        both = meet(xs, ys)
        assert both == meet(*wide)
        assert cells_eq(both, to_cells(and_(p, q, ord_lt(b1)), b2)), (p, q, b1, b2)
        diff = prune_cells(cells_difference(xs, ys))
        assert diff == prune_cells(cells_difference(*wide))
        assert cells_eq(diff, to_cells(and_(p, not_(q), ord_lt(b1)), b2)), (p, q, b1, b2)
        seen["cells"] += len(xs) + len(ys)
        seen["meets"] += len(both)
        seen["pieces"] += len(diff)
    assert min(seen.values()) >= 100, seen


def _atoms(c, bound):
    p = cell_pattern(c, bound)
    return p.parts if isinstance(p, PAnd) else (() if isinstance(p, PTrue) else (p,))


def _assert_canonical(c, bound):
    """The invariants the Cell docstring states."""
    if c.div >= 1 or c.md is not None:
        assert o.compare(c.lo, o.ONE) >= 0, c
    if c.md is not None:
        assert not c.md.is_empty and c.md != ds_ge(1) and 0 not in c.md, c
    idx = [i for i, _ in c.digits]
    assert idx == sorted(set(idx)) and all(i >= c.div for i in idx), c
    assert all(not ds.is_empty and not ds.is_full for _, ds in c.digits), c
    # hi is None only on the ceiling space, which may still give an upper end
    assert c.hi is not None or bound is None, c
    if c.hi is not None:
        assert bound is None or o.compare(c.hi, bound) <= 0, c
        assert o.compare(c.lo, c.hi) < 0, c
    assert not cell_is_empty(c), c


def test_cell_normaliser_fixed_points_and_and():
    """Cells are canonical fixed points of the normaliser, and cell_and
    merges two cells exactly as _merge_cell merges the atoms of both."""
    # a last-coefficient constraint of just {>= 1} says x != 0 and no more
    assert _merge_cell((PMinDigit(ds_ge(1)),), None) == _merge_cell((POrdGe(o.ONE),), None)
    rng = random.Random(2718)
    for space in (SpaceDesc(add(mul(W, 8), 8)), SpaceDesc(None)):
        bound = space.bound
        pools = []
        for _ in range(60):
            gen = rand_pattern if rng.random() < 0.5 else rich_pattern
            cells = to_cells(gen(rng), bound)
            for c in cells:
                _assert_canonical(c, bound)
                assert _merge_cell(_atoms(c, bound), bound) == c, c
            pools.append(cells)
        pairs = 0
        for a, b in zip(pools, pools[1:]):
            for c in a[:4]:
                for d in b[:4]:
                    both = cell_and(c, d)
                    assert both == _merge_cell(_atoms(c, bound) + _atoms(d, bound), bound), (c, d)
                    if both is not None:
                        _assert_canonical(both, bound)
                    for x in sample_points(or_(cell_pattern(c, bound), cell_pattern(d, bound)),
                                           space, 2)[:8]:
                        assert (both is not None and both.holds(x)) == \
                            (c.holds(x) and d.holds(x)), (c, d, x)
                    pairs += 1
        assert pairs >= 100


def test_fundamental_sequence_supremum():
    rng = random.Random(99)
    from test_ordinal import rand_ordinal
    from ordrank.ordinal import Kind, classify, compare, fundamental_sequence
    for _ in range(300):
        a = rand_ordinal(rng)
        if classify(a) is not Kind.LIMIT:
            continue
        # every strictly smaller probe is eventually passed
        probe = rand_ordinal(rng)
        if compare(probe, a) >= 0:
            continue
        assert any(compare(probe, fundamental_sequence(a, n)) < 0
                   for n in range(40))


# -- the field-by-field cell algebra against the constraint()-based originals --

_CELL_BOUNDS = (from_int(1), from_int(2), from_int(5), add(mul(W, 8), 8), None)


def _ref_ds_subset(a, b):
    return ds_and(a, ds_not(b)).is_empty


def _ref_subsumes(big, small):
    """The check before the single walk: small's constraint() at every
    position big constrains."""
    if small.lo.terms < big.lo.terms:
        return False
    if big.hi is not None and (small.hi is None or small.hi.terms > big.hi.terms):
        return False
    if big.div > small.div:
        return False
    if big.md is not None and (small.md is None or not _ref_ds_subset(small.md, big.md)):
        return False
    return all(_ref_ds_subset(small.constraint(i), ds) for i, ds in big.digits)


def test_cell_subsumes_matches_constraint_reference():
    rng = random.Random(6161)
    seen = {"true": 0, "false": 0, "below_div": 0, "free": 0, "div": 0, "md": 0}
    for i in range(60):
        bound = _CELL_BOUNDS[i % len(_CELL_BOUNDS)]
        pool = list(dict.fromkeys(_cell_pool(rng, bound, rng.randint(2, 5))))
        for big in pool:
            for small in pool:
                want = _ref_subsumes(big, small)
                assert _cell_subsumes(big, small) == want, (big, small)
                seen["true" if want else "false"] += 1
                seen["div"] += small.div >= 1
                seen["md"] += big.md is not None
                # the digit walk decides: every test before it passes
                if (not want and small.lo.terms >= big.lo.terms
                        and big.div <= small.div and big.md is None
                        and (big.hi is None or (small.hi is not None
                                                and small.hi.terms <= big.hi.terms))):
                    idx = dict(small.digits)
                    seen["below_div"] += any(j < small.div for j, _ in big.digits)
                    seen["free"] += any(j >= small.div and j not in idx
                                        for j, _ in big.digits)
    assert min(seen.values()) >= 50, seen


def _ref_cell_and(c, b, bound):
    """The meet before it was built field by field: merge, then normalise."""
    digits = dict(c.digits)
    for i, ds in b.digits:
        digits[i] = ds_and(digits[i], ds) if i in digits else ds
    lo = b.lo if o.compare(b.lo, c.lo) > 0 else c.lo
    hi = c.hi
    if b.hi is not None and (hi is None or o.compare(b.hi, hi) < 0):
        hi = b.hi
    md = c.md if b.md is None else (b.md if c.md is None else ds_and(c.md, b.md))
    return _mk_cell(lo, hi, digits, max(c.div, b.div), md, bound)


def _ref_cell_minus(c, b, bound):
    """The staircase carving with one-constraint cells built directly, not
    canonical, and met through the normalising meet."""
    if _ref_subsumes(b, c):
        return []
    if _ref_cell_and(c, b, bound) is None:
        return [c]

    def digit(i, ds):
        return Cell(ZERO, None, ((i, ds),), 0)

    steps = []
    if not b.lo.is_zero:
        steps.append((Cell(ZERO, b.lo, (), 0), Cell(b.lo, None, (), 0)))
    if b.hi is not None:
        steps.append((Cell(b.hi, None, (), 0), Cell(ZERO, b.hi, (), 0)))
    if b.div >= 1 or b.md is not None:
        steps.append((Cell(ZERO, ONE, (), 0), Cell(ONE, None, (), 0)))
    steps += [(digit(i, ds_ge(1)), digit(i, ds_eq(0))) for i in range(b.div)]
    if b.md is not None:
        steps.append((Cell(ZERO, None, (), 0, ds_not(b.md)), Cell(ZERO, None, (), 0, b.md)))
    steps += [(digit(i, ds_not(ds)), digit(i, ds)) for i, ds in b.digits]
    out = []
    rest = c
    for outside, inside in steps:
        piece = _ref_cell_and(rest, outside, bound)
        if piece is not None:
            out.append(piece)
        rest = _ref_cell_and(rest, inside, bound)
        if rest is None:
            break
    return out


def test_cell_minus_matches_noncanonical_carving():
    rng = random.Random(6262)
    seen = {bound: 0 for bound in _CELL_BOUNDS}
    carved = {"md": 0, "div": 0, "several": 0}
    for i in range(60):
        bound = _CELL_BOUNDS[i % len(_CELL_BOUNDS)]
        pool = list(dict.fromkeys(_cell_pool(rng, bound, rng.randint(2, 4))))
        for c in pool:
            for b in rng.sample(pool, min(8, len(pool))):
                got = tuple(cell_minus(c, b))
                assert got == tuple(_ref_cell_minus(c, b, bound)), (bound, c, b)
                seen[bound] += 1
                if len(got) >= 2:
                    carved["several"] += 1
                    carved["md"] += b.md is not None
                    carved["div"] += b.div >= 1
    # a space of one or two points has few cells
    assert min(seen.values()) >= 20 and sum(seen.values()) >= 3000, seen
    assert min(carved.values()) >= 20, carved


# -- the parametric twins hash their class too ------------------------------------

_TWINS = ((PDigitGeN, PDigitLtN, lambda rng: (rng.randint(0, 3), rng.randint(0, 5),
                                              rng.randint(0, 3))),
          (POrdGeN, POrdLtN, lambda rng: (_rand_small_ord(rng), _rand_small_ord(rng))),
          (POrdGeEta, POrdLtEta, lambda rng: (_rand_small_ord(rng), _rand_small_ord(rng),
                                              rng.randint(1, 3))))


def _rand_small_ord(rng):
    return add(mul(W, rng.randint(0, 3)), rng.randint(0, 5))


@pytest.mark.parametrize("ge, lt, fields", _TWINS, ids=("digit-n", "ord-n", "ord-eta"))
def test_parametric_twins_hash_apart(ge, lt, fields):
    rng = random.Random(2405)
    for _ in range(40):
        args = fields(rng)
        a, b = ge(*args), lt(*args)
        assert a != b and hash(a) != hash(b), args
        # equal atoms, built apart, hash equal
        assert ge(*args) == a and hash(ge(*args)) == hash(a)
        assert lt(*args) == b and hash(lt(*args)) == hash(b)
