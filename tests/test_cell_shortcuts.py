"""The cell kernel's shortcuts against the code paths they skip.

- `cell_is_empty` decides a cell with no upper end by the box lemma in its
  docstring; here against the least-member scan `cell_min_geq(c, c.lo)`,
  with and without md, including md cells whose only witness is a free
  position above every slot, and md cells that a 0-less set empties.
- `meet` skips a pair by the two cells' signatures (disjoint intervals, a
  0-less set below the other cell's div); here against the prune of every
  pairwise `cell_and`, and each skip against `cell_and` itself.
- `prune_cells` rejects a subsumer with a 0-less set below the cell's div;
  here against `_cell_subsumes` on every ordered pair.
- `space._cofinal_below` takes one upward pass under md; here against the
  formula it replaced, kept below.
"""
import random

from ordrank import ordinal as o
from ordrank.ordinal import ONE, Ordinal
from ordrank.patterns import (Cell, _cell_key, _cell_subsumes, _mk_cell,
                              _prune_sig, cell_and, cell_is_empty, cell_min_geq,
                              ds_and, ds_eq, ds_ge, ds_lt, ds_mod, ds_not, meet,
                              prune_cells)
from ordrank.space import _cofinal_below

# nested sets with and without 0, so subsumption and md witnesses both occur
_POOL = [ds_eq(0), ds_eq(1), ds_eq(2), ds_ge(1), ds_ge(2), ds_lt(2), ds_lt(3),
         ds_mod(2, 0), ds_mod(2, 1), ds_mod(3, 1), ds_not(ds_eq(1)), ds_not(ds_eq(2))]
_MD_POOL = [ds_eq(1), ds_eq(2), ds_ge(2), ds_mod(2, 1), ds_and(ds_mod(2, 0), ds_ge(1)),
            ds_mod(3, 1)]


def _rand_ordinal(rng, top_exp, coeff):
    return Ordinal(tuple((e, k) for e in range(top_exp, -1, -1)
                         if (k := rng.randrange(coeff)) and rng.random() < 0.5))


def _rand_shape(rng, positions):
    """Fields of a ceiling-space cell in canonical shape, possibly empty:
    digit slots at or above div, sets nonempty and not full, lo >= 1 under
    div or md, md a proper nonempty part of {>= 1}."""
    div = rng.choice([0, 0, 1, 2, 3])
    md = None if rng.random() < 0.3 else rng.choice(_MD_POOL)
    digits = tuple((i, rng.choice(_POOL)) for i in range(div, div + positions)
                   if rng.random() < 0.6)
    lo = _rand_ordinal(rng, div + positions, 4)
    if (div or md is not None) and lo.is_zero:
        lo = ONE
    return lo, digits, div, md


def _md_witness_above_the_box(rng):
    """An md cell whose sets from div up all allow 0 and miss md, with no
    gap: its only witness is the free position just above the last slot."""
    md = rng.choice([ds_eq(2), ds_ge(2)])
    div = rng.randrange(3)
    sets = [ds_eq(0), ds_lt(2)] + ([ds_not(ds_eq(2))] if md is ds_eq(2) else [])
    digits = tuple((div + k, rng.choice(sets)) for k in range(rng.randint(1, 4)))
    lo = _rand_ordinal(rng, div + 6, 3)
    return Cell(ONE if lo.is_zero else lo, None, digits, div, md)


def test_cell_is_empty_matches_the_least_member_scan():
    rng = random.Random(3301)
    cells = [Cell(lo, None, digits, div, md)
             for lo, digits, div, md in (_rand_shape(rng, 5) for _ in range(2500))]
    cells += [_md_witness_above_the_box(rng) for _ in range(200)]
    seen = {"md_empty": 0, "md_nonempty": 0, "plain": 0, "free_witness": 0, "hi": 0}
    for c in cells:
        m = cell_min_geq(c, c.lo)
        assert cell_is_empty(c) == (m is None), c
        if c.md is None:
            seen["plain"] += 1
        else:
            seen["md_empty" if m is None else "md_nonempty"] += 1
            top = max(i for i, _ in c.digits) if c.digits else -1
            seen["free_witness"] += m is not None and m.min_exp() > top
        # with an upper end the scan still decides
        hi = o.add(m if m is not None else c.lo, rng.choice([0, 1]))
        if o.compare(c.lo, hi) < 0:
            b = Cell(c.lo, hi, c.digits, c.div, c.md)
            assert cell_is_empty(b) == (m is None or o.compare(m, hi) >= 0), b
            seen["hi"] += 1
    assert min(seen.values()) >= 100, seen


def _rand_cells(rng, n, bound):
    """Up to n nonempty canonical cells, about half with an upper end."""
    out = []
    for _ in range(n):
        lo, digits, div, md = _rand_shape(rng, 3)
        hi = None
        if rng.random() < 0.5:
            hi = o.add(lo, _rand_ordinal(rng, div + 3, 4) or ONE)
        if (c := _mk_cell(lo, hi, dict(digits), div, md, bound)) is not None:
            out.append(c)
    return out


def _sig_skips(c, d):
    """The pair `meet` skips, restated from the two cells' fields."""
    below = lambda x: [i for i, ds in x.digits if not ds.has0]
    return ((c.hi is not None and o.compare(d.lo, c.hi) >= 0)
            or (d.hi is not None and o.compare(c.lo, d.hi) >= 0)
            or any(i < d.div for i in below(c)) or any(i < c.div for i in below(d)))


def test_meet_matches_every_pair_met_then_pruned():
    rng = random.Random(3302)
    bounds = (None, None, o.add(o.mul(o.W, 4), 2), o.omega_power(3))
    seen = {"skipped": 0, "met": 0, "nonempty": 0}
    for r in range(300):
        bound = bounds[r % len(bounds)]
        xs = prune_cells(_rand_cells(rng, rng.randint(1, 6), bound))
        ys = prune_cells(_rand_cells(rng, rng.randint(1, 6), bound))
        for c in xs:
            for d in ys:
                m = cell_and(c, d)
                if _sig_skips(c, d):
                    assert m is None, (c, d)
                    seen["skipped"] += 1
                else:
                    seen["met"] += 1
                    seen["nonempty"] += m is not None
        ref = prune_cells([m for c in xs for d in ys if (m := cell_and(c, d)) is not None])
        assert meet(xs, ys) == ref, (xs, ys)
        assert meet(ys, xs) == ref
    assert min(seen.values()) >= 300, seen


def test_prune_matches_every_ordered_pair():
    rng = random.Random(3303)
    rejected_below_div = 0
    for r in range(250):
        cells = _rand_cells(rng, rng.randint(2, 14), None if r % 2 else o.omega_power(4))
        # cells meeting each other sit inside both, so subsumption is common
        cells += [m for c, d in zip(cells, cells[1:]) if (m := cell_and(c, d)) is not None]
        uniq = sorted(set(cells), key=_cell_key)
        want = tuple(c for c in uniq
                     if not any(k is not c and _cell_subsumes(k, c) for k in uniq))
        assert prune_cells(cells) == want, cells
        for c in uniq:
            below = (1 << c.div) - 1
            rejected_below_div += sum(1 for k in uniq if _prune_sig(k)[5] & below)
    assert rejected_below_div >= 200


def _old_cofinal_below(c, e):
    """`space._cofinal_below` before its one-pass form."""
    if c.md is None:
        if c.constraint(e - 1).is_finite:
            return False
        return all(not c.constraint(i).is_empty for i in range(c.div, e - 1))
    if (not ds_and(c.constraint(e - 1), c.md).is_finite
            and all(c.constraint(i).has0 for i in range(c.div, e - 1))):
        return True
    if c.constraint(e - 1).is_finite:
        return False
    for p in range(c.div, e - 1):
        if ds_and(c.constraint(p), c.md).min_geq(1) is None:
            continue
        if not all(c.constraint(i).has0 for i in range(c.div, p)):
            continue
        if all(not c.constraint(i).is_empty for i in range(p + 1, e - 1)):
            return True
    return False


def test_cofinal_below_matches_the_old_formula():
    rng = random.Random(3304)
    seen = {True: 0, False: 0, "md": 0}
    for _ in range(1500):
        lo, digits, div, md = _rand_shape(rng, 5)
        c = _mk_cell(lo, None, dict(digits), div, md, None)
        if c is None:
            continue
        for e in range(c.div + 1, c.div + 9):
            got = _cofinal_below(c, e)
            assert got == _old_cofinal_below(c, e), (c, e)
            seen[got] += 1
            seen["md"] += got and c.md is not None
    assert min(seen.values()) >= 300, seen

