"""The cell-level derivative pipeline against the pattern formulas it replaced.

Closure, the Cantor-Bendixson derivative and the separation and oscillation
steps run on canonical cell tuples.  Their results must equal, tuple for
tuple, the cells of the pattern formulas they were defined by: the closure
as the or of the set and its limit-point patterns, the separation step as
the and of two closures, the oscillation step as F and the or of the
separated pairs.  Those formulas are kept here as the reference.

The maximal-cell prune is checked against the all-pairs scan, and the
cached `Cell` hash against equality across every way a cell is built.
"""
import dataclasses
import random
from fractions import Fraction

import pytest

from ordrank import ordinal as o
from ordrank.derivative import (CantorBendixson, DerivativeOp, OscDeriv,
                                SeparationDeriv, apply)
from ordrank.functions import char_fn, make_stepfn
from ordrank.ordinal import W, ZERO, Ordinal, add, mul
from ordrank.patterns import (Cell, PDiv, _cell_key, _cell_subsumes, _mk_cell,
                              and_, cell_and, cells_pattern, digit_in, divpow,
                              ds_mod, mk_digitset, not_, or_, ord_ge, ord_lt,
                              prune_cells, to_cells)
from ordrank.space import (SpaceDesc, _cofinal_below, base_topology,
                           cb_derivative, closure, limit_cells,
                           partition_cells, refine)

from test_space import rand_pattern, rich_pattern


def _ref_limit_points_of_cell(c):
    out = []
    maxd = max((i for i, _ in c.digits), default=-1)
    itv = []
    if not c.lo.is_zero:
        itv.append(ord_ge(o.add(c.lo, 1)))
    if c.hi is not None:
        itv.append(ord_lt(o.add(c.hi, 1)))
    e_uniform = max(maxd + (2 if c.md is None else 3), c.div + 1)
    for e in range(c.div + 1, e_uniform):
        if not _cofinal_below(c, e):
            continue
        conds = [PDiv(e), not_(PDiv(e + 1)),
                 digit_in(e, c.constraint(e).shift_up(1))]
        conds += [digit_in(i, ds) for i, ds in c.digits if i > e]
        out.append(and_(*(conds + itv)))
    if _cofinal_below(c, e_uniform):
        out.append(and_(*([divpow(e_uniform)] + itv)))
    return out


def _ref_limit_points(p, space):
    return [lp for c in to_cells(p, space.bound) for lp in _ref_limit_points_of_cell(c)]


def _ref_per_partition_cell(base, p, t):
    if not t.declared:
        return base(p, t.space)
    parts = [and_(base(and_(p, cpat), t.space), cpat) for cpat in partition_cells(t)]
    return cells_pattern(to_cells(or_(*parts), t.space.bound))


def _ref_closure(p, t):
    return _ref_per_partition_cell(
        lambda q, s: cells_pattern(to_cells(or_(q, *_ref_limit_points(q, s)), s.bound)),
        p, t)


def _ref_cb(p, t):
    return _ref_per_partition_cell(
        lambda q, s: cells_pattern(to_cells(or_(*_ref_limit_points(q, s)), s.bound)),
        p, t)


def _ref_sep(F, a, b, t):
    return and_(_ref_closure(and_(F, a), t), _ref_closure(and_(F, b), t))


def _ref_osc(F, fn, eps, t):
    pieces = fn.pieces
    parts = [_ref_sep(F, pieces[i][1], pieces[j][1], t)
             for i in range(len(pieces)) for j in range(i + 1, len(pieces))
             if abs(pieces[i][0] - pieces[j][0]) >= eps]
    return and_(F, or_(*parts))


def _topologies():
    plain = SpaceDesc(add(mul(W, 8), 8))
    out = [base_topology(plain), base_topology(SpaceDesc(None))]
    out.append(refine(out[0], [ord_lt(mul(W, 3))], 2))
    return out


def test_cell_pipeline_matches_pattern_formulas():
    rng = random.Random(6060)
    tops = _topologies()
    for i in range(180):
        t = tops[i % 3]
        bound = t.space.bound

        def draw():
            return rich_pattern(rng) if rng.random() < 0.5 else rand_pattern(rng)

        def same(got, ref):
            return to_cells(got, bound) == to_cells(ref, bound)

        p = draw()
        assert same(closure(p, t), _ref_closure(p, t)), p
        F = closure(draw(), t)
        assert same(cb_derivative(F, t), _ref_cb(F, t)), F
        a, b = draw(), draw()
        assert same(apply(DerivativeOp(SeparationDeriv(a, b), t), F),
                    _ref_sep(F, a, b, t)), (F, a, b)
        fn = char_fn(a, t.space) if i % 2 else make_stepfn(
            [(Fraction(0), and_(a, b)), (Fraction(1), and_(a, not_(b))),
             (Fraction(2), not_(a))], t.space)
        eps = Fraction(1, rng.randint(1, 2))
        assert same(apply(DerivativeOp(OscDeriv(fn, eps), t), F),
                    _ref_osc(F, fn, eps, t)), (F, fn, eps)
        assert same(apply(DerivativeOp(CantorBendixson(), t), F), _ref_cb(F, t))


def _ref_prune(cells):
    """The maximal cells by the all-pairs O(n^2) scan, in _cell_key order."""
    uniq = sorted(set(cells), key=_cell_key)
    return tuple(c for c in uniq
                 if not any(k != c and _cell_subsumes(k, c) for k in uniq))


def _cell_pool(rng, bound, rounds):
    """Cells of random patterns, their pairwise meets and their limit cells."""
    base = []
    for _ in range(rounds):
        p = rich_pattern(rng) if rng.random() < 0.5 else rand_pattern(rng)
        base += to_cells(p, bound)
    pool = list(base)
    pool += [m for c in base for d in rng.sample(base, min(6, len(base)))
             if (m := cell_and(c, d, bound)) is not None]
    pool += [lc for c in base for lc in limit_cells(c, bound)]
    return pool


def test_prune_cells_matches_reference():
    rng = random.Random(7070)
    bounds = (add(mul(W, 2), 3), add(mul(W, 8), 8), add(W, 1), o.from_int(9), None)
    distinct = kept = 0
    for i in range(150):
        bound = bounds[i % len(bounds)]
        pool = _cell_pool(rng, bound, rng.randint(1, 5))
        cells = pool + rng.choices(pool, k=len(pool) // 3) if pool else []
        rng.shuffle(cells)
        got = prune_cells(cells)
        assert got == _ref_prune(cells), (bound, cells)
        assert prune_cells(reversed(cells)) == got
        distinct += len(set(cells))
        kept += len(got)
    # the pool comes from to_cells, which prunes too: it must not be vacuous
    assert distinct > 1000 and 0 < kept < distinct


def test_cell_hash_contract():
    rng = random.Random(7171)
    for bound in (add(mul(W, 8), 8), None):
        pool = _cell_pool(rng, bound, 30)
        for c in pool:
            rebuilt = (
                Cell(Ordinal(c.lo.terms), None if c.hi is None else Ordinal(c.hi.terms),
                     tuple((i, mk_digitset(ds.prefix, ds.period, ds.residues))
                           for i, ds in c.digits), c.div, c.md),
                _mk_cell(c.lo, c.hi, dict(c.digits), c.div, c.md, bound),
                cell_and(c, c, bound),
                cell_and(c, Cell(ZERO, None, (), 0), bound),
            )
            for r in rebuilt:
                assert r == c and hash(r) == hash(c), (c, r)
        # the one-constraint carving cells of cell_minus are built directly
        carve = Cell(ZERO, None, ((1, ds_mod(2, 0)),), 0)
        twin = Cell(ZERO, None, ((1, mk_digitset((), 2, {0})),), 0)
        assert carve == twin and hash(carve) == hash(twin)
        assert carve != Cell(ZERO, None, ((1, ds_mod(2, 1)),), 0)
        for c in pool[:5]:
            met = cell_and(c, carve, bound)
            if met is not None:
                again = _mk_cell(met.lo, met.hi, dict(met.digits), met.div, met.md, bound)
                assert again == met and hash(again) == hash(met)
    c = pool[0]
    for name in ("lo", "hi", "digits", "div", "md", "_hash"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, None)
    assert repr(c) == "Cell(lo=%r, hi=%r, digits=%r, div=%r, md=%r)" % (
        c.lo, c.hi, c.digits, c.div, c.md)
    assert not hasattr(c, "__dict__")
