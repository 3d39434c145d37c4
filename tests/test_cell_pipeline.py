"""The cell-level derivative pipeline against the pattern formulas it replaced.

Closure, the Cantor-Bendixson derivative and the separation and oscillation
steps run on canonical cell tuples.  Their results must equal, tuple for
tuple, the cells of the pattern formulas they were defined by: the closure
as the or of the set and its limit-point patterns, the separation step as
the and of two closures, the oscillation step as F and the or of the
separated pairs.  Those formulas are kept here as the reference.

The maximal-cell prune is checked against the all-pairs scan, the
absorbing meet against the prune of the whole pairwise product, and the
cached `Cell` hash against equality across every way a cell is built.

Stage templates build their cells through one slot builder; the pattern
formulas of the old `CellTemplate.instantiate` and `limit_pattern` are kept
here as its reference.

The Borel layer, the convergence step, the alpha_xi inclusion checks and
the iteration trace run on cells; the pattern-level difference chain (with
its pattern difference and even-difference assertion), `is_open`,
convergence step and inclusion checks they replaced are kept here as their
reference, and trace stages are checked against `stage_at`.
"""
import dataclasses
import random
from fractions import Fraction

import pytest

from ordrank import ordinal as o
from ordrank.derivative import (Budget, CantorBendixson, CellTemplate, ConvDeriv,
                                DerivativeOp, IterationTrace, OscDeriv,
                                PeriodicTemplate, SeparationDeriv, StageTemplate,
                                _max_atom_base, _steps, apply, iterate,
                                match_any_template)
from ordrank.errors import (InclusionViolation, ToolkitError,
                            UnsupportedProgression)
from ordrank.family import even_diff_union, explicit_family, validate_set_family
from ordrank.functions import FnFamily, char_fn, eventual, make_stepfn
from ordrank.ordinal import W, ZERO, Ordinal, add, from_int, mul, omega_power
from ordrank.patterns import (FALSE, TRUE, Cell, PDiv, PMinDigit, _cell_key,
                              _cell_subsumes, _mk_cell, and_, cell_and,
                              cells_difference, cells_pattern, digit_in, divpow,
                              ds_ge, ds_mod, meet, min_digit_in,
                              mk_digitset, not_, or_, ord_ge, ord_lt,
                              prune_cells, subst_n, to_cells)
from ordrank.ranks import alpha_xi_verify
from ordrank.space import (BorelClass, SpaceDesc, _cofinal_below,
                           base_topology, borel_class, cb_derivative, cells_eq,
                           closure, closure_cells, difference_chain, is_closed,
                           is_empty, is_open, limit_cells, partition_cells,
                           refine, sample_points, sem_eq)

from test_functions import _rand_param_pattern
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
    return cells_pattern(to_cells(or_(*parts), t.space.bound), t.space.bound)


def _ref_closure(p, t):
    return _ref_per_partition_cell(
        lambda q, s: cells_pattern(to_cells(or_(q, *_ref_limit_points(q, s)), s.bound), s.bound),
        p, t)


def _ref_cb(p, t):
    return _ref_per_partition_cell(
        lambda q, s: cells_pattern(to_cells(or_(*_ref_limit_points(q, s)), s.bound), s.bound),
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
             if (m := cell_and(c, d)) is not None]
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


def _ref_meet(xs, ys):
    """The maximal cells of the whole pairwise product."""
    return prune_cells([m for c in xs for d in ys
                        if (m := cell_and(c, d)) is not None])


def test_meet_matches_product_reference():
    """`meet` skips meets it knows are absorbed; its tuples must be those of
    the whole product, pruned.  One side is often built inside the other
    (cells of p against cells of p and q), so both absorption cases run."""
    rng = random.Random(7272)
    bounds = (add(mul(W, 2), 3), add(mul(W, 8), 8), add(W, 1), o.from_int(9), None)
    seen = {"c": 0, "d": 0, "meets": 0}

    def draw():
        return rich_pattern(rng) if rng.random() < 0.5 else rand_pattern(rng)

    for i in range(240):
        bound = bounds[i % len(bounds)]
        p, q = draw(), draw()
        xs = to_cells(p, bound)
        kind = i % 3
        if kind == 0:
            ys = to_cells(and_(p, q), bound)
        elif kind == 1:
            ys = to_cells(or_(q, and_(p, draw())), bound)
        else:
            pool = _cell_pool(rng, bound, 2) + list(xs)
            ys = prune_cells(rng.sample(pool, min(len(pool), rng.randint(1, 8))))
        if rng.random() < 0.5:
            xs, ys = ys, xs
        for c in xs:
            for d in ys:
                m = cell_and(c, d)
                if m is not None:
                    # the lemma the absorption rests on
                    assert _cell_subsumes(c, m) and _cell_subsumes(d, m), (c, d)
                    seen["c"] += m == c
                    seen["d"] += m == d and m != c
        got = meet(xs, ys)
        assert got == _ref_meet(xs, ys), (bound, xs, ys)
        assert meet(ys, xs) == got
        seen["meets"] += bool(got)
    assert min(seen.values()) >= 50, seen


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
                cell_and(c, c),
                cell_and(c, Cell(ZERO, None, (), 0)),
            )
            for r in rebuilt:
                assert r == c and hash(r) == hash(c), (c, r)
        # the one-constraint carving cells of cell_minus are built directly
        carve = Cell(ZERO, None, ((1, ds_mod(2, 0)),), 0)
        twin = Cell(ZERO, None, ((1, mk_digitset((), 2, {0})),), 0)
        assert carve == twin and hash(carve) == hash(twin)
        assert carve != Cell(ZERO, None, ((1, ds_mod(2, 1)),), 0)
        for c in pool[:5]:
            met = cell_and(c, carve)
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


def _ref_instantiate(ct, j, lo=None):
    """The old `CellTemplate.instantiate`: the cell at stage j as a pattern."""
    parts = []
    div = ct.div + ct.div_step * j
    if div >= 1:
        parts.append(divpow(div))
    if ct.md is not None:
        parts.append(PMinDigit(ct.md))
    for i, istep, ds in ct.digits:
        parts.append(digit_in(i + istep * j, ds))
    lo_j = o.add(ct.lo, o.mul(ct.lo_step, j)) if lo is None else lo
    if not lo_j.is_zero:
        parts.append(ord_ge(lo_j))
    if ct.hi is not None:
        parts.append(ord_lt(ct.hi))
    return and_(*parts)


def _ref_limit_pattern(ct):
    """The old `CellTemplate.limit_pattern`: the intersection over all stages."""
    if ct.div_step > 0:
        return FALSE
    for _, istep, ds in ct.digits:
        if istep != 0:
            if 0 in ds:
                raise UnsupportedProgression("moving digit position with 0 allowed")
            return FALSE
    return _ref_instantiate(ct, 0, o.add(ct.lo, o.mul(ct.lo_step, W)))


def _ref_stage(cts, j, bound):
    """to_cells of the or of the old patterns at stage j (W: the limit)."""
    if j == W:
        return to_cells(or_(*(_ref_limit_pattern(ct) for ct in cts)), bound)
    return to_cells(or_(*(_ref_instantiate(ct, j) for ct in cts)), bound)


def _outcome(f):
    try:
        return f()
    except UnsupportedProgression as e:
        return "raises %s" % e


_TEMPLATE_SPACES = (SpaceDesc(None), SpaceDesc(add(mul(W, 8), 8)),
                    SpaceDesc(add(omega_power(2), 1)))


def _rand_ds(rng):
    return mk_digitset([rng.random() < 0.5 for _ in range(rng.randint(0, 3))],
                       rng.randint(1, 3), {r for r in range(3) if rng.random() < 0.5})


def _rand_cell_template(rng):
    ords = (ZERO, from_int(1), from_int(3), W, add(W, 2), mul(W, 3), omega_power(2))
    lo = rng.choice(ords)
    slots = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("const", "pos"))
        slots.append((rng.randint(0, 2), 0 if kind == "const" else rng.randint(1, 2),
                      _rand_ds(rng)))
    return CellTemplate(
        lo, rng.choice((ZERO, ZERO, from_int(1), from_int(2), W)),
        rng.choice((None, None, add(lo, rng.choice(ords[1:])))),
        rng.choice((0, 0, 1, 2)), rng.choice((0, 0, 0, 1)),
        rng.choice((None, None, ds_mod(2, 1), ds_ge(2), _rand_ds(rng))), tuple(slots))


def _compare_templates(rng, rounds):
    """Builder against reference on `rounds` random stage templates; returns
    how often each slot kind, moving field and outcome came up."""
    seen = {"const": 0, "pos": 0, "shared": 0, "md": 0,
            "div_step": 0, "lo_step": 0, "raises": 0, "cells": 0, "limit cells": 0}
    fixed = [
        CellTemplate(ZERO, ZERO, None, 0, 0, None, ()),
        CellTemplate(W, from_int(1), None, 1, 0, ds_mod(2, 1),
                     ((1, 0, ds_mod(2, 0)), (1, 1, ds_ge(1)))),
        CellTemplate(from_int(1), ZERO, mul(W, 3), 0, 1, None,
                     ((0, 2, ds_mod(3, 1)), (2, 1, ds_ge(1)))),
        CellTemplate(ZERO, W, None, 0, 0, None, ((0, 1, ds_mod(2, 0)),)),
    ]
    for n in range(rounds):
        space = _TEMPLATE_SPACES[n % 3]
        bound = space.bound
        cts = fixed if n < 3 else [_rand_cell_template(rng)
                                   for _ in range(rng.randint(1, 3))]
        for ct in cts:
            for _, step, _ in ct.digits:
                seen["pos" if step else "const"] += 1
            seen["shared"] += len(ct.digits) > len({s[0] for s in ct.digits})
            seen["md"] += ct.md is not None
            seen["div_step"] += ct.div_step > 0
            seen["lo_step"] += not ct.lo_step.is_zero
            for j in list(range(13)) + [W]:
                got = _outcome(lambda: ct.cell_at(j, bound))
                want = _outcome(lambda: (to_cells(_ref_limit_pattern(ct), bound) if j == W
                                         else to_cells(_ref_instantiate(ct, j), bound)))
                if isinstance(got, str):
                    seen["raises"] += 1
                    assert got == want, (ct, j)
                else:
                    assert want == (() if got is None else (got,)), (ct, j, space)
                    seen["cells" if j != W else "limit cells"] += got is not None
        st = StageTemplate(tuple(cts))
        for j in list(range(13)) + [W]:
            assert (_outcome(lambda: st.instantiate(j, space))
                    == _outcome(lambda: _ref_stage(cts, j, bound))), (cts, j)
        assert _outcome(lambda: st.limit(space)) == _outcome(lambda: _ref_stage(cts, W, bound))
    return seen


def test_template_builder_matches_pattern_reference():
    seen = _compare_templates(random.Random(8080), 300)
    # every slot kind and every moving field came up, with live cells on both sides
    assert min(seen.values()) > 20, seen


def _windows_templates(space):
    """Templates matched on windows of six stages of real iterations."""
    t = base_topology(space)
    A = min_digit_in(ds_mod(2, 0))
    B = or_(ord_lt(1), min_digit_in(ds_mod(2, 1)))
    ops = [DerivativeOp(CantorBendixson(), t), DerivativeOp(SeparationDeriv(A, B), t),
           DerivativeOp(OscDeriv(char_fn(A, space), Fraction(1, 2)), t)]
    starts = [ord_ge(0), closure(or_(A, divpow(2)), t), closure(and_(A, ord_lt(mul(W, 5))), t)]
    for op in ops:
        for start in starts:
            stages = [to_cells(start, space.bound)]
            for _ in range(14):
                stages.append(_steps(op, stages[-1], 1))
            for k in range(len(stages) - 5):
                tmpl = match_any_template(stages[k:k + 6])
                if tmpl is not None:
                    yield tmpl


def test_matched_templates_match_pattern_reference():
    matched = 0
    for space in _TEMPLATE_SPACES:
        for tmpl in _windows_templates(space):
            assert isinstance(tmpl, PeriodicTemplate)
            matched += 1
            for dj in range(13):
                cls = tmpl.classes[dj % tmpl.period]
                assert (tmpl.instantiate(dj, space)
                        == _ref_stage(cls.cells, dj // tmpl.period, space.bound)), (tmpl, dj)
            assert (_outcome(lambda: tmpl.limit(space))
                    == _outcome(lambda: _ref_stage(tmpl.classes[0].cells, W, space.bound)))
    assert matched > 10, matched


# ---------------------------------------------------------------------------
# The Borel layer, the convergence step, alpha_xi and the trace on cells.

def _borel_topologies():
    """The four oracle spaces, the ceiling space and w*8+8 refined by {x < w*3}."""
    spaces = [SpaceDesc(add(mul(W, 8), 8)), SpaceDesc(add(mul(W, 3), 2)),
              SpaceDesc(add(W, 1)), SpaceDesc(from_int(9)), SpaceDesc(None)]
    tops = [base_topology(s) for s in spaces]
    return tops + [refine(tops[0], [ord_lt(mul(W, 3))], 2)]


def _ref_sem_difference(a, b, space):
    return cells_pattern(cells_difference(to_cells(a, space.bound), to_cells(b, space.bound)),
                         space.bound)


def _ref_difference_chain(p, t, budget=16):
    chain = [TRUE]
    cur = TRUE
    for k in range(budget):
        part = _ref_sem_difference(cur, p, t.space) if k % 2 == 0 else and_(cur, p)
        nxt = closure(part, t)
        chain.append(nxt)
        if is_empty(nxt, t.space):
            return chain
        if to_cells(nxt, t.space.bound) == to_cells(cur, t.space.bound):
            return None
        cur = nxt
    return None


def _ref_even_differences(chain):
    parts = []
    for k in range(0, len(chain), 2):
        lower = chain[k + 1] if k + 1 < len(chain) else FALSE
        parts.append(and_(chain[k], not_(lower)))
    return or_(*parts)


def _ref_is_open(p, t):
    return is_closed(_ref_sem_difference(TRUE, p, t.space), t)


def _ref_borel_class(p, t):
    closed, opened = is_closed(p, t), _ref_is_open(p, t)
    if closed and opened:
        return BorelClass.CLOPEN
    if opened:
        return BorelClass.OPEN
    if closed:
        return BorelClass.CLOSED
    chain = _ref_difference_chain(p, t)
    if chain is not None:
        assert sem_eq(_ref_even_differences(chain), p, t.space)
        return BorelClass.DELTA2
    return None  # the reference gives up


def _ref_conv_step(cd, F, t):
    """The convergence step with F folded into the parametric W_N."""
    bound = t.space.bound
    wparam = and_(cd.tail_disagreement_param(), cells_pattern(F, bound))
    core = to_cells(eventual(wparam), bound)
    n_star = 8 + _max_atom_base(wparam)

    def limit_part(n):
        wn = to_cells(subst_n(wparam, n), bound)
        return prune_cells(cells_difference(closure_cells(wn, t), wn))

    lp = limit_part(n_star)
    for probe in (n_star + 7, n_star + 19):
        if not cells_eq(limit_part(probe), lp):
            raise UnsupportedProgression("convergence limit points did not stabilize")
    return meet(F, prune_cells(lp + core))


def _ref_alpha_xi_verify(A, B, fam, xi, t):
    space = t.space
    claims = tuple(validate_set_family(fam, t, xi=xi))
    u = even_diff_union(fam)
    bad = _ref_sem_difference(A, u, space)
    if not is_empty(bad, space):
        pt = sample_points(bad, space, 1)
        raise InclusionViolation("A not covered", pt[0] if pt else None)
    bad = and_(u, B)
    if not is_empty(bad, space):
        pt = sample_points(bad, space, 1)
        raise InclusionViolation("differences meet B", pt[0] if pt else None)
    return claims + ("A within the even differences", "differences avoid B")


def _result(f):
    """f's value, or the type and arguments of the package error it raised."""
    try:
        return f()
    except ToolkitError as e:
        return (type(e).__name__,) + e.args


def test_borel_layer_matches_pattern_reference():
    # The reference's even-difference check negates every chain set through
    # NNF and DNF.  Under seed 9090 one ceiling-space set took 40 s there on
    # 2 cores with Python 3.11.7 (milliseconds on cells), so this seed keeps
    # the reference quick.
    # Where the reference gives up (the empty set, whose F_1 equals F_0, and
    # chains it cannot finish in 16 steps), the chain's even differences are
    # checked on cells, or the chain is transfinite and the set Delta2.
    rng = random.Random(3)
    tops = _borel_topologies()
    seen = {c: 0 for c in BorelClass}
    chains = 0
    gave_up = {"finite": 0, "transfinite": 0}
    for i in range(150):
        t = tops[i % len(tops)]
        bound = t.space.bound
        p = rich_pattern(rng) if rng.random() < 0.5 else rand_pattern(rng)
        got, ref = difference_chain(p, t), _ref_difference_chain(p, t)
        cls, ref_cls = borel_class(p, t), _ref_borel_class(p, t)
        if ref is not None:
            assert got == ref, (p, t)
        elif got is not None:
            cs = [to_cells(F, bound) for F in got]
            evens = [c for k in range(0, len(cs) - 1, 2)
                     for c in cells_difference(cs[k], cs[k + 1])]
            assert not cs[-1] and cells_eq(prune_cells(evens), to_cells(p, bound)), \
                (p, t)
            gave_up["finite"] += 1
        else:
            assert cls is BorelClass.DELTA2, (p, t)
            gave_up["transfinite"] += 1
        chains += got is not None and len(got) > 3
        assert is_open(p, t) == _ref_is_open(p, t), (p, t)
        assert ref_cls is None or cls is ref_cls, (p, t)
        seen[cls] += 1
    # every class comes up, chains of more than two steps, and both kinds of
    # answer where the reference gave up
    assert min(seen.values()) >= 1 and seen[BorelClass.DELTA2] >= 10, seen
    assert chains >= 20, chains
    assert min(gave_up.values()) >= 1, gave_up


def test_conv_step_matches_pattern_reference():
    rng = random.Random(9191)
    tops = _borel_topologies()
    seen = {"cells": 0, "empty": 0, "raises": 0}
    for i in range(360):
        t = tops[i % len(tops)]
        p = _rand_param_pattern(rng)
        fam = FnFamily(((Fraction(1), p), (Fraction(0), not_(p))), t.space)
        F = (to_cells(TRUE, t.space.bound) if i % 4 == 0 else
             closure_cells(to_cells(rich_pattern(rng), t.space.bound), t))
        cd = ConvDeriv(fam, Fraction(1, 2))
        got = _result(lambda: cd.step(F, t))
        assert got == _result(lambda: _ref_conv_step(cd, F, t)), (p, F, t)
        seen["empty" if got == () else "cells" if isinstance(got[0], Cell) else "raises"] += 1
    assert min(seen.values()) >= 30, seen


def test_alpha_xi_inclusions_match_pattern_reference():
    """Difference-chain witnesses for random sets, checked against perturbed
    pairs: the same certificate, or the same violation and witness point."""
    rng = random.Random(9292)
    tops = _borel_topologies()
    seen = {"A not covered": 0, "differences meet B": 0, "certified": 0}
    for i in range(240):
        t = tops[i % len(tops)]
        p = rich_pattern(rng) if rng.random() < 0.5 else rand_pattern(rng)
        chain = difference_chain(p, t)
        if chain is None:
            continue
        fam = explicit_family(chain)
        A, B = p, not_(p)
        if rng.random() < 0.6:
            A = or_(A, and_(rand_pattern(rng), rand_pattern(rng)))
        if rng.random() < 0.6:
            B = or_(B, and_(rand_pattern(rng), rand_pattern(rng)))
        xi = rng.choice((1, 2))
        got = _result(lambda: alpha_xi_verify(A, B, fam, xi, t).claims)
        assert got == _result(lambda: _ref_alpha_xi_verify(A, B, fam, xi, t)), (A, B, t)
        seen[got[1] if got[0] == "InclusionViolation" else "certified"] += 1
    assert min(seen.values()) >= 10, seen


def test_trace_stages_are_cells():
    """Every recorded stage is a cell tuple, and `stage_at` returns its
    pattern, also from a trace that keeps only stage 0 and the limit stages
    and so steps forward from stage 0."""
    rng = random.Random(9393)
    tops = _borel_topologies()
    checked = 0
    for i in range(24):
        t = tops[i % len(tops)]
        a = rich_pattern(rng)
        fn = char_fn(a, t.space)
        p = _rand_param_pattern(rng)
        variants = [CantorBendixson(), SeparationDeriv(a, rand_pattern(rng)),
                    OscDeriv(fn, Fraction(1, 2)),
                    ConvDeriv(FnFamily(((Fraction(1), p), (Fraction(0), not_(p))),
                                       t.space), Fraction(1, 2))]
        for v in variants:
            tr = _result(lambda: iterate(DerivativeOp(v, t), TRUE, Budget(40, 2)))
            if not isinstance(tr, IterationTrace):
                continue
            thin = IterationTrace(tr.op, [ev for ev in tr.events
                                          if ev[0] == ZERO or not ev[0].is_finite])
            for st, cells in tr.events:
                assert isinstance(cells, tuple) and all(isinstance(c, Cell) for c in cells)
                assert tr.stage_at(st) == cells_pattern(cells, t.space.bound), (v, st)
                assert thin.stage_at(st) == cells_pattern(cells, t.space.bound), (v, st)
                checked += 1
            assert tr.log_lines()[-1].startswith("stage %s set " % tr.events[-1][0])
    assert checked >= 200, checked
