"""Stage templates and the iterations that may jump with them.

A template cell has one slot shape, (i, step, ds): digit i + step*j lies in
ds at stage j.  `CellTemplate.nonempty_forever` may say True only when
`cell_at(j)` is nonempty at every stage j of the ceiling space; it is
checked on three templates that empty at a finite stage, on one whose
slots part under a least-digit set, and on seeded random templates up to
j = 64.

On the ceiling space `iterate` jumps only through its gates: a test-only
step whose six-stage window fits a template is refused when a probe stage
contradicts the template, and when the template fails `nonempty_forever`;
with neither, the same step jumps.

`iterate` matches templates only on the ceiling space.  Its docstring's
finiteness lemma says that on a bounded space [0, beta), beta < w^w, of
Cantor-Bendixson rank r, every iteration ends (empty or at a fixpoint)
within r + 1 steps; seeded random iterations of every variant check it
with no jump budget, under the base topology and a refinement.
"""
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from ordrank import derivative
from ordrank.derivative import (Budget, CantorBendixson, CellTemplate, ConvDeriv,
                                DerivativeOp, HausdorffStep, OscDeriv,
                                SeparationDeriv, _steps, iterate, match_any_template)
from ordrank.errors import BudgetExceeded, UnsupportedProgression
from ordrank.functions import FnFamily, char_fn
from ordrank.ordinal import ONE, W, ZERO, Ordinal, add, from_int, mul, omega_power
from ordrank.patterns import TRUE, _mk_cell, ds_eq, mk_digitset, not_, ord_lt
from ordrank.space import SpaceDesc, base_topology, closure, refine

from test_cell_pipeline import _rand_cell_template
from test_functions import _rand_param_pattern
from test_space import rich_pattern

HORIZON = 64


def _first_empty(ct):
    """The least stage j <= HORIZON whose cell is empty, or None."""
    return next((j for j in range(HORIZON + 1) if ct.cell_at(j, None) is None), None)


@pytest.mark.parametrize("ct, empty_from", [
    # lo = w*j climbs to hi = w*5
    (CellTemplate(ZERO, W, mul(W, 5), 0, 0, None, ()), 5),
    # div = 1 + 2j overtakes the slot at 9 + j, whose set {1} lacks 0
    (CellTemplate(ZERO, ZERO, None, 1, 2, None, ((9, 1, ds_eq(1)),)), 9),
    # slots 3 + 2j and 5 + j cross at j = 2, and {1} & {2} is empty
    (CellTemplate(ZERO, ZERO, None, 0, 0, None, ((3, 2, ds_eq(1)), (5, 1, ds_eq(2)))), 2),
    # slots at 1 and 1 + j part, and the least nonzero digit, which md wants
    # to be 1, finds at j = 1 no position e >= div = j below the {2}-slot
    # with a 1: the {0, 2} slot took the one free position that j = 0 had
    (CellTemplate(ONE, ZERO, None, 0, 1, ds_eq(1),
                  ((1, 0, mk_digitset((True, False, True), 1, ())), (1, 1, ds_eq(2)))), 1),
])
def test_nonempty_forever_refuses_templates_that_empty(ct, empty_from):
    assert ct.cell_at(0, None) is not None
    assert _first_empty(ct) == empty_from
    assert not ct.nonempty_forever()


def test_nonempty_forever_implies_every_stage_nonempty():
    rng = random.Random(2929)
    said_yes = refused_live = 0
    for _ in range(320):
        ct = _rand_cell_template(rng)
        if ct.nonempty_forever():
            said_yes += 1
            assert _first_empty(ct) is None, ct
        elif ct.cell_at(0, None) is not None:
            refused_live += 1
    # the rule says True often, and refuses templates live at j = 0 too
    assert said_yes >= 80 and refused_live >= 40, (said_yes, refused_live)


# ---------------------------------------------------------------------------
# The jump gates on the ceiling space.

CEILING = base_topology(SpaceDesc(None))


@dataclass(frozen=True)
class _Climb:
    """A test-only step: one cell [lo, hi) goes to [lo + 1, hi), and to the
    empty set once lo + 1 reaches stop.  Its stages 1..6 fit the template
    lo = 1 + j, so only the gates after the match keep it from jumping."""
    hi: Ordinal | None
    stop: int | None

    def step(self, F, t):
        if not F:
            return ()
        lo = add(F[0].lo, 1)
        if self.stop is not None and lo.to_int() >= self.stop:
            return ()
        c = _mk_cell(lo, self.hi, {}, 0, None, t.space.bound)
        return () if c is None else (c,)


def _first_window_template(op, trace):
    """The template of the first full window, which iterate saw at stage 6."""
    window = [cells for _, cells in trace.events[1:7]]
    tmpl = match_any_template(window)
    assert tmpl is not None
    return tmpl, tmpl.verified(lambda dj: _steps(op, window[0], dj), CEILING.space)


@pytest.mark.parametrize("climb, gate", [
    # stage 13 (the second probe from the window start) is empty, while the
    # template says [13, w^w); a jump would give a limit stage [w, w^w)
    (_Climb(None, 10), "probe"),
    # the upper end 40 is fixed, so the template's cell is empty from j = 39
    (_Climb(from_int(40), None), "nonempty_forever"),
])
def test_jump_gates_refuse(climb, gate):
    op = DerivativeOp(climb, CEILING)
    trace = iterate(op, TRUE)
    assert trace.limit_jumps == 0 and trace.rank == from_int(climb.stop or 40)
    tmpl, verified = _first_window_template(op, trace)
    assert verified == (gate != "probe")
    assert tmpl.nonempty_forever() == (gate != "nonempty_forever")


def test_jump_gates_pass_a_template_that_holds():
    """The control: with no stop and no upper end every gate passes, and
    the iteration jumps to the limit stage w, which is [w, w^w)."""
    op = DerivativeOp(_Climb(None, None), CEILING)
    with pytest.raises(BudgetExceeded) as err:
        iterate(op, TRUE, Budget(20, 1))
    trace = err.value.args[0]
    assert trace.limit_jumps == 1
    stage, cells = next(ev for ev in trace.events if not ev[0].is_finite)
    assert stage == W and cells == (_mk_cell(W, None, {}, 0, None, None),)


# ---------------------------------------------------------------------------
# The finiteness lemma on bounded spaces.

# (space, its Cantor-Bendixson rank): w*m + k, w^k and w^k + 1
_BOUNDED = [(SpaceDesc(add(mul(W, 3), 2)), 2), (SpaceDesc(mul(W, 2)), 2),
            (SpaceDesc(add(W, 1)), 2), (SpaceDesc(omega_power(2)), 2),
            (SpaceDesc(omega_power(3)), 3), (SpaceDesc(add(omega_power(2), 1)), 3),
            (SpaceDesc(add(omega_power(3), 1)), 4)]


def _cb_rank(t):
    trace = iterate(DerivativeOp(CantorBendixson(), t), TRUE, Budget(10_000, 0))
    return trace.rank.to_int()


def _variants(rng, space):
    a, b = rich_pattern(rng), rich_pattern(rng)
    p = _rand_param_pattern(rng)
    fam = FnFamily(((Fraction(1), p), (Fraction(0), not_(p))), space)
    return [CantorBendixson(), SeparationDeriv(a, b), SeparationDeriv(a, not_(a)),
            HausdorffStep(a), OscDeriv(char_fn(b, space), Fraction(1, 2)),
            ConvDeriv(fam, Fraction(1, 2))]


def test_bounded_iterations_end_within_cb_rank_plus_one():
    """A convergence family outside the supported fragment is refused
    loudly (UnsupportedProgression); every other iteration must end."""
    rng = random.Random(1506)
    ends = {"empty": 0, "fixpoint": 0, "convergence": 0, "r + 1 steps": 0, "refused": 0}
    for space, rank in _BOUNDED:
        base = base_topology(space)
        refined = refine(base, [ord_lt(W)], 2)  # w turns isolated
        assert _cb_rank(base) == rank, space
        for t in (base, refined):
            r = _cb_rank(t)
            assert r <= rank
            for _ in range(4):
                start = closure(rich_pattern(rng), t) if rng.random() < 0.5 else TRUE
                for variant in _variants(rng, space):
                    try:
                        trace = iterate(DerivativeOp(variant, t), start, Budget(10_000, 0))
                    except UnsupportedProgression:
                        ends["refused"] += 1
                        continue
                    assert trace.budget_used <= r + 1, (variant, space, t, trace.budget_used)
                    assert trace.fixpoint or trace.rank is not None
                    ends["fixpoint" if trace.fixpoint else "empty"] += 1
                    ends["convergence"] += isinstance(variant, ConvDeriv)
                    ends["r + 1 steps"] += trace.budget_used == r + 1
    # the bound is reached, so it is the lemma's and no looser
    assert min(ends["empty"], ends["fixpoint"], ends["convergence"]) > 20, ends
    assert ends["r + 1 steps"] > 0, ends


def test_bounded_spaces_match_no_template(monkeypatch):
    """With a window of 3 that fills before the rank, the matcher is never
    called on a bounded space, and the ranks are the spaces' own."""
    def refuse(window):
        raise AssertionError("template matched on a bounded space")

    monkeypatch.setattr(derivative, "match_any_template", refuse)
    for space, rank in _BOUNDED[-3:]:
        trace = iterate(DerivativeOp(CantorBendixson(), base_topology(space)), TRUE,
                        Budget(10_000, 4, 3))
        assert trace.rank.to_int() == rank and trace.limit_jumps == 0
