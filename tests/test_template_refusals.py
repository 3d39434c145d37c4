"""`derivative.match_template`'s refusals, one seeded window for each.

Each window starts as an affine one-cell window that `match_template`
fits: lower end lo + lo_step*j, divisibility div + div_step*j, a fixed
slot and a slot moving at least as fast as div.  One field is then broken,
and the window must be refused, except that a constant lower end must fit
with step 0:
- div decreasing (`_fit_int`'s negative step);
- div with unequal differences (`_fit_int`'s last exit, then
  `match_template`'s exit on an unfit div);
- lo constant (`_fit_ord`'s step 0);
- lo decreasing (`_fit_ord`'s exit on a failed `left_sub`);
- lo repeated at one stage, then growing (`_fit_ord`'s last exit: a
  zero step fits only a constant lo);
- an upper end that differs between stages;
- a slot whose set differs between stages.
"""
import random

import pytest

from ordrank import ordinal as o
from ordrank.derivative import match_template
from ordrank.ordinal import W, ZERO, from_int, omega_power
from ordrank.patterns import _mk_cell, ds_eq, ds_ge, ds_lt, ds_mod

# nonempty sets other than every digit, with and without 0
_SETS = [ds_eq(1), ds_eq(2), ds_ge(1), ds_ge(2), ds_lt(2), ds_mod(2, 0), ds_mod(2, 1),
         ds_mod(3, 1)]


def _affine(rng, n):
    """The fields of an affine window of n stages, as one dict per stage."""
    lo0, lo_step = from_int(rng.randint(1, 6)), rng.choice([from_int(1), from_int(2), W])
    div0, div_step = rng.randint(0, 2), rng.randint(0, 1)
    top = div0 + div_step * (n - 1) + n  # above div at every stage, broken ones too
    fixed = (top + rng.randint(0, 2), rng.choice(_SETS))
    step, moving = div_step + rng.randint(0, 1), rng.choice(_SETS)
    return [{"lo": o.add(lo0, o.mul(lo_step, j)), "hi": None, "div": div0 + div_step * j,
             "slots": [fixed, (fixed[0] + 1 + step * j, moving)]} for j in range(n)]


def _window(stages):
    out = []
    for s in stages:
        c = _mk_cell(s["lo"], s["hi"], dict(s["slots"]), s["div"], None, None)
        assert c is not None and (c.lo, c.hi, c.div) == (s["lo"], s["hi"], s["div"])
        assert c.digits == tuple(s["slots"]), s  # no slot dropped or merged
        out.append((c,))
    return out


def _div_decreasing(rng, stages):
    for j, s in enumerate(stages):
        s["div"] = len(stages) - 1 - j


def _div_uneven(rng, stages):
    stages[-1]["div"] += 1


def _lo_decreasing(rng, stages):
    los = [s["lo"] for s in stages]
    for s, lo in zip(stages, reversed(los)):
        s["lo"] = lo


def _lo_repeated(rng, stages):
    stages[1]["lo"] = stages[0]["lo"]


def _hi_differs(rng, stages):
    top = omega_power(stages[-1]["slots"][1][0] + 2)
    for s in stages:
        s["hi"] = top
    stages[rng.randrange(len(stages))]["hi"] = o.add(top, 1)


def _slot_set_differs(rng, stages):
    k = rng.randrange(1, len(stages))
    i, ds = stages[k]["slots"][0]
    stages[k]["slots"][0] = (i, rng.choice([x for x in _SETS if x is not ds]))


@pytest.mark.parametrize("breaks", [_div_decreasing, _div_uneven, _lo_decreasing,
                                    _lo_repeated, _hi_differs, _slot_set_differs])
def test_match_template_refuses_a_broken_window(breaks):
    rng = random.Random(breaks.__name__)
    for _ in range(25):
        stages = _affine(rng, rng.randint(3, 6))
        assert match_template(_window(stages)) is not None
        breaks(rng, stages)
        assert match_template(_window(stages)) is None, stages


def test_match_template_fits_a_constant_lower_end():
    rng = random.Random("constant lo")
    for _ in range(25):
        stages = _affine(rng, rng.randint(3, 6))
        for s in stages:
            s["lo"] = stages[0]["lo"]
        tmpl = match_template(_window(stages))
        assert tmpl is not None, stages
        (ct,) = tmpl.cells
        assert ct.lo is stages[0]["lo"] and ct.lo_step is ZERO
