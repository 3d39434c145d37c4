"""Limit jumps against jump-free bounded iteration.

An initial segment U = [0, w^k*m] of the ceiling space is clopen, so closure
commutes with restriction to U: cl(S & U) = cl(S) & U.  Hence so does every
separation step, and every limit stage, being an intersection:
stage_theta(X) & U = stage_theta(U).  On U every rank is finite, so `iterate`
with no jump budget reaches the empty set.  Its stages, computed without a
jump, are a reference for every stage the ceiling-space trace records, the
jumped ones included.
"""
import random
from fractions import Fraction

from ordrank import ordinal as o
from ordrank.derivative import Budget, DerivativeOp, SeparationDeriv, iterate
from ordrank.functions import char_fn, fn_add, fn_scale
from ordrank.patterns import (FALSE, TRUE, and_, cells_pattern, digit_mod,
                              ds_mod, min_digit_in, ord_lt)
from ordrank.ranks import _level_pairs, alpha_pair
from ordrank.space import SpaceDesc, base_topology, sem_eq

CEILING = SpaceDesc(None)
A = min_digit_in(ds_mod(2, 0))
# U = w^k*m + 1 for these (k, m)
SEGMENTS = [(k, m) for k in range(1, 9) for m in (1, 2)]


def _functions(count: int, seed: int):
    """chi_A and a seeded sample of perturbations chi_A +- chi_bump/3 with
    bump = digit_mod(d, m, v) & (x < w^c), as in the rank-dense benchmark."""
    chi = char_fn(A, CEILING)
    tuples = [(d, m, v, c, s) for d in range(4) for m in range(2, 7) for v in range(m)
              for c in range(2, 6) for s in (1, -1)]
    out = [chi]
    for d, m, v, c, s in random.Random(seed).sample(tuples, count):
        bump = and_(digit_mod(d, m, v), ord_lt(o.omega_power(c)))
        out.append(fn_add(chi, fn_scale(char_fn(bump, CEILING), Fraction(s, 3))))
    return out


def _bounded_stages(a, b, space: SpaceDesc) -> list:
    """The stages of the separation derivative on a bounded space, with no
    limit jump, up to and including the empty one."""
    trace = iterate(DerivativeOp(SeparationDeriv(a, b), base_topology(space)), TRUE,
                    Budget(10_000, 0))
    assert trace.rank is not None and trace.limit_jumps == 0, space
    return [cells_pattern(cells, space.bound) for _, cells in trace.events]


def _references(a, b) -> list:
    """(U, its space, its stages) for every segment U."""
    out = []
    for k, m in SEGMENTS:
        u = o.add(o.omega_power(k, m), 1)
        out.append((u, SpaceDesc(u), _bounded_stages(a, b, SpaceDesc(u))))
    return out


def _failures(events, refs) -> tuple[int, int]:
    """(checks, failures) of each recorded (theta, stage) against the
    bounded iteration on every segment U; past its rank the U-stage is empty."""
    checks = failures = 0
    for u, space, ref in refs:
        for theta, stage in events:
            want = ref[theta.to_int()] if theta.is_finite and theta.to_int() < len(ref) else FALSE
            checks += 1
            failures += not sem_eq(and_(stage, ord_lt(u)), want, space)
    return checks, failures


def _jumped_to_previous(events):
    """The mutation: every jumped (limit) stage replaced by the stage just before it."""
    return [(theta, events[i - 1][1] if o.classify(theta) is o.Kind.LIMIT else stage)
            for i, (theta, stage) in enumerate(events)]


def test_limit_jumps_agree_with_bounded_iteration():
    t = base_topology(CEILING)
    checks = jumps = mutated_failures = 0
    for f in _functions(10, 1501):
        for _, _, low, high in _level_pairs(f):
            trace = alpha_pair(low, high, t).trace
            assert trace.rank is not None
            events = [(theta, cells_pattern(cells, CEILING.bound))
                      for theta, cells in trace.events]
            refs = _references(low, high)
            n, failed = _failures(events, refs)
            assert failed == 0, (f, low, high)
            checks += n
            jumps += trace.limit_jumps
            if trace.limit_jumps:
                mutated_failures += _failures(_jumped_to_previous(events), refs)[1]
    assert jumps >= 10 and checks > 3000
    # the check can fail: the mutation makes some jumped stage wrong on some U
    assert mutated_failures > 0
