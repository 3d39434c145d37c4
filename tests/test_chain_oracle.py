"""The Hausdorff difference chain against the blockwise brute force.

On the oracle spaces (bounds below w*m + k) the chain of a set A is rebuilt
from first principles: F_0 = X, F_(k+1) = cl(F_k minus A) for even k and
cl(F_k cap A) for odd k, until it is empty.  `difference_chain` must give
the same sets, stage by stage.  On the ceiling space the parity of the
least nonzero coefficient has a chain of length w (`difference_chain`
returns None for it); each of its successor steps is checked on cells.
"""
import random

import pytest

from ordrank import oracle as orc
from ordrank.derivative import DerivativeOp, HausdorffStep, iterate
from ordrank.ordinal import W, add, from_int, mul
from ordrank.patterns import (FALSE, TRUE, cells_difference, ds_mod, min_digit_in,
                              not_, prune_cells, to_cells)
from ordrank.space import SpaceDesc, base_topology, cells_subset, difference_chain

from test_space import rand_pattern, rich_pattern

SPACES = [SpaceDesc(add(mul(W, 8), 8)), SpaceDesc(add(mul(W, 3), 2)),
          SpaceDesc(add(W, 1)), SpaceDesc(from_int(9))]


def _oracle_chain(A, space):
    chain = [orc.oracle_full(space)]
    for k in range(64):
        part = orc.o_and(chain[-1], orc.o_not(A) if k % 2 == 0 else A)
        chain.append(orc.oracle_closure(part))
        if chain[-1].is_empty:
            return chain
    pytest.fail("the brute-force chain is still nonempty after 64 steps")


def test_difference_chain_matches_brute_force():
    rng = random.Random(1919)
    cases = [(p, s) for s in SPACES for p in (TRUE, FALSE)]
    for i in range(200):
        p = rich_pattern(rng) if rng.random() < 0.5 else rand_pattern(rng)
        cases.append((p, SPACES[i % len(SPACES)]))
    lengths = set()
    for p, space in cases:
        want = _oracle_chain(orc.from_pattern(p, space), space)
        got = difference_chain(p, base_topology(space))
        assert got is not None and len(got) == len(want), (p, space, got)
        for k, (F, G) in enumerate(zip(got, want)):
            assert orc.o_eq(orc.from_pattern(F, space), G), (p, space, k)
        lengths.add(len(got))
    # the empty set's chain is [X, X, empty]; longer chains come up too
    assert {2, 3, 4} <= lengths, lengths


def test_ceiling_parity_chain_is_transfinite():
    t = base_topology(SpaceDesc(None))
    A = min_digit_in(ds_mod(2, 0))
    trace = iterate(DerivativeOp(HausdorffStep(A), t), TRUE)
    assert trace.rank == W and trace.limit_jumps == 1
    # each successor step loses points of A, then points outside A
    bound, step = t.space.bound, trace.op.variant
    inside, outside = to_cells(A, bound), to_cells(not_(A), bound)
    pairs = [(F, G) for (_, F), (j, G) in zip(trace.events, trace.events[1:])
             if j.is_finite]
    assert len(pairs) == 6
    for F, G in pairs:
        H = step.half(F, t)
        assert cells_subset(prune_cells(cells_difference(F, H)), inside)
        assert cells_subset(prune_cells(cells_difference(H, G)), outside)
        assert not cells_subset(F, G)
