"""The brute-force oracle's conversion against direct membership.

Every oracle check converts the symbolic side with `oracle.from_pattern`,
which reads the pattern's cells block by block; here its result is compared
point by point with `holds_at` on the pattern itself, at every w*b + j
(j < 48) and at every trailing point w*m + j of spaces below w*m + k.
"""
import random
from fractions import Fraction

import pytest

from ordrank import oracle as orc
from ordrank.derivative import ConvDeriv
from ordrank.functions import FnFamily
from ordrank.ordinal import ZERO, W, add, from_int, mul
from ordrank.patterns import (POrdGeN, POrdLtN, PDigitGeN, PDigitLtN,
                              _cells_cached, digit_mod, holds_at)
from ordrank.space import SpaceDesc

from test_space import rand_pattern, rich_pattern

BOUNDS = [add(mul(W, 8), 8), add(mul(W, 3), 2), add(W, 1), mul(W, 2), from_int(9)]
PER_BLOCK = 48


def _points(bound):
    """Every w*b + j with b < m and j < PER_BLOCK, then every trailing point."""
    m, k = bound.digit(1), bound.digit(0)
    return ([add(mul(W, b), j) for b in range(m) for j in range(PER_BLOCK)]
            + [add(mul(W, m), j) for j in range(k)])


@pytest.mark.parametrize("rich", [False, True], ids=["plain", "rich"])
def test_from_pattern_matches_holds_at(rich):
    # 300 patterns per draw kind, each converted on all five spaces
    rng = random.Random(1818 + rich)
    spaces = [(SpaceDesc(b), _points(b)) for b in BOUNDS]
    checked = 0
    for _ in range(300):
        p = rich_pattern(rng, max_digit=1) if rich else rand_pattern(rng)
        for s, points in spaces:
            os_ = orc.from_pattern(p, s)
            for x in points:
                assert os_.member(x) == holds_at(p, x), (p, s.bound, x)
            checked += len(points)
    assert checked == 300 * sum(len(pts) for _, pts in spaces)


def test_from_pattern_without_blocks_reads_no_cells():
    # on a finite space every point is a trailing point
    s = SpaceDesc(from_int(9))
    p = digit_mod(0, 3, 1)
    before = _cells_cached.cache_info()
    os_ = orc.from_pattern(p, s)
    after = _cells_cached.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert os_.blocks == () and os_.tail == tuple(j % 3 == 1 for j in range(9))


@pytest.mark.parametrize("fam", [
    FnFamily(((Fraction(1), PDigitLtN(0, 1, 2)), (Fraction(0), PDigitGeN(0, 1, 2))),
             SpaceDesc(add(mul(W, 3), 2))),
    FnFamily(((Fraction(1), POrdGeN(ZERO, add(W, 1))), (Fraction(0), POrdLtN(ZERO, add(W, 1)))),
             SpaceDesc(add(mul(W, 8), 8))),
], ids=["digit-window", "tail"])
def test_tail_disagreement_param_is_stable(fam):
    cd = ConvDeriv(fam, Fraction(1, 2))
    first = cd.tail_disagreement_param()
    assert cd.tail_disagreement_param() == first
    assert ConvDeriv(fam, Fraction(1, 2)).tail_disagreement_param() == first
    # the memoized pattern is the one a fresh computation builds
    assert ConvDeriv.tail_disagreement_param.__wrapped__(cd) == first
