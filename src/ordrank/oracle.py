"""Brute-force oracle for spaces below w*m + k.

On these spaces a subset is exactly described by one eventually periodic
set of naturals per w-block plus explicit bits for the trailing points.
Closure, derivatives and the boolean algebra are recomputed here from
first principles (blockwise, no pattern machinery), so any disagreement
with the symbolic operators is a release-blocking bug.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import ordinal as o
from .errors import NotOracleSpace, UnsupportedProgression
from .ordinal import Ordinal, W
from .patterns import (DS_EMPTY, DS_FULL, DS_POS, DS_ZERO, DigitSet, Pat, and_, digit_eq,
                       digit_in, ds_and, ds_ge, ds_lt, ds_not, ds_or, holds_at,
                       mk_digitset, or_, singleton, to_cells)
from .space import SpaceDesc


def oracle_shape(space: SpaceDesc) -> tuple[int, int]:
    """(blocks m, trailing points k) for bound w*m + k; NotOracleSpace otherwise."""
    b = space.bound
    if b is None or (b.max_exp() or 0) >= 2:
        raise NotOracleSpace(space)
    return b.digit(1), b.digit(0)


@dataclass(frozen=True)
class OracleSet:
    m: int
    k: int
    blocks: tuple[DigitSet, ...]
    tail: tuple[bool, ...]

    def member(self, x: Ordinal) -> bool:
        b, j = x.digit(1), x.digit(0)
        if b < self.m:
            return j in self.blocks[b]
        return bool(self.tail[j]) if b == self.m and j < self.k else False

    @property
    def is_empty(self) -> bool:
        return all(ds.is_empty for ds in self.blocks) and not any(self.tail)


def oracle_full(space: SpaceDesc) -> OracleSet:
    m, k = oracle_shape(space)
    return OracleSet(m, k, (DS_FULL,) * m, (True,) * k)


def o_and(a: OracleSet, b: OracleSet) -> OracleSet:
    return OracleSet(a.m, a.k,
                     tuple(ds_and(x, y) for x, y in zip(a.blocks, b.blocks)),
                     tuple(x and y for x, y in zip(a.tail, b.tail)))


def o_or(a: OracleSet, b: OracleSet) -> OracleSet:
    return OracleSet(a.m, a.k,
                     tuple(ds_or(x, y) for x, y in zip(a.blocks, b.blocks)),
                     tuple(x or y for x, y in zip(a.tail, b.tail)))


def o_not(a: OracleSet) -> OracleSet:
    return OracleSet(a.m, a.k, tuple(ds_not(x) for x in a.blocks),
                     tuple(not x for x in a.tail))


def o_eq(a: OracleSet, b: OracleSet) -> bool:
    return a.blocks == b.blocks and a.tail == b.tail


def _mark(s: OracleSet, b: int) -> OracleSet:
    """Add the block-limit point w*b."""
    if b < s.m:
        blocks = list(s.blocks)
        blocks[b] = ds_or(blocks[b], DS_ZERO)
        return OracleSet(s.m, s.k, tuple(blocks), s.tail)
    if s.k >= 1:
        tail = list(s.tail)
        tail[0] = True
        return OracleSet(s.m, s.k, s.blocks, tuple(tail))
    return s


def limit_marks(s: OracleSet) -> list[int]:
    """Blocks b with w*b in the space accumulating s (predecessor block infinite)."""
    top = s.m if s.k >= 1 else s.m - 1
    return [b for b in range(1, top + 1) if not s.blocks[b - 1].is_finite]


def oracle_closure(s: OracleSet) -> OracleSet:
    out = s
    for b in limit_marks(s):
        out = _mark(out, b)
    return out


def oracle_limit_points(s: OracleSet) -> OracleSet:
    out = oracle_empty_like(s)
    for b in limit_marks(s):
        out = _mark(out, b)
    return out


def oracle_empty_like(s: OracleSet) -> OracleSet:
    return OracleSet(s.m, s.k, (DS_EMPTY,) * s.m, (False,) * s.k)


def oracle_cb(F: OracleSet) -> OracleSet:
    return oracle_limit_points(F)


def oracle_sep(A: OracleSet, B: OracleSet, F: OracleSet) -> OracleSet:
    return o_and(oracle_closure(o_and(F, A)), oracle_closure(o_and(F, B)))


def _ds_limit(samples: list[DigitSet]) -> DigitSet:
    """Pointwise limit of a decreasing sampled sequence of digit sets.

    Stable samples keep their residues; a strictly growing canonical prefix
    means a marching threshold, whose tail keeps no value, so only the
    finitely many entries surviving every sample remain."""
    if all(s == samples[0] for s in samples):
        return samples[0]
    plens = [len(s.prefix) for s in samples]
    top = plens[-1]
    survivors = {v for v in range(top) if all(v in s for s in samples)}
    prefix = tuple(v in survivors for v in range(top))
    if plens[-1] > plens[0] and all(a <= b for a, b in zip(plens, plens[1:])):
        return mk_digitset(prefix, 1, set())
    # residues shared by every sample survive beyond the prefixes
    m = math.lcm(*(s.period for s in samples))
    residues = {r for r in range(m)
                if all((r % s.period) in s.residues for s in samples)}
    return mk_digitset(prefix, m, residues)


def oracle_conv(w_of, F: OracleSet, space: SpaceDesc) -> OracleSet:
    """Convergence derivative by brute force.

    w_of(N) supplies the tail-disagreement set for start index N as a
    pattern; topology happens blockwise.  The stages decrease, so their
    intersection is computed per block from a sample window plus far
    probes, then re-verified against two more stages."""

    def stage(n: int) -> OracleSet:
        w = from_pattern(w_of(n), space)
        return o_and(F, oracle_closure(o_and(w, F)))

    window = [stage(n) for n in range(4)]
    for n in range(4, 28):
        samples = window + [stage(n + 9), stage(n + 23)]
        blocks = tuple(_ds_limit([s.blocks[b] for s in samples])
                       for b in range(F.m))
        tail = tuple(all(s.tail[j] for s in samples) for j in range(F.k))
        cand = OracleSet(F.m, F.k, blocks, tail)
        ok = all(o_eq(o_and(cand, s), cand) for s in samples)
        for probe in (n + 31, n + 41):
            ok = ok and o_eq(o_and(cand, stage(probe)), cand)
        if ok:
            return cand
        window.append(stage(n))
        window.pop(0)
    raise UnsupportedProgression("oracle convergence stages did not settle")


def oracle_osc(pieces: list[tuple[Fraction, OracleSet]], eps: Fraction,
               F: OracleSet) -> OracleSet:
    """Points of F where the indicator-combination oscillates by >= eps.

    Isolated points have oscillation 0, so only block limits can enter.
    """
    out = oracle_empty_like(F)
    limit_blocks = list(range(1, F.m + 1))
    for b in limit_blocks:
        if b == F.m and F.k == 0:
            continue
        x = o.mul(W, b)
        if not F.member(x):
            continue
        acc = []
        for v, ps in pieces:
            if ps.member(x):
                acc.append(v)
                continue
            if not ds_and(ps.blocks[b - 1], F.blocks[b - 1]).is_finite:
                acc.append(v)
        if acc and max(acc) - min(acc) >= eps:
            out = _mark(out, b)
    return out


# ---------------------------------------------------------------------------
# Conversions (exact both ways).

def from_pattern(p: Pat, space: SpaceDesc) -> OracleSet:
    m, k = oracle_shape(space)
    starts, trailing = _block_points(m, k)
    cells = to_cells(p, space.bound) if m else ()
    blocks = []
    for b in range(m):
        ds = DS_EMPTY
        for cell in cells:
            ds = ds_or(ds, _block_restrict(cell, b, starts))
        blocks.append(ds)
    tail = tuple(holds_at(p, x) for x in trailing)
    return OracleSet(m, k, tuple(blocks), tail)


@lru_cache(maxsize=64)
def _block_points(m: int, k: int) -> tuple[tuple[Ordinal, ...], tuple[Ordinal, ...]]:
    """The block starts w*b (b <= m) and the trailing points w*m + j (j < k)."""
    starts = tuple(o.mul(W, b) for b in range(m + 1))
    return starts, tuple(o.add(starts[m], j) for j in range(k))


def _block_restrict(cell, b: int, starts: tuple[Ordinal, ...]) -> DigitSet:
    for i, ds in cell.digits:
        if i >= 2 and not ds.has0:
            return DS_EMPTY
    if cell.div >= 2:
        return DS_EMPTY
    if b not in cell.constraint(1):
        return DS_EMPTY
    js = cell.constraint(0)
    if cell.div == 1:
        if b == 0:
            return DS_EMPTY
        js = ds_and(js, DS_ZERO)
    if cell.md is not None:
        # least digit of w*b + j is j when j >= 1, else b itself
        mdset = cell.md
        if b >= 1 and b in cell.md:
            mdset = ds_or(mdset, DS_ZERO)
        js = ds_and(js, mdset)
        if b == 0:
            js = ds_and(js, DS_POS)
    # interval restriction
    lo, hi = cell.lo, cell.hi
    block_start = starts[b]
    if o.compare(lo, block_start) > 0:
        if lo.digit(1) != b or (lo.max_exp() or 0) >= 2:
            return DS_EMPTY
        js = ds_and(js, ds_ge(lo.fin()))
    if hi is not None:  # the space's bound when nothing lower; ordinals order by terms
        if hi.terms <= block_start.terms:
            return DS_EMPTY
        if hi.terms < starts[b + 1].terms:
            js = ds_and(js, ds_lt(hi.fin()))
    if b == 0 and cell.div >= 1:
        js = ds_and(js, DS_POS)
    return js


def to_pattern(s: OracleSet) -> Pat:
    parts = []
    for b, ds in enumerate(s.blocks):
        if not ds.is_empty:
            parts.append(and_(digit_eq(1, b), digit_in(0, ds)))
    for j, bit in enumerate(s.tail):
        if bit:
            parts.append(singleton(o.add(o.mul(W, s.m), j)))
    return or_(*parts)
