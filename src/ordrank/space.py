"""Countable ordinal spaces, order-topology closure, and Borel classification.

A space is the set of ordinals below a bound, carrying the order topology;
``bound=None`` is the unbounded space (every ordinal below w^w), the
desk-scale stand-in for an unbounded-rank non-compact space.  Every point of
it can be named, and the rank alpha = w of the polish-failure indicator
needs points at every exponent.  A topology is the base order topology plus
a finite list of declared sets whose generated partition cells become
clopen; the refined closure operator works cell by cell.

Closure and the Borel classification work on canonical cell tuples, each
one set on every space (`cells_subset` and `cells_eq` take no bound); cells
become patterns only at the boundary, in `closure`, `cb_derivative`,
`canonicalize` and `difference_chain`'s result.  The difference chain is
`derivative.iterate` of `HausdorffStep` under the default `Budget`.  A limit
point x with least exponent e accumulates a cell iff the cell's digit box is
cofinal inside the final w^e-segment below x, which reduces to finitely many
digit-set checks (the last constrained level must be infinite, levels below
it nonempty, the level-e constraint shifts by one).  So a cell's limit points
are again finitely many cells (`limit_cells`, kept on the cell), and the
closure, memoized per cell tuple, prunes the cells with their limit cells.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from . import ordinal as o
from .errors import ClassViolation
from .ordinal import Ordinal, Kind
from .patterns import (
    Cell, Pat, _cell_subsumes, _md_stop, _mk_cell, _prune_sig, and_, cells_difference,
    cells_pattern, ds_and, holds_at, iter_cell, meet, not_, prune_cells, to_cells, TRUE,
)


@dataclass(frozen=True)
class SpaceDesc:
    """Ordinals below ``bound`` with the order topology; None = unbounded."""
    bound: Ordinal | None

    def __post_init__(self) -> None:
        if self.bound is not None and self.bound.is_zero:
            raise ValueError("space must be nonempty")

    @property
    def is_compact(self) -> bool:
        """Compact iff the bound is a successor ordinal."""
        return self.bound is not None and o.classify(self.bound) is Kind.SUCCESSOR

    def contains(self, x: Ordinal) -> bool:
        return self.bound is None or o.compare(x, self.bound) < 0

    @property
    def cb_rank(self) -> Ordinal:
        """The Cantor-Bendixson rank rho: the least theta whose derived set
        X^(theta) is empty.  A nonzero point's least exponent is its CB rank
        (0 is isolated), so X^(k), k >= 1, holds the nonzero multiples of
        w^k in the space.  Below w^w each X^(k) holds w^k and no point lies
        in all of them, so rho = w.  On [0, b), X^(k) is nonempty iff
        w^k < b, so rho is the least k >= 1 with b <= w^k: b's top exponent
        e, plus 1 unless b = w^e."""
        b = self.bound
        if b is None:
            return o.W
        e = b.max_exp()
        return o.from_int(max(1, e if b == o.omega_power(e) else e + 1))


@dataclass(frozen=True)
class Topology:
    space: SpaceDesc
    declared: tuple[Pat, ...] = ()


def base_topology(space: SpaceDesc) -> Topology:
    return Topology(space)


@lru_cache(maxsize=512)
def partition_cells(t: Topology) -> tuple[Pat, ...]:
    """Nonempty cells of the boolean algebra generated by the declared sets.
    With none declared the one mask gives the one cell TRUE."""
    m = len(t.declared)
    cells = (and_(*(t.declared[j] if mask >> j & 1 else not_(t.declared[j])
                    for j in range(m))) for mask in range(1 << m))
    return tuple(c for c in cells if not is_empty(c, t.space))


# ---------------------------------------------------------------------------
# Semantic operations on canonical cell tuples and on patterns.

def cells_subset(xs: tuple[Cell, ...], ys: tuple[Cell, ...]) -> bool:
    """xs <= ys: each cell of xs not syntactically inside a cell of ys is
    carved by ys, stopping at the first nonempty piece.  `_cell_subsumes`
    is not asked when big lacks 0 below small.div, as in `prune_cells`."""
    return all(any(not _prune_sig(big)[5] & ((1 << small.div) - 1)
                   and _cell_subsumes(big, small) for big in ys)
               or not cells_difference((small,), ys) for small in xs)


def cells_eq(xs: tuple[Cell, ...], ys: tuple[Cell, ...]) -> bool:
    return xs == ys or (cells_subset(xs, ys) and cells_subset(ys, xs))


def is_empty(p: Pat, space: SpaceDesc) -> bool:
    return not to_cells(p, space.bound)


def subset(a: Pat, b: Pat, space: SpaceDesc) -> bool:
    return cells_subset(to_cells(a, space.bound), to_cells(b, space.bound))


def sem_eq(a: Pat, b: Pat, space: SpaceDesc) -> bool:
    return cells_eq(to_cells(a, space.bound), to_cells(b, space.bound))


def member(p: Pat, x: Ordinal, t: Topology | SpaceDesc) -> bool:
    space = t.space if isinstance(t, Topology) else t
    if not space.contains(x):
        raise ValueError("point %s outside the space" % x)
    return holds_at(p, x)


def canonicalize(p: Pat, space: SpaceDesc) -> Pat:
    return cells_pattern(to_cells(p, space.bound), space.bound)


# ---------------------------------------------------------------------------
# Closure.

def _cofinal_below(c: Cell, e: int) -> bool:
    """Is the set of admissible tails below w^e cofinal in w^e?

    Tails are z = w^(e-1)*c + lower with digits constrained by the cell;
    with a least-digit constraint the tail's own least nonzero coefficient
    must satisfy it, either at level e-1 (lower = 0) or inside lower.  So
    the set at e-1 must be infinite.  Without md that is all: every lower
    position of a canonical cell allows a digit (its sets are nonempty, {0}
    below div).  Under md, lower may carry the least nonzero coefficient at
    a position p in [div, e-1) whose set meets md when the sets in [div, p)
    allow 0; `_md_stop`'s pass finds the first such p, or the first set
    without 0 before it, above which there is none.  When the pass reaches
    e-1 first, lower is 0, and md's part of the set at e-1 must be infinite.
    """
    top = c.constraint(e - 1)
    if top.is_finite:
        return False
    if c.md is None:
        return True
    p, meets = _md_stop(c)
    if p < e - 1:
        return meets
    return not ds_and(top, c.md).is_finite


def limit_cells(c: Cell, bound: Ordinal | None) -> tuple[Cell, ...]:
    """Cells of the limit ordinals at which the cell accumulates.

    Such a limit x lies in [lo + 1, hi + 1).  With least exponent e > div
    it is one iff the cell is cofinal below w^e; its digit e is then one
    more than a digit the cell allows there, its digits above e the cell's.
    An upper end at the bound (None on the ceiling space) stays: hi + 1
    would be clamped back.

    Lemma: the result depends on the bound only through whether hi is the
    bound.  When it is, every limit cell keeps hi; when not, hi < bound, so
    hi + 1 <= bound is left as it is by the clamp in `_mk_cell`.  So the
    cells are built with no bound, and the cell keeps both answers."""
    slot = "_lim_end" if c.hi is bound else "_lim_open"
    if getattr(c, slot) is not None:
        return getattr(c, slot)
    lo = o.add(c.lo, 1) if not c.lo.is_zero else c.lo
    hi = c.hi if c.hi is bound else o.add(c.hi, 1)
    maxd = max((i for i, _ in c.digits), default=-1)
    # Above e_uniform the cofinality conditions no longer depend on e.
    e_uniform = max(maxd + (2 if c.md is None else 3), c.div + 1)
    out = []
    for e in range(c.div + 1, e_uniform):
        if _cofinal_below(c, e):
            digits = {i: ds for i, ds in c.digits if i > e}
            digits[e] = c.constraint(e).shift_up(1)
            out.append(_mk_cell(lo, hi, digits, e, None, None))
    if _cofinal_below(c, e_uniform):
        out.append(_mk_cell(lo, hi, {}, e_uniform, None, None))
    object.__setattr__(c, slot, tuple(lc for lc in out if lc is not None))
    return getattr(c, slot)


@lru_cache(maxsize=8192)
def _limits_per_partition(xs: tuple[Cell, ...], t: Topology, keep: bool) -> tuple[Cell, ...]:
    """The limit cells of xs, with xs itself when keep, in the base
    topology; under a refinement taken inside each partition cell (the
    cells are clopen) and reassembled.  Memoized: iterate's steps close
    the same cell tuples again and again."""
    bound = t.space.bound

    def base(ys: tuple[Cell, ...]) -> tuple[Cell, ...]:
        return prune_cells((ys if keep else ())
                           + tuple(lc for c in ys for lc in limit_cells(c, bound)))

    if not t.declared:
        return base(xs)
    out: list[Cell] = []
    for cpat in partition_cells(t):
        part = to_cells(cpat, bound)
        out += meet(base(meet(xs, part)), part)
    return prune_cells(out)


def closure_cells(xs: tuple[Cell, ...], t: Topology) -> tuple[Cell, ...]:
    """Topological closure of a canonical cell tuple."""
    return _limits_per_partition(xs, t, True)


def cells_closed(xs: tuple[Cell, ...], t: Topology) -> bool:
    return cells_subset(closure_cells(xs, t), xs)


def cb_cells(xs: tuple[Cell, ...], t: Topology) -> tuple[Cell, ...]:
    """Limit points of a closed canonical cell tuple."""
    if not cells_closed(xs, t):
        raise ValueError("cb_derivative needs a closed set")
    return _limits_per_partition(xs, t, False)


def closure(p: Pat, t: Topology) -> Pat:
    """Topological closure; per partition cell under a refinement."""
    return cells_pattern(closure_cells(to_cells(p, t.space.bound), t), t.space.bound)


def is_closed(p: Pat, t: Topology) -> bool:
    return cells_closed(to_cells(p, t.space.bound), t)


def is_open(p: Pat, t: Topology) -> bool:
    bound = t.space.bound
    return cells_closed(prune_cells(cells_difference(to_cells(TRUE, bound),
                                                     to_cells(p, bound))), t)


def cb_derivative(p: Pat, t: Topology) -> Pat:
    """Limit points of a closed set (Cantor-Bendixson derivative)."""
    return cells_pattern(cb_cells(to_cells(p, t.space.bound), t), t.space.bound)


# ---------------------------------------------------------------------------
# Borel classification and refinement.

class BorelClass(enum.Enum):
    CLOPEN = "clopen"
    OPEN = "open"
    CLOSED = "closed"
    DELTA2 = "delta2"


def _chain_cells(p: Pat, t: Topology) -> list[tuple[Cell, ...]] | None:
    """The cells of `difference_chain`: the stages of `HausdorffStep(p)` from
    X interleaved with their halves, cut at the first empty set (so the even
    differences are F_k minus F_k+1, k even); None after a limit jump."""
    # derivative imports this module at top level
    from .derivative import DerivativeOp, HausdorffStep, iterate
    step = HausdorffStep(p)
    trace = iterate(DerivativeOp(step, t), TRUE)
    if trace.fixpoint:
        raise AssertionError("a Hausdorff step fixed a nonempty closed set")
    if trace.limit_jumps:
        return None
    chain = [c for _, cells in trace.events  # the last stage is empty
             for c in ((cells, step.half(cells, t)) if cells else (cells,))]
    return chain[:chain.index(()) + 1]


def difference_chain(p: Pat, t: Topology) -> list[Pat] | None:
    """Decreasing closed sets F_0 = X, ..., F_n = empty whose even differences
    equal p: F_(k+1) is the closure of F_k minus p for even k, of F_k cap p
    for odd k.  None when the chain is transfinite."""
    chain = _chain_cells(p, t)
    return None if chain is None else [cells_pattern(c, t.space.bound) for c in chain]


def borel_class(p: Pat, t: Topology) -> BorelClass:
    """Minimal level among the supported ones.  Every subset of these
    countable spaces is Delta^0_2 (it and its complement are countable unions
    of singletons), so a set neither open nor closed is DELTA2; a finite
    difference chain is checked to resolve it exactly."""
    closed = is_closed(p, t)
    opened = is_open(p, t)
    if closed and opened:
        return BorelClass.CLOPEN
    if opened:
        return BorelClass.OPEN
    if closed:
        return BorelClass.CLOSED
    chain = _chain_cells(p, t)
    if chain is not None:
        evens = [c for k in range(0, len(chain) - 1, 2)
                 for c in cells_difference(chain[k], chain[k + 1])]
        assert cells_eq(prune_cells(evens), to_cells(p, t.space.bound)), \
            "difference chain must resolve the set exactly"
    return BorelClass.DELTA2


def refine(t: Topology, sets: tuple[Pat, ...] | list[Pat], xi: int) -> Topology:
    """Declare finitely many sets clopen.

    Every declared set must be ambiguous at level xi in the current
    topology: clopen for xi = 1, any set (all are Delta^0_2, though the
    class is still computed) for xi >= 2.  The refined opens are then unions
    of old opens intersected with partition cells, hence Sigma^0_xi in the
    base by construction.  The level xi is at least 1 (ValueError otherwise).
    """
    if xi < 1:
        raise ValueError("xi must be at least 1, got %d" % xi)
    sets = tuple(sets)
    for s in sets:
        cls = borel_class(s, t)
        if xi == 1 and cls is not BorelClass.CLOPEN:
            raise ClassViolation("declared set is %s, needs clopen" % cls.value)
    return Topology(t.space, t.declared + sets)


# ---------------------------------------------------------------------------
# Sampling.

def sample_points(p: Pat, space: SpaceDesc, per_cell: int = 8) -> list[Ordinal]:
    seen = set()
    for c in to_cells(p, space.bound):
        for x in iter_cell(c, per_cell):
            seen.add(x)
    return sorted(seen, key=lambda x: x.terms)
