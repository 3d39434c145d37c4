"""Countable ordinal spaces, order-topology closure, and Borel classification.

A space is the set of ordinals below a bound, carrying the order topology;
``bound=None`` is the exponent-ceiling space (all representable CNF
ordinals), the desk-scale stand-in for an unbounded-rank non-compact
space.  A topology is the base order topology plus a finite list of
declared sets whose generated partition cells become clopen; the refined
closure operator works cell by cell.

Closure of a pattern is computed per cell of its disjunctive normal form:
a limit point x with least exponent e accumulates a cell iff the cell's
digit box is cofinal inside the final w^e-segment below x, which reduces
to finitely many digit-set checks (the last constrained level must be
infinite, levels below it nonempty, the level-e constraint shifts by one).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from . import ordinal as o
from .errors import ClassViolation
from .ordinal import Ordinal, Kind
from .patterns import (
    Cell, Pat, PDiv, and_, cells_pattern, digit_in, holds_at, not_, or_,
    ord_ge, ord_lt, to_cells, iter_cell, divpow, TRUE, FALSE,
)


@dataclass(frozen=True)
class SpaceDesc:
    """Ordinals below ``bound`` with the order topology; None = ceiling space."""
    bound: Ordinal | None
    depth: int = 6

    def __post_init__(self) -> None:
        if self.bound is not None and self.bound.is_zero:
            raise ValueError("space must be nonempty")

    @property
    def is_compact(self) -> bool:
        """Compact iff the bound is a successor ordinal."""
        return self.bound is not None and o.classify(self.bound) is Kind.SUCCESSOR

    def contains(self, x: Ordinal) -> bool:
        return self.bound is None or o.compare(x, self.bound) < 0


@dataclass(frozen=True)
class Topology:
    space: SpaceDesc
    declared: tuple[Pat, ...] = ()

    @property
    def bound(self) -> Ordinal | None:
        return self.space.bound


def base_topology(space: SpaceDesc) -> Topology:
    return Topology(space)


@lru_cache(maxsize=512)
def partition_cells(t: Topology) -> tuple[Pat, ...]:
    """Nonempty cells of the boolean algebra generated by the declared sets."""
    if not t.declared:
        return (TRUE,)
    cells: list[Pat] = []
    m = len(t.declared)
    for mask in range(1 << m):
        parts = [t.declared[j] if mask >> j & 1 else not_(t.declared[j])
                 for j in range(m)]
        c = and_(*parts)
        if not is_empty(c, t.space):
            cells.append(c)
    return tuple(cells)


# ---------------------------------------------------------------------------
# Semantic operations on patterns (they need the space).

def is_empty(p: Pat, space: SpaceDesc) -> bool:
    return not to_cells(p, space.bound)


def subset(a: Pat, b: Pat, space: SpaceDesc) -> bool:
    from .patterns import _cell_subsumes, cells_difference
    acells = to_cells(a, space.bound)
    bcells = to_cells(b, space.bound)
    if all(any(_cell_subsumes(big, small) for big in bcells) for small in acells):
        return True
    return not cells_difference(acells, bcells, space.bound)


def sem_difference(a: Pat, b: Pat, space: SpaceDesc) -> Pat:
    """a minus b as a canonical pattern, via cell carving (avoids negation)."""
    from .patterns import cells_difference
    pieces = cells_difference(to_cells(a, space.bound), to_cells(b, space.bound),
                              space.bound)
    return cells_pattern(tuple(pieces))


def sem_eq(a: Pat, b: Pat, space: SpaceDesc) -> bool:
    if to_cells(a, space.bound) == to_cells(b, space.bound):
        return True
    return subset(a, b, space) and subset(b, a, space)


def member(p: Pat, x: Ordinal, t: Topology | SpaceDesc) -> bool:
    space = t.space if isinstance(t, Topology) else t
    if not space.contains(x):
        raise ValueError("point %s outside the space" % x)
    return holds_at(p, x)


def canonicalize(p: Pat, space: SpaceDesc) -> Pat:
    return cells_pattern(to_cells(p, space.bound))


# ---------------------------------------------------------------------------
# Closure.

def _cofinal_below(c: Cell, e: int) -> bool:
    """Is the set of admissible tails below w^e cofinal in w^e?

    Tails are z = w^(e-1)*c + lower with digits constrained by the cell;
    with a least-digit constraint the tail's own least nonzero coefficient
    must satisfy it, either at level e-1 (lower = 0) or inside lower.
    """
    from .patterns import ds_and
    if c.md is None:
        if c.constraint(e - 1).is_finite:
            return False
        return all(not c.constraint(i).is_empty for i in range(c.div, e - 1))
    if (not ds_and(c.constraint(e - 1), c.md).is_finite
            and all(0 in c.constraint(i) for i in range(c.div, e - 1))):
        return True
    if c.constraint(e - 1).is_finite:
        return False
    for p in range(c.div, e - 1):
        if ds_and(c.constraint(p), c.md).min_geq(1) is None:
            continue
        if not all(0 in c.constraint(i) for i in range(c.div, p)):
            continue
        if all(not c.constraint(i).is_empty for i in range(p + 1, e - 1)):
            return True
    return False


def _limit_points_of_cell(c: Cell) -> list[Pat]:
    """Patterns for the limit ordinals at which the cell accumulates."""
    out: list[Pat] = []
    maxd = max((i for i, _ in c.digits), default=-1)
    itv: list[Pat] = []
    if not c.lo.is_zero:
        itv.append(ord_ge(o.add(c.lo, 1)))
    if c.hi is not None:
        itv.append(ord_lt(o.add(c.hi, 1)))

    # Above e_uniform the cofinality conditions no longer depend on e.
    e_uniform = max(maxd + (2 if c.md is None else 3), c.div + 1)
    for e in range(c.div + 1, e_uniform):
        if not _cofinal_below(c, e):
            continue
        conds: list[Pat] = [PDiv(e), not_(PDiv(e + 1))]
        conds.append(digit_in(e, c.constraint(e).shift_up(1)))
        for i, ds in c.digits:
            if i > e:
                conds.append(digit_in(i, ds))
        out.append(and_(*(conds + itv)))

    if _cofinal_below(c, e_uniform):
        out.append(and_(*([divpow(e_uniform)] + itv)))
    return out


def _limit_points(p: Pat, space: SpaceDesc) -> list[Pat]:
    return [lp for c in to_cells(p, space.bound) for lp in _limit_points_of_cell(c)]


def _per_partition_cell(base, p: Pat, t: Topology) -> Pat:
    """base(p, space) in the base topology; under a refinement, base taken
    inside each partition cell (the cells are clopen) and reassembled."""
    if not t.declared:
        return base(p, t.space)
    parts = [and_(base(and_(p, cpat), t.space), cpat) for cpat in partition_cells(t)]
    return canonicalize(or_(*parts), t.space)


def closure(p: Pat, t: Topology) -> Pat:
    """Topological closure; per partition cell under a refinement."""
    return _per_partition_cell(
        lambda q, space: canonicalize(or_(q, *_limit_points(q, space)), space), p, t)


def is_closed(p: Pat, t: Topology) -> bool:
    return sem_eq(closure(p, t), p, t.space)


def is_open(p: Pat, t: Topology) -> bool:
    return is_closed(sem_difference(TRUE, p, t.space), t)


def cb_derivative(p: Pat, t: Topology) -> Pat:
    """Limit points of a closed set (Cantor-Bendixson derivative)."""
    if not is_closed(p, t):
        raise ValueError("cb_derivative needs a closed set")
    return _per_partition_cell(
        lambda q, space: canonicalize(or_(*_limit_points(q, space)), space), p, t)


# ---------------------------------------------------------------------------
# Borel classification and refinement.

class BorelClass(enum.Enum):
    CLOPEN = "clopen"
    OPEN = "open"
    CLOSED = "closed"
    DELTA2 = "delta2"
    SIGMA2_OR_ABOVE = "sigma2_or_above"


def difference_chain(p: Pat, t: Topology, budget: int = 16) -> list[Pat] | None:
    """Decreasing closed sets whose even differences equal p, if one of
    length <= budget exists.  F_{k+1} alternates closures of the residue."""
    chain = [TRUE]
    cur = TRUE
    for k in range(budget):
        part = sem_difference(cur, p, t.space) if k % 2 == 0 else and_(cur, p)
        nxt = closure(part, t)
        chain.append(nxt)
        if is_empty(nxt, t.space):
            return chain
        # structural fixpoint check only: stages are canonicalized closures,
        # and a missed semantic fixpoint just burns the remaining budget
        if to_cells(nxt, t.space.bound) == to_cells(cur, t.space.bound):
            return None
        cur = nxt
    return None


def _even_differences(chain: list[Pat]) -> Pat:
    parts = []
    for k in range(0, len(chain), 2):
        upper = chain[k]
        lower = chain[k + 1] if k + 1 < len(chain) else FALSE
        parts.append(and_(upper, not_(lower)))
    return or_(*parts)


def borel_class(p: Pat, t: Topology, budget: int = 16) -> BorelClass:
    """Minimal level among the supported ones.

    In these countable spaces every subset is Sigma^0_2 (a countable union
    of singletons), so SIGMA2_OR_ABOVE only reports that no finite-length
    difference chain was found within the budget.
    """
    closed = is_closed(p, t)
    opened = is_open(p, t)
    if closed and opened:
        return BorelClass.CLOPEN
    if opened:
        return BorelClass.OPEN
    if closed:
        return BorelClass.CLOSED
    chain = difference_chain(p, t, budget)
    if chain is not None:
        assert sem_eq(_even_differences(chain), p, t.space), \
            "difference chain must resolve the set exactly"
        return BorelClass.DELTA2
    return BorelClass.SIGMA2_OR_ABOVE


def refine(t: Topology, sets: tuple[Pat, ...] | list[Pat], xi: int) -> Topology:
    """Declare finitely many sets clopen.

    Every declared set must be ambiguous at level xi in the current
    topology: clopen for xi = 1, any of clopen/open/closed/finite-chain
    Delta2 for xi >= 2 (the chain is the caller's certificate, recomputed
    here).  The refined opens are then unions of old opens intersected
    with partition cells, hence Sigma^0_xi in the base by construction.
    """
    sets = tuple(sets)
    for s in sets:
        cls = borel_class(s, t)
        if xi <= 1:
            if cls is not BorelClass.CLOPEN:
                raise ClassViolation("declared set is %s, needs clopen" % cls.value)
        else:
            if cls is BorelClass.SIGMA2_OR_ABOVE:
                raise ClassViolation(
                    "declared set has no finite difference chain (not Delta2-certified)")
    return Topology(t.space, t.declared + sets)


# ---------------------------------------------------------------------------
# Sampling.

def sample_points(p: Pat, space: SpaceDesc, per_cell: int = 8) -> list[Ordinal]:
    seen = set()
    for c in to_cells(p, space.bound):
        for x in iter_cell(c, space.bound, per_cell):
            seen.add(x)
    return sorted(seen, key=lambda x: x.terms)
