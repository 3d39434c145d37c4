"""Derivative operators on closed sets and their transfinite iteration.

Iteration runs successor stages by direct application.  On the ceiling
space [0, w^w), when the last few stages fit one affine template, the
engine verifies the recurrence at probe indices, checks that
instantiations stay nonempty for every later index, and jumps to the
symbolic intersection at the next limit stage.  A template cell has one
slot shape: digit i + step*j lies in a fixed set (step 0: a fixed
position), besides a lower end and a divisibility growing affinely in the
stage index j.  On a bounded space no iteration jumps: every rank there is
finite (the lemma at `iterate`).  Unmatched progressions fail loudly
(`NotStabilized`) instead of guessing.

Soundness of a jump: every accepted cell family is either nested (fixed
slots, growing lower end or divisibility) or visits each fixed point
finitely often (moving positions whose set lacks 0), so the intersection
of the stage unions is exactly the union of the per-cell intersections
computed by the slot rules.

Stages are canonical cell tuples.  A step meets, closes and prunes cells
(`patterns.meet`, memoized per cell pair; `space.limit_cells`, kept on
the cell) and is cached per operator and cell tuple in `_apply_cached`;
`iterate`, its probes and `IterationTrace.stage_at` step through `_steps`.
Templates instantiate as cells too: `CellTemplate.cell_at` is the one slot
builder, for a stage j and for j = W (the limit), and builds each cell
through `patterns._mk_cell`.  A cell is one set on every space, so steps
and stage checks take no bound.  The trace records the stages as they are;
cells become patterns only at `apply`, `IterationTrace.stage_at` and
`log_lines`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import ordinal as o
from . import space as sp
from .errors import BudgetExceeded, UnsupportedProgression
from .fixtures import pattern_to_sexpr
from .functions import FnFamily, StepFn, eventual, union_from_param
from .ordinal import Ordinal, ZERO, W
from .patterns import (
    PARAM_N, Cell, DigitSet, FALSE, Pat, _mk_cell, and_, atoms, cells_difference,
    cells_pattern, ds_and, meet, or_, prune_cells, subst_n, to_cells,
)
from .space import SpaceDesc, Topology, cells_eq, cells_subset, closure_cells


# ---------------------------------------------------------------------------
# Operator variants.

@dataclass(frozen=True)
class SeparationDeriv:
    a: Pat
    b: Pat

    def step(self, F: tuple[Cell, ...], t: Topology) -> tuple[Cell, ...]:
        bound = t.space.bound
        return meet(closure_cells(meet(F, to_cells(self.a, bound)), t),
                    closure_cells(meet(F, to_cells(self.b, bound)), t))


@dataclass(frozen=True)
class CantorBendixson:
    def step(self, F: tuple[Cell, ...], t: Topology) -> tuple[Cell, ...]:
        return sp.cb_cells(F, t)


@dataclass(frozen=True)
class HausdorffStep:
    """Two indices of a's Hausdorff difference chain: for even k, `half` takes
    F_k to F_(k+1) = cl(F_k minus a) and `step` to F_(k+2) = cl(F_(k+1) cap a),
    so stage theta of the iteration from X is F_(2*theta).  Lemma: in a
    scattered space an isolated point x of a nonempty closed F leaves within
    one step (if x is in a, F minus a stays away from x; else half(F) cap a
    does).  So the stages strictly decrease and reach the empty set, and a
    point that leaves after an even index lies in a."""
    a: Pat

    def half(self, F: tuple[Cell, ...], t: Topology) -> tuple[Cell, ...]:
        return closure_cells(prune_cells(cells_difference(F, to_cells(self.a, t.space.bound))), t)

    def step(self, F: tuple[Cell, ...], t: Topology) -> tuple[Cell, ...]:
        return closure_cells(meet(self.half(F, t), to_cells(self.a, t.space.bound)), t)


@dataclass(frozen=True)
class OscDeriv:
    fn: StepFn
    eps: Fraction

    def step(self, F: tuple[Cell, ...], t: Topology) -> tuple[Cell, ...]:
        pieces = self.fn.pieces
        cls = [closure_cells(meet(F, to_cells(p, t.space.bound)), t) for _, p in pieces]
        parts = [c for i in range(len(pieces)) for j in range(i + 1, len(pieces))
                 if abs(pieces[i][0] - pieces[j][0]) >= self.eps
                 for c in meet(cls[i], cls[j])]
        return meet(F, prune_cells(parts))


@dataclass(frozen=True)
class ConvDeriv:
    fam: FnFamily
    eps: Fraction

    @lru_cache(maxsize=256)
    def tail_disagreement_param(self) -> Pat:
        """{y : two eps-separated values both occur among f_n(y), n >= N},
        as a pattern affine in the start index N.

        Memoized: `step` and every stage of `oracle.oracle_conv` read it."""
        vals = self.fam.values()
        ever = {v: union_from_param(self.fam.cell_pattern_of(v)) for v in vals}
        parts = []
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if abs(vals[i] - vals[j]) >= self.eps:
                    parts.append(and_(ever[vals[i]], ever[vals[j]]))
        return or_(*parts)

    def tail_disagreement(self, start: int, space: SpaceDesc) -> Pat:
        return subst_n(self.tail_disagreement_param(), start)

    def step(self, F: tuple[Cell, ...], t: Topology) -> tuple[Cell, ...]:
        """F cap the intersection over N of cl(W_N cap F).

        The intersection splits exactly into the persistent members plus
        the persistent limit points.  The disagreement sets W_N decrease in
        N, so a point lies in every W_N cap F exactly when it lies in all
        late ones; `eventual` computes that set exactly by taking every
        atom at N = omega.  The persistent limit points are the limit part
        of cl(W_N cap F) once the start index passes every atom flip,
        which is verified at two spread probes.  F enters through `meet`."""
        bound = t.space.bound
        wparam = self.tail_disagreement_param()
        core = to_cells(eventual(wparam), bound)
        n_star = 8 + _max_atom_base(wparam)

        def limit_part(n: int) -> tuple[Cell, ...]:
            wn = meet(F, to_cells(subst_n(wparam, n), bound))
            return prune_cells(cells_difference(closure_cells(wn, t), wn))

        lp = limit_part(n_star)
        for probe in (n_star + 7, n_star + 19):
            if not cells_eq(limit_part(probe), lp):
                raise UnsupportedProgression(
                    "convergence limit points did not stabilize")
        return meet(F, prune_cells(lp + core))


def _max_atom_base(p: Pat) -> int:
    """The largest base + slope among p's natural-parameter atoms (finite
    parts of ordinal ones), 0 when there is none."""
    return max((o._coerce(a.base).fin() + o._coerce(a.slope).fin()
                for a in atoms(p) if type(a) in PARAM_N), default=0)


DerivativeVariant = SeparationDeriv | CantorBendixson | HausdorffStep | OscDeriv | ConvDeriv


@dataclass(frozen=True)
class DerivativeOp:
    variant: DerivativeVariant
    topology: Topology


@lru_cache(maxsize=8192)
def _apply_cached(op: DerivativeOp, F: tuple[Cell, ...]) -> tuple[Cell, ...]:
    """One derivative step on a canonical cell tuple."""
    return op.variant.step(F, op.topology)


def apply(op: DerivativeOp, F: Pat) -> Pat:
    """One derivative step; result is closed and contained in F."""
    bound = op.topology.space.bound
    return cells_pattern(_apply_cached(op, to_cells(F, bound)), bound)


# ---------------------------------------------------------------------------
# Affine stage templates.

@dataclass(frozen=True)
class CellTemplate:
    """One cell of a stage as an affine function of the stage index j.

    At stage j the cell has lower end lo + lo_step*j, upper end hi,
    divisibility div + div_step*j, least-digit set md, and one constraint
    per digit slot (i, step, ds): digit i + step*j lies in ds.  A slot with
    step 0 keeps its position; the sets never change."""
    lo: Ordinal
    lo_step: Ordinal
    hi: Ordinal | None
    div: int
    div_step: int
    md: DigitSet | None
    digits: tuple[tuple[int, int, DigitSet], ...]

    def cell_at(self, j: int | Ordinal, bound: Ordinal | None) -> Cell | None:
        """The cell at stage j, or at j = W the intersection over every stage;
        None when empty.  At W only the fixed slots survive: a moving slot
        whose set lacks 0 expels every point (each point's digits are 0 from
        some position on), and one whose set allows 0 is refused."""
        at_w = j == W
        if at_w and self.div_step > 0:
            return None
        digits: dict[int, DigitSet] = {}
        for i, step, ds in self.digits:
            if step:
                if at_w:
                    if ds.has0:
                        raise UnsupportedProgression("moving digit position with 0 allowed")
                    return None
                i += step * j
            digits[i] = ds_and(digits[i], ds) if i in digits else ds
        div = self.div if at_w else self.div + self.div_step * j
        return _mk_cell(o.add(self.lo, o.mul(self.lo_step, j)), self.hi, digits,
                        div, self.md, bound)

    def nonempty_forever(self) -> bool:
        """On the ceiling space, is the cell nonempty at every stage j?

        True only when it is, by this lemma.  Let hi be None, the cell at
        j = 0 nonempty, no slot whose set lacks 0 slower than div
        (step < div_step), and no two slots crossing or parting (a slot at
        or below another never has the larger step).  With no upper end, a
        cell is nonempty when its box is, by the box lemma of
        `patterns.cell_is_empty`: each slot's set is nonempty, the slots
        below div allow 0, and under md some position e >= div with only
        0-allowing slots below it has a set that meets md (a position no
        slot holds always does).  At stage j the slots keep their order
        and sets, no gap between two of them shrinks, and no set without 0
        falls below div, so the first two hold as at j = 0.  Stage 0's
        witness e carries over: a slot stays a witness, and a free position
        stays free between the slots around it.  When div overtakes that
        slot, or the slot above the free position, div's own position is
        free, or the slot there is slower than div while the first slot
        without 0 is not, so a gap between the two grew and holds a free
        position above div."""
        if self.hi is not None or self.cell_at(0, None) is None:
            return False
        if any(step < self.div_step for _, step, ds in self.digits if not ds.has0):
            return False
        return all(a[1] <= b[1] for a in self.digits for b in self.digits if a[0] <= b[0])


_PROBES = (7, 12)  # offsets past the window start at which a template is checked


def _verified(tmpl, stage_after, space: SpaceDesc) -> bool:
    """Check a template against the stages stage_after(dj), computed afresh
    dj steps past the window start, at the probe offsets."""
    return all(cells_eq(tmpl.instantiate(dj, space), stage_after(dj)) for dj in _PROBES)


@dataclass(frozen=True)
class StageTemplate:
    cells: tuple[CellTemplate, ...]

    def instantiate(self, j: int | Ordinal, space: SpaceDesc) -> tuple[Cell, ...]:
        return prune_cells([c for ct in self.cells
                            if (c := ct.cell_at(j, space.bound)) is not None])

    def limit(self, space: SpaceDesc) -> tuple[Cell, ...]:
        return self.instantiate(W, space)

    def nonempty_forever(self) -> bool:
        return any(c.nonempty_forever() for c in self.cells)

    verified = _verified


def _fit_int(seq: list[int]) -> tuple[int, int] | None:
    d = seq[1] - seq[0]
    if d < 0:
        return None
    if all(seq[j + 1] - seq[j] == d for j in range(len(seq) - 1)):
        return seq[0], d
    return None


def _fit_ord(seq: list[Ordinal]) -> tuple[Ordinal, Ordinal] | None:
    """(seq[0], d) when seq[j] = seq[0] + d*j; d is 0 only when every
    entry is seq[0], since a zero left difference fails the check below."""
    if all(x == seq[0] for x in seq):
        return seq[0], ZERO
    try:
        d = o.left_sub(seq[1], seq[0])
    except ValueError:
        return None
    if all(o.add(seq[j], d) == seq[j + 1] for j in range(len(seq) - 1)):
        return seq[0], d
    return None


def match_template(window: list[tuple[Cell, ...]]) -> StageTemplate | None:
    if len(window) < 3 or not window[0] or any(len(cs) != len(window[0]) for cs in window):
        return None
    out = []
    for fam in zip(*window):  # the stages' idx-th cells
        lo_fit = _fit_ord([c.lo for c in fam])
        if lo_fit is None:
            return None
        if any(c.hi != fam[0].hi for c in fam):
            return None
        div_fit = _fit_int([c.div for c in fam])
        if div_fit is None:
            return None
        if any(c.md != fam[0].md or len(c.digits) != len(fam[0].digits) for c in fam):
            return None
        slots = []
        for entries in zip(*(c.digits for c in fam)):  # one digit entry per stage
            pos = _fit_int([i for i, _ in entries])
            if pos is None or any(ds != entries[0][1] for _, ds in entries):
                return None
            slots.append((pos[0], pos[1], entries[0][1]))
        out.append(CellTemplate(lo_fit[0], lo_fit[1], fam[0].hi,
                                div_fit[0], div_fit[1], fam[0].md, tuple(slots)))
    return StageTemplate(tuple(out))


@dataclass(frozen=True)
class PeriodicTemplate:
    """Stages repeating a shape with period p; each residue class is affine.

    The stages decrease, so the intersection over every stage equals the
    intersection over the class-0 cofinal subsequence; rank soundness only
    needs every class to stay nonempty."""
    period: int
    classes: tuple[StageTemplate, ...]

    def instantiate(self, dj: int, space: SpaceDesc) -> tuple[Cell, ...]:
        return self.classes[dj % self.period].instantiate(dj // self.period, space)

    def limit(self, space: SpaceDesc) -> tuple[Cell, ...]:
        return self.classes[0].limit(space)

    def nonempty_forever(self) -> bool:
        return all(c.nonempty_forever() for c in self.classes)

    verified = _verified


def match_any_template(window: list[tuple[Cell, ...]]) -> PeriodicTemplate | None:
    """A template of period 1, else of period 2, fitting the window."""
    for period in (1, 2):
        classes = tuple(match_template(window[r::period]) for r in range(period))
        if None not in classes:
            return PeriodicTemplate(period, classes)
    return None


# ---------------------------------------------------------------------------
# Transfinite iteration.

@dataclass(frozen=True)
class Budget:
    successors: int = 10_000
    jumps: int = 100
    window: int = 6


DEFAULT_BUDGET = Budget()


def _steps(op: DerivativeOp, cells: tuple[Cell, ...], k: int) -> tuple[Cell, ...]:
    """k derivative steps from a canonical cell tuple."""
    for _ in range(k):
        cells = _apply_cached(op, cells)
    return cells


@dataclass
class IterationTrace:
    op: DerivativeOp
    events: list[tuple[Ordinal, tuple[Cell, ...]]] = field(default_factory=list)
    rank: Ordinal | None = None
    fixpoint: bool = False
    reason: str = ""
    budget_used: int = 0
    limit_jumps: int = 0

    def stage_at(self, theta: Ordinal) -> Pat:
        """The stage set at any theta up to the rank (exact, recomputing
        forward from the nearest recorded stage when necessary)."""
        if self.rank is not None and o.compare(theta, self.rank) >= 0:
            return FALSE
        past = [ev for ev in self.events if o.compare(ev[0], theta) <= 0]
        if not past:  # events are recorded in increasing stage order
            raise ValueError("stage %s precedes the trace" % theta)
        stage, cells = past[-1]
        gap = o.left_sub(theta, stage)
        if not gap.is_finite:
            raise ValueError("stage %s not recorded and not finitely past %s"
                             % (theta, stage))
        return cells_pattern(_steps(self.op, cells, gap.to_int()), self.op.topology.space.bound)

    def log_lines(self) -> list[str]:
        bound = self.op.topology.space.bound
        return ["stage %s set %s" % (stage, pattern_to_sexpr(cells_pattern(cells, bound)))
                for stage, cells in self.events]


def iterate(op: DerivativeOp, F0: Pat, budget: Budget = DEFAULT_BUDGET) -> IterationTrace:
    """The stages of op from the closed set F0 until one is empty (the rank)
    or repeats (a nonempty fixpoint).

    Templates are matched, and limits jumped to, only on the ceiling space
    [0, w^w), the one space where a rank can be transfinite.

    Finiteness lemma: on a bounded space [0, beta), beta < w^w, the CB rank
    r = `SpaceDesc.cb_rank` is finite, and every iteration ends within
    r + 1 steps.  A step S keeps no isolated point of F outside a core K
    of F: F & a & b for separation, F & the persistent disagreement set
    for convergence, and nothing for the CB, Hausdorff and oscillation
    steps.  The core is the
    same at every stage, and from stage 1 on each step keeps its limit
    points.  So stage k lies within cl(K) u X^(k), X^(k) being the space's
    k-th CB derivative, stage r within cl(K), and stage r + 1 equals
    stage r, which is empty when K is.

    Window-containment lemma: a jump's limit lies inside every window
    stage, so the containment check before a jump never refuses; it is
    kept as a guard.  A template cell's limit `cell_at(W)` lies inside its
    cell at every stage j: its lower end lo + lo_step*W is at least
    lo + lo_step*j, and its upper end, md, divisibility and slots are the
    same (a growing divisibility or a moving slot leaves no limit cell).
    So the limit lies inside the template's stage at the last probe offset
    (`_PROBES[-1]` = 12, in class 0 for period 1 and 2), which verification
    has just shown equal to the stage 12 steps past the window start; the
    stages decrease, so that stage lies inside every window stage."""
    t = op.topology
    bound = t.space.bound
    trace = IterationTrace(op)
    cur = to_cells(F0, bound)
    if not sp.cells_closed(cur, t):
        raise ValueError("iteration must start from a closed set")
    stage = ZERO
    run_start = ZERO
    trace.events.append((stage, cur))
    window: list[tuple[Cell, ...]] = []
    while True:
        if not cur:
            trace.rank = stage
            return trace
        if trace.budget_used >= budget.successors:
            trace.reason = "successor budget exhausted"
            raise BudgetExceeded(trace)
        nxt = _apply_cached(op, cur)
        trace.budget_used += 1
        if not cells_subset(nxt, cur):
            raise AssertionError("derivative failed to contract")
        if cells_subset(cur, nxt):  # with nxt <= cur above: nxt == cur
            trace.rank = None
            trace.fixpoint = True
            trace.reason = "nonempty fixpoint (rank marker omega_1)"
            return trace
        stage = o.add(stage, 1)
        cur = nxt
        trace.events.append((stage, cur))
        if bound is not None:
            continue  # a finite rank: no jump (see the lemma above)
        window.append(cur)
        if len(window) > budget.window:
            window.pop(0)
        if len(window) == budget.window and trace.limit_jumps < budget.jumps:
            tmpl = match_any_template(window)
            if tmpl is None:
                continue
            first = window[0]
            if not (tmpl.verified(lambda dj: _steps(op, first, dj), t.space)
                    and tmpl.nonempty_forever()):
                continue
            lim = tmpl.limit(t.space)
            if not all(cells_subset(lim, w) for w in window):
                continue
            target = o.add(run_start, W)
            trace.limit_jumps += 1
            trace.events.append((target, lim))
            stage = run_start = target
            cur = lim
            window = []
