"""The three benchmark workloads: seeded inputs, the timed operation, and an
independent reference check for every answer.

Each workload object is built from the seed alone.  Building it is part of
set-up: it draws only input *specifications* (plain tuples and pattern
trees), so set-up does no rank work.  Every workload has the same three
methods:

- ``next_input()`` returns ``(key, input)``: the next specification, and the
  program inputs built from it (step functions, witness families).  Equal
  keys mean a repeated input, which the program's caches reward.
- ``run(input)`` is the timed operation.
- ``check(input, result)`` returns None when the answer matches a reference
  that does not reuse the code path under test, else the reason it fails.
"""
from __future__ import annotations

import random
from fractions import Fraction

from ordrank import oracle as orc
from ordrank import ordinal as o
from ordrank.altsum import (altsum_eval, build_step_decomposition,
                            length_upper_certificate)
from ordrank.derivative import (Budget, ConvDeriv, DerivativeOp, OscDeriv,
                                SeparationDeriv, apply)
from ordrank.family import explicit_family, from_segments, tails_family
from ordrank.functions import FnFamily, char_fn, constant, fn_add, fn_scale
from ordrank.ordinal import W, ZERO, add, compare, from_int, mul, omega_power
from ordrank.patterns import (FALSE, TRUE, PDigitGeN, PDigitLtN, POrdGeEta,
                              POrdGeN, POrdLtN, and_, digit_eq, digit_ge,
                              digit_in, digit_mod, divpow, ds_and, ds_mod,
                              ds_window, min_digit_in, not_, or_, ord_ge,
                              ord_lt)
from ordrank.ranks import NotStabilized, alpha_fn, beta
from ordrank.space import (SpaceDesc, base_topology, canonicalize,
                           cb_derivative, closure, sample_points)

RANK_BUDGET = Budget(80, 4)
BETA_BUDGET = Budget(60, 2)


# ---------------------------------------------------------------------------
# rank-dense: alpha of the polish-failure indicator and its perturbations.

def _oracle_sep_rank(A: orc.OracleSet, B: orc.OracleSet) -> int:
    """Separation rank by brute force: iterate the blockwise derivative from
    the whole space until it empties (finite on oracle spaces)."""
    F = orc.o_or(A, B)
    rank = 0
    while not F.is_empty:
        nxt = orc.oracle_sep(A, B, F)
        if orc.o_eq(nxt, F):
            raise RuntimeError("oracle separation reached a nonempty fixpoint")
        F, rank = nxt, rank + 1
    return rank


class RankDense:
    """Operation: one ``ranks.alpha_fn`` call.

    The first four operations are the unperturbed indicator of
    A = min_digit_in(ds_mod(2, 0)) on the bounded spaces 12, w*8+8, w^2+1
    and on the ceiling space.  Then come perturbations g = chi_A +- chi_bump/3
    on the ceiling space, bump = digit_mod(d, m, v) & ord_lt(w^c), covering
    all 640 tuples (d <= 3, 2 <= m <= 6, v < m, 2 <= c <= 5, both signs)
    once each, in blocks of 16 that visit every (d, c) once.

    The sequence is a fixed design; the seed permutes the operations inside
    consecutive groups of four.  The seed does not choose the tuples, because
    the cost of one call depends on its tuple idiosyncratically (coefficient
    of variation about 0.5 over the 640 tuples, 0.4 within fixed d, c, sign
    and v == 0) and a run completes only about 50 calls: drawing the tuples
    per seed moved ops_per_s by 15 % and op_p50_ms by 30 % between seeds.
    Every one of the 644 operations was checked once and passes.
    """
    DESIGN_SEED = 5_005
    GROUP = 4
    name = "rank-dense"
    why = ("polish-failure ranks: transfinite iterate, template match and "
           "verification, and the to_cells kernel on the ceiling space")

    A = min_digit_in(ds_mod(2, 0))

    def __init__(self, seed: int):
        design = random.Random(self.DESIGN_SEED)
        strata = {}
        for d in range(4):
            for c in range(2, 6):
                draws = [(m, v, s) for m in range(2, 7) for v in range(m)
                         for s in (1, -1)]
                design.shuffle(draws)
                strata[(d, c)] = draws
        cells = sorted(strata)
        specs = []
        for block in range(len(strata[cells[0]])):
            order = list(cells)
            design.shuffle(order)
            for d, c in order:
                m, v, s = strata[(d, c)][block]
                specs.append((d, m, v, c, s))
        rng = random.Random(seed)
        for i in range(0, len(specs), self.GROUP):
            group = specs[i:i + self.GROUP]
            rng.shuffle(group)
            specs[i:i + self.GROUP] = group
        bounded = [(SpaceDesc(from_int(12)), 1),
                   (SpaceDesc(add(mul(W, 8), 8)), 2),
                   (SpaceDesc(add(omega_power(2), 1)), 3)]
        self.ceiling = SpaceDesc(None)
        self.topology = base_topology(self.ceiling)
        self.chi = char_fn(self.A, self.ceiling)
        self.specs = ([("bounded", space, rank) for space, rank in bounded]
                      + [("ceiling",)] + [("perturbed",) + s for s in specs])
        self.pos = 0

    def next_input(self):
        spec = self.specs[self.pos % len(self.specs)]
        self.pos += 1
        if spec[0] == "bounded":
            _, space, rank = spec
            f = char_fn(self.A, space)
            return spec, (f, base_topology(space), rank)
        if spec[0] == "ceiling":
            return spec, (self.chi, self.topology, None)
        _, d, m, v, c, s = spec
        bump = and_(digit_mod(d, m, v), ord_lt(omega_power(c)))
        delta = fn_scale(char_fn(bump, self.ceiling), Fraction(s, 3))
        return spec, (fn_add(self.chi, delta), self.topology, None)

    def run(self, inp):
        f, t, _ = inp
        return alpha_fn(f, t, RANK_BUDGET)

    def check(self, inp, rep) -> str | None:
        f, t, rank = inp
        if isinstance(rep.value, NotStabilized):
            return "alpha did not stabilize: %s" % rep.value
        space = t.space
        if rank is None:
            # the paper's claim: alpha stays at or above w on the ceiling
            if compare(rep.value, W) < 0:
                return "alpha %s below w on the ceiling space" % rep.value
            if f is self.chi and rep.value != W:
                return "alpha(chi_A) = %s, expected w" % rep.value
            return None
        if rep.value != from_int(rank):
            return "alpha = %s, expected the space rank %d" % (rep.value, rank)
        try:
            orc.oracle_shape(space)
        except orc.NotOracleSpace:
            return None
        a = orc.from_pattern(self.A, space)
        brute = _oracle_sep_rank(a, orc.o_not(a))
        if brute != rank:
            return "oracle separation rank %d, expected %d" % (brute, rank)
        return None


# ---------------------------------------------------------------------------
# oracle-diff: symbolic operators against the blockwise brute force.

def rand_pattern(rng: random.Random, rich: float, max_depth: int = 3,
                 max_digit: int = 1):
    """Random boolean formula over digit and bound atoms; with probability
    ``rich`` an atom is a divisibility or least-coefficient constraint."""
    def atom():
        if rng.random() < rich:
            if rng.random() < 0.5:
                return divpow(rng.randint(1, 2))
            return min_digit_in(ds_mod(rng.randint(2, 3), rng.randint(0, 2)))
        kind = rng.randrange(5)
        i = rng.randint(0, max_digit)
        if kind == 0:
            return digit_eq(i, rng.randint(0, 3))
        if kind == 1:
            return digit_ge(i, rng.randint(1, 4))
        if kind == 2:
            return digit_mod(i, rng.randint(2, 4), rng.randint(0, 3))
        b = add(mul(W, rng.randint(0, 4)), rng.randint(0, 5))
        return ord_ge(b) if kind == 3 else (ord_lt(b) if not b.is_zero else TRUE)

    def build(d):
        k = rng.randrange(4) if d else 0
        if k == 0:
            return atom()
        if k == 1:
            return and_(build(d - 1), build(d - 1))
        if k == 2:
            return or_(build(d - 1), build(d - 1))
        return not_(build(d - 1))

    return build(max_depth)


def rand_nat_family(rng: random.Random, space: SpaceDesc) -> FnFamily:
    """A natural-indexed family: moving digit window, tail indicators, or a
    constant parity split."""
    kind = rng.randrange(3)
    if kind == 0:
        base, slope = rng.randint(0, 2), rng.randint(1, 2)
        return FnFamily(((Fraction(1), PDigitLtN(0, base, slope)),
                         (Fraction(0), PDigitGeN(0, base, slope))), space)
    if kind == 1:
        step = add(mul(W, rng.randint(0, 1)), rng.randint(0, 2))
        if step.is_zero:
            step = from_int(1)
        return FnFamily(((Fraction(1), POrdGeN(ZERO, step)),
                         (Fraction(0), POrdLtN(ZERO, step))), space)
    return FnFamily(((Fraction(rng.randint(0, 2)), digit_mod(0, 2, 0)),
                     (Fraction(3), digit_mod(0, 2, 1))), space)


class OracleDiff:
    """Operation: one differential check of a symbolic operator against the
    brute force on an oracle space (bound below w*m + k).  Operators rotate
    through closure, the CB derivative and one ``derivative.apply`` step of
    the separation, oscillation and convergence derivatives."""
    name = "oracle-diff"
    why = ("many small distinct inputs and no iterate: closure, derivative "
           "steps and from_pattern against the blockwise brute force")

    OPERATORS = ("closure", "cb", "sep", "osc", "conv")
    RICH = 0.15

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.spaces = [SpaceDesc(add(mul(W, 8), 8)), SpaceDesc(add(mul(W, 3), 2)),
                       SpaceDesc(add(W, 1)), SpaceDesc(from_int(9))]
        self.topologies = [base_topology(s) for s in self.spaces]
        self.pos = 0

    def next_input(self):
        rng = self.rng
        op = self.OPERATORS[self.pos % len(self.OPERATORS)]
        si = (self.pos // len(self.OPERATORS)) % len(self.spaces)
        self.pos += 1
        space, t = self.spaces[si], self.topologies[si]
        pat = lambda: rand_pattern(rng, self.RICH)
        if op == "closure":
            args = (pat(),)
        elif op == "cb":
            args = (canonicalize(closure(pat(), t), space),)
        elif op == "sep":
            args = (pat(), pat(), closure(pat(), t))
        elif op == "osc":
            fn = char_fn(pat(), space)
            args = (fn, Fraction(1, rng.randint(1, 3)), closure(pat(), t))
        else:
            args = (rand_nat_family(rng, space), Fraction(1, 2),
                    closure(pat(), t))
        return (op, si) + args, (op, space, t, args)

    def run(self, inp):
        op, s, t, args = inp
        if op == "closure":
            (p,) = args
            return (orc.from_pattern(closure(p, t), s),
                    orc.oracle_closure(orc.from_pattern(p, s)))
        if op == "cb":
            (f,) = args
            return (orc.from_pattern(cb_derivative(f, t), s),
                    orc.oracle_cb(orc.from_pattern(f, s)))
        if op == "sep":
            a, b, f = args
            sym = apply(DerivativeOp(SeparationDeriv(a, b), t), f)
            return (orc.from_pattern(sym, s),
                    orc.oracle_sep(orc.from_pattern(a, s), orc.from_pattern(b, s),
                                   orc.from_pattern(f, s)))
        if op == "osc":
            fn, eps, f = args
            sym = apply(DerivativeOp(OscDeriv(fn, eps), t), f)
            pieces = [(v, orc.from_pattern(p, s)) for v, p in fn.pieces]
            return (orc.from_pattern(sym, s),
                    orc.oracle_osc(pieces, eps, orc.from_pattern(f, s)))
        fam, eps, f = args
        cd = ConvDeriv(fam, eps)
        sym = apply(DerivativeOp(cd, t), f)
        return (orc.from_pattern(sym, s),
                orc.oracle_conv(lambda n: cd.tail_disagreement(n, s),
                                orc.from_pattern(f, s), s))

    def check(self, inp, result) -> str | None:
        sym, brute = result
        if not orc.o_eq(sym, brute):
            return "%s disagrees with the brute force" % inp[0]
        return None


# ---------------------------------------------------------------------------
# decompose-certify: alternating-sum decompositions of step functions.

EVENS = digit_mod(0, 2, 0)


def _witness_for_tail(a):
    """Level witness for the upward interval {x >= a}."""
    if o.classify(a) is o.Kind.SUCCESSOR:
        return explicit_family([TRUE, ord_lt(a), FALSE, FALSE])
    return explicit_family([TRUE, ord_lt(add(a, 1)),
                            and_(ord_ge(a), ord_lt(add(a, 1))), FALSE])


def _witness_for_evens_from(a, bound):
    """Level witness for {x >= a : x even} (a even), of length ``bound``."""
    if a.is_zero:
        return tails_family(bound)
    return from_segments(bound, [(ZERO, from_int(2), TRUE),
                                 (from_int(2), bound, POrdGeEta(a, from_int(2), 1))])


def _even_window(a, b):
    """Even digit-0 values in [a, b): isolated points, an open set."""
    return digit_in(0, ds_and(ds_mod(2, 0), ds_window(a, b)))


def least_lambda(length) -> int:
    """Least lam >= 1 with length <= w^lam."""
    lam = 1
    while compare(length, omega_power(lam)) > 0:
        lam += 1
    return lam


class DecomposeCertify:
    """Operation: one step function with nested levels.  Build its
    alternating-sum decomposition from per-level witnesses, certify the
    length bound at the least lam with length <= w^lam, evaluate the sum at
    40 sampled points, and compute beta."""
    name = "decompose-certify"
    why = ("pointwise exact evaluation (altsum value traces, family "
           "membership, ordinal compare) with little closure normalisation")

    POINTS = 40

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.spaces = [W, add(mul(W, 8), 8), omega_power(2), omega_power(3)]
        self.pos = 0

    def _spec(self, bound_index: int):
        """A nested-level step function as plain data: (kind, params, weights)."""
        rng = self.rng
        kind = rng.randrange(3)
        if kind == 0:  # chain of upward intervals
            offs = sorted(rng.sample(range(1, 12), rng.randint(1, 3)))
            params = tuple(offs)
            levels = 1 + len(offs)
        elif kind == 1:  # X over evens over shifted evens
            params = (2 * rng.randint(1, 4),) if rng.random() < 0.7 else ()
            levels = 2 + len(params)
        else:  # windows of isolated points
            k1 = rng.randint(3, 6)
            params = (k1, rng.randint(2, k1 - 1)) if rng.random() < 0.5 else (k1,)
            levels = 1 + len(params)
        weights = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 3))
                        for _ in range(levels))
        return (bound_index, kind, params, weights)

    def _materialize(self, spec):
        bound_index, kind, params, weights = spec
        bound = self.spaces[bound_index]
        space = SpaceDesc(bound)
        top = (TRUE, explicit_family([TRUE, FALSE]))
        if kind == 0:
            big = compare(bound, mul(W, 3)) > 0
            pts = [add(mul(W, v // 4), v % 4) if big else from_int(v)
                   for v in params]
            pts = [p for p in pts if space.contains(p) and not p.is_zero]
            levels = [top] + [(ord_ge(a), _witness_for_tail(a))
                              for a in sorted(set(pts), key=lambda x: x.terms)]
        elif kind == 1:
            levels = [top, (EVENS, _witness_for_evens_from(ZERO, bound))]
            for a in params:
                a = from_int(a)
                levels.append((and_(EVENS, ord_ge(a)),
                               _witness_for_evens_from(a, bound)))
        else:
            levels = [top]
            for k in params:
                win = _even_window(2, 2 * k)
                levels.append((win, explicit_family([TRUE, not_(win), FALSE, FALSE])))
        f = constant(0, space)
        for (pat, _), w in zip(levels, weights):
            f = fn_add(f, fn_scale(char_fn(pat, space), w))
        return f, [wit for _, wit in reversed(levels)], base_topology(space)

    def next_input(self):
        spec = self._spec(self.pos % len(self.spaces))
        self.pos += 1
        return spec, self._materialize(spec)

    def run(self, inp):
        f, wits, t = inp
        d = build_step_decomposition(f, wits, t)
        lam = least_lambda(d.length)
        cert = length_upper_certificate(f, d, lam, t)
        pts = sample_points(TRUE, t.space, self.POINTS)[:self.POINTS]
        sums = [(x, altsum_eval(d, x, d.length)) for x in pts]
        rep = beta(f, t, BETA_BUDGET)
        return lam, cert, sums, rep

    def check(self, inp, result) -> str | None:
        f, _, _ = inp
        lam, cert, sums, rep = result
        if cert.kind != "length_upper" or cert.lam != lam:
            return "certificate %s at lam %d" % (cert.kind, cert.lam)
        if len(sums) < min(self.POINTS, 8):
            return "only %d sample points" % len(sums)
        for x, s in sums:
            if s != f.eval(x):
                return "alternating sum %s != f(%s) = %s" % (s, x, f.eval(x))
        if isinstance(rep.value, NotStabilized):
            return "beta did not stabilize: %s" % rep.value
        if compare(rep.value, omega_power(lam)) > 0:
            return "beta = %s exceeds w^%d" % (rep.value, lam)
        return None


WORKLOADS = {w.name: w for w in (RankDense, OracleDiff, DecomposeCertify)}
