"""The parametric atoms read through one walker and one per-kind table.

`patterns.atoms`/`map_atoms` and `PARAM_N`/`PARAM_ETA` replaced per-kind
recursions in four modules.  The `_ref_*` functions below are those
recursions as they were, kept as the reference: on seeded formulas with
every parametric kind under nested not, the table-driven code must give
equal results or raise the same exception type.
"""
import random
from fractions import Fraction

from ordrank import ordinal as o
from ordrank.derivative import _max_atom_base
from ordrank.errors import UnsupportedProgression
from ordrank.family import _eta_breakpoints
from ordrank.functions import FnFamily, _breakpoints, eventual
from ordrank.ordinal import max_mult as _max_mult
from ordrank.ordinal import W, ZERO, add, from_int, mul, omega_power
from ordrank.patterns import (
    FALSE, TRUE, PAnd, PDigitGeN, PDigitLtN, PDiv, PDivN, PMinDigit, PNot, POr,
    POrdGe, POrdGeEta, POrdGeN, POrdLt, POrdLtEta, POrdLtN, PDigit, PFalse,
    PTrue, _nnf, and_, atoms, digit_ge, digit_in, digit_mod, divpow, ds_lt, ds_mod,
    ds_not, holds_at, is_concrete, min_digit_in, not_, or_, ord_ge, ord_lt,
    subst_eta, subst_n, PARAM_ETA, PARAM_N,
)
from ordrank.space import SpaceDesc

_REF_PARAM_N = (PDigitGeN, PDigitLtN, POrdGeN, POrdLtN, PDivN)
_REF_DECREASING = (PDigitGeN, POrdGeN, PDivN)


def _ref_is_concrete(p):
    if isinstance(p, (PAnd, POr)):
        return all(_ref_is_concrete(q) for q in p.parts)
    if isinstance(p, PNot):
        return _ref_is_concrete(p.part)
    return not isinstance(p, _REF_PARAM_N + (POrdGeEta, POrdLtEta))


def _ref_subst_n(p, n):
    if isinstance(p, PAnd):
        return and_(*(_ref_subst_n(q, n) for q in p.parts))
    if isinstance(p, POr):
        return or_(*(_ref_subst_n(q, n) for q in p.parts))
    if isinstance(p, PNot):
        return not_(_ref_subst_n(p.part, n))
    if isinstance(p, PDigitGeN):
        return digit_ge(p.i, p.base + p.slope * n)
    if isinstance(p, PDigitLtN):
        return digit_in(p.i, ds_lt(p.base + p.slope * n))
    if isinstance(p, POrdGeN):
        return ord_ge(o.add(p.base, o.mul(p.slope, n)))
    if isinstance(p, POrdLtN):
        return ord_lt(o.add(p.base, o.mul(p.slope, n)))
    if isinstance(p, PDivN):
        return divpow(p.base + p.slope * n)
    return p


def _ref_subst_eta(p, eta):
    if isinstance(p, PAnd):
        return and_(*(_ref_subst_eta(q, eta) for q in p.parts))
    if isinstance(p, POr):
        return or_(*(_ref_subst_eta(q, eta) for q in p.parts))
    if isinstance(p, PNot):
        return not_(_ref_subst_eta(p.part, eta))
    if isinstance(p, (POrdGeEta, POrdLtEta)):
        val = o.add(p.base, o.mul(o.left_sub(eta, p.shift), p.coeff))
        return ord_ge(val) if isinstance(p, POrdGeEta) else ord_lt(val)
    return p


def _ref_atom_at_limit(a):
    if isinstance(a, (POrdGeN, POrdLtN)):
        bound = o.add(a.base, o.mul(a.slope, o.W))
        return ord_ge(bound) if isinstance(a, POrdGeN) else ord_lt(bound)
    if a.slope == 0:
        return _ref_subst_n(a, 0)
    return FALSE if isinstance(a, _REF_DECREASING) else TRUE


def _ref_eventual(p):
    if isinstance(p, PAnd):
        return and_(*(_ref_eventual(q) for q in p.parts))
    if isinstance(p, POr):
        return or_(*(_ref_eventual(q) for q in p.parts))
    if isinstance(p, PNot):
        return not_(_ref_eventual(p.part))
    return _ref_atom_at_limit(p) if isinstance(p, _REF_PARAM_N) else p


def _ref_breakpoints(p, x):
    if isinstance(p, (PAnd, POr)):
        return set().union(*(_ref_breakpoints(q, x) for q in p.parts))
    if isinstance(p, PNot):
        return _ref_breakpoints(p.part, x)
    if (not isinstance(p, _REF_PARAM_N)
            or holds_at(_ref_subst_n(p, 0), x) == holds_at(_ref_atom_at_limit(p), x)):
        return set()
    if isinstance(p, (PDigitGeN, PDigitLtN)):
        return {(x.digit(p.i) - p.base) // p.slope + 1}
    if isinstance(p, PDivN):
        return {(x.min_exp() - p.base) // p.slope + 1}
    return {_max_mult(p.slope, o.left_sub(x, p.base)) + 1}


def _ref_max_atom_base(p):
    if isinstance(p, (PAnd, POr)):
        return max((_ref_max_atom_base(q) for q in p.parts), default=0)
    if isinstance(p, PNot):
        return _ref_max_atom_base(p.part)
    if isinstance(p, (PDigitGeN, PDigitLtN, PDivN)):
        return p.base + p.slope
    if isinstance(p, (POrdGeN, POrdLtN)):
        return p.base.fin() + p.slope.fin()
    return 0


def _ref_eta_breakpoints(body, x):
    if isinstance(body, (PAnd, POr)):
        out = []
        for q in body.parts:
            out.extend(_ref_eta_breakpoints(q, x))
        return out
    if isinstance(body, PNot):
        return _ref_eta_breakpoints(body.part, x)
    if isinstance(body, (POrdGeEta, POrdLtEta)):
        if o.compare(x, body.base) < 0:
            return [ZERO]
        return [o.add(body.shift, o.least_multiple_above(
            o.left_sub(x, body.base), body.coeff))]
    return []


def _ref_nnf(p, neg):
    if isinstance(p, PTrue):
        return FALSE if neg else TRUE
    if isinstance(p, PFalse):
        return TRUE if neg else FALSE
    if isinstance(p, PNot):
        return _ref_nnf(p.part, not neg)
    if isinstance(p, PAnd):
        sub = tuple(_ref_nnf(q, neg) for q in p.parts)
        return or_(*sub) if neg else and_(*sub)
    if isinstance(p, POr):
        sub = tuple(_ref_nnf(q, neg) for q in p.parts)
        return and_(*sub) if neg else or_(*sub)
    if not neg:
        return p
    if isinstance(p, PDigit):
        return digit_in(p.i, ds_not(p.ds))
    if isinstance(p, POrdLt):
        return POrdGe(p.b)
    if isinstance(p, POrdGe):
        return ord_lt(p.b)
    if isinstance(p, PDiv):
        return or_(ord_lt(1), *(digit_ge(i, 1) for i in range(p.e)))
    if isinstance(p, PMinDigit):
        return or_(ord_lt(1), min_digit_in(ds_not(p.ds)))
    if isinstance(p, PDigitGeN):
        return PDigitLtN(p.i, p.base, p.slope)
    if isinstance(p, PDigitLtN):
        return PDigitGeN(p.i, p.base, p.slope)
    if isinstance(p, POrdGeN):
        return POrdLtN(p.base, p.slope)
    if isinstance(p, POrdLtN):
        return POrdGeN(p.base, p.slope)
    if isinstance(p, POrdGeEta):
        return POrdLtEta(p.base, p.shift, p.coeff)
    if isinstance(p, POrdLtEta):
        return POrdGeEta(p.base, p.shift, p.coeff)
    raise UnsupportedProgression("cannot negate %r" % (p,))


def _outcome(fn, *args):
    """fn's value, or the type of what it raised."""
    try:
        return "value", fn(*args)
    except (ValueError, UnsupportedProgression) as e:
        return "raised", type(e)


def _rand_ord(rng):
    return add(mul(W, rng.randint(0, 3)), rng.randint(0, 3))


def _rand_atom(rng, eta: bool):
    """One atom of any natural-parameter kind, a concrete atom, or (with
    eta) a family-index atom with coeff 1 or 2."""
    kind = rng.randrange(9 if eta else 7)
    if kind == 0:
        return PDigitGeN(rng.randint(0, 1), rng.randint(0, 4), rng.randint(0, 2))
    if kind == 1:
        return PDigitLtN(rng.randint(0, 1), rng.randint(0, 4), rng.randint(0, 2))
    if kind in (2, 3):
        slope = rng.choice([ZERO, from_int(1), from_int(2), W, add(W, 1)])
        return (POrdGeN if kind == 2 else POrdLtN)(_rand_ord(rng), slope)
    if kind == 4:
        return PDivN(rng.randint(0, 2), rng.randint(0, 2))
    if kind == 5:
        return digit_mod(rng.randint(0, 1), rng.randint(2, 3), rng.randint(0, 1))
    if kind == 6:
        return rng.choice([ord_ge(_rand_ord(rng)), divpow(rng.randint(1, 2)),
                           min_digit_in(ds_mod(2, 1))])
    shift = rng.choice([ZERO, from_int(1), W])
    return (POrdGeEta if kind == 7 else POrdLtEta)(_rand_ord(rng), shift, rng.randint(1, 2))


def _rand_formula(rng, eta: bool, depth: int = 3):
    """and/or/not of random atoms; a not may wrap another not directly."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        return _rand_atom(rng, eta)
    if r < 0.5:
        inner = _rand_formula(rng, eta, depth - 1)
        return PNot(PNot(inner)) if rng.random() < 0.3 else not_(inner)
    parts = [_rand_formula(rng, eta, depth - 1) for _ in range(rng.randint(1, 3))]
    return (and_ if r < 0.75 else or_)(*parts)


POINTS = [ZERO, from_int(3), from_int(9), W, add(W, 2), mul(W, 2), add(mul(W, 3), 1),
          add(mul(W, 7), 7), omega_power(2), add(omega_power(2), add(W, 4)),
          omega_power(3, 2)]
INDICES = [ZERO, from_int(1), from_int(4), W, add(W, 3), mul(W, 2), omega_power(2)]


def test_table_matches_per_kind_recursions():
    rng = random.Random(1111)
    kinds_seen = set()
    for _ in range(400):
        p = _rand_formula(rng, eta=True)
        kinds_seen |= {type(a) for a in atoms(p)}
        assert is_concrete(p) == _ref_is_concrete(p), p
        assert _max_atom_base(p) == _ref_max_atom_base(p), p
        assert eventual(p) == _ref_eventual(p), p
        for neg in (False, True):
            assert _outcome(_nnf, p, neg) == _outcome(_ref_nnf, p, neg), (p, neg)
        for n in (0, 1, 2, 5):
            assert subst_n(p, n) == _ref_subst_n(p, n), (p, n)
        for eta in INDICES:
            assert _outcome(subst_eta, p, eta) == _outcome(_ref_subst_eta, p, eta), (p, eta)
        for x in POINTS:
            assert _outcome(_breakpoints, p, x) == _outcome(_ref_breakpoints, p, x), (p, x)
            assert (_outcome(lambda q, y: list(_eta_breakpoints(
                [a for a in atoms(q) if type(a) in PARAM_ETA], y)), p, x)
                    == _outcome(_ref_eta_breakpoints, p, x)), (p, x)
    assert {PDigitGeN, PDigitLtN, POrdGeN, POrdLtN, PDivN, POrdGeEta,
            POrdLtEta} <= kinds_seen


def test_negated_kinds_are_complements():
    """Every kind with a `neg`: the neg's neg is the kind, it runs the other
    way, and at seeded points and parameters the two atoms are complements.
    Each kind's `shrinks` is also checked: its sets shrink as the parameter grows."""
    rng = random.Random(2323)
    for table in (PARAM_N, PARAM_ETA):
        for cls, kind in table.items():
            if kind.neg is not None:
                assert table[kind.neg].neg is cls
                assert table[kind.neg].shrinks is not kind.shrinks
    seen = set()
    for _ in range(400):
        a = _rand_atom(rng, eta=True)
        table, params = ((PARAM_N, [0, 1, 2, 5]) if type(a) in PARAM_N else
                         (PARAM_ETA, INDICES) if type(a) in PARAM_ETA else (None, None))
        if table is None:
            continue
        kind = table[type(a)]
        b = kind.neg(**vars(a)) if kind.neg is not None else None
        seen.add(type(a))
        members = []
        for n in params:
            outcome, pa = _outcome(kind.at, a, n)
            if outcome == "raised":  # an index below the shift
                continue
            members.append([holds_at(pa, x) for x in POINTS])
            if b is not None:
                pb = table[type(b)].at(b, n)
                assert [not holds_at(pb, x) for x in POINTS] == members[-1], (a, n)
        for before, after in zip(members, members[1:]):
            wider, narrower = (before, after) if kind.shrinks else (after, before)
            assert all(w or not m for w, m in zip(wider, narrower)), a
    assert seen == set(PARAM_N) | set(PARAM_ETA)


def _run_lengths(values):
    out = []
    for n, v in enumerate(values):
        if not out or out[-1][1] != v:
            out.append((n, v))
    return tuple(out)


def test_value_trace_matches_members():
    """value_trace(x) is the run-length form of n -> f_n(x) for n <= 64.

    The pieces and_(p, not_(q)) and not_(p) negate the atoms of p and q."""
    rng = random.Random(5150)
    spaces = [SpaceDesc(add(mul(W, 8), 8)), SpaceDesc(None)]
    divn_seen = 0
    for space in spaces:
        xs = [x for x in POINTS if space.bound is None or o.compare(x, space.bound) < 0]
        for _ in range(16):
            p, q = _rand_formula(rng, False, 2), _rand_formula(rng, False, 2)
            fam = FnFamily(((Fraction(2), and_(p, q)), (Fraction(1), and_(p, not_(q))),
                            (Fraction(0), not_(p))), space)
            divn_seen += any(isinstance(a, PDivN) for a in atoms(and_(p, q)))
            members = [fam.at(n) for n in range(65)]
            for x in xs:
                trace = fam.value_trace(x)
                assert trace[-1][0] <= 64, (p, q, x)
                assert trace == _run_lengths([f.eval(x) for f in members]), (p, q, x)
    assert divn_seen >= 10
