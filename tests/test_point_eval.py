"""Pointwise evaluation: `Pat.holds`, family membership, cell enumeration and
alternating sums, each against an independent reference.

- `holds_at` against the `isinstance` walker it replaced (kept here) and
  against the pattern's own cells, on random formulas at sampled points;
- `TransfiniteFamily.member` and `truth_intervals` against the walker on
  `subst_eta(body, eta)`, at every index below a finite bound and at limits;
- `TransfiniteFamily.pieces` against `truth_intervals` and `exit_index`;
- `iter_cell` against a loop of `cell_min_geq(c, x + 1)`, md cells included;
- `_trace_sum` against the literal recursion, on finite lengths and, block by
  block with the limit rule, below w^2;
- every `Pat` subclass evaluates or raises the one parametric-atom error.
"""
import dataclasses
import random
from fractions import Fraction

import pytest

from ordrank import ordinal as o
from ordrank.altsum import ComboSeq, _trace_sum, altsum_eval, altsum_unrolled
from ordrank.errors import UnsupportedProgression
from ordrank.family import from_segments
from ordrank.ordinal import W, ZERO, add, from_int, mul, omega_power
from ordrank.patterns import (
    FALSE, PARAM_ETA, PARAM_N, TRUE, PAnd, Pat, PDigit, PDiv, PFalse, PMinDigit,
    PNot, POr, POrdGe, POrdGeEta, POrdLt, POrdLtEta, PTrue, and_, cell_min_geq,
    digit_mod, ds_mod, holds_at, iter_cell, not_, or_, subst_eta, to_cells,
)
from ordrank.space import SpaceDesc

from test_altsum import _random_concrete, _trace_value
from test_cell_pipeline import _cell_pool
from test_ordinal import rand_ordinal
from test_space import rand_pattern, rich_pattern

CEILING = None
BOUNDS = (add(mul(W, 8), 8), omega_power(2), CEILING)


def _walk(p, x):
    """The `isinstance` walker `holds_at` was before patterns evaluated
    themselves."""
    if isinstance(p, PTrue):
        return True
    if isinstance(p, PFalse):
        return False
    if isinstance(p, PAnd):
        return all(_walk(q, x) for q in p.parts)
    if isinstance(p, POr):
        return any(_walk(q, x) for q in p.parts)
    if isinstance(p, PNot):
        return not _walk(p.part, x)
    if isinstance(p, PDigit):
        return x.digit(p.i) in p.ds
    if isinstance(p, POrdLt):
        return o.compare(x, p.b) < 0
    if isinstance(p, POrdGe):
        return o.compare(x, p.b) >= 0
    if isinstance(p, PDiv):
        me = x.min_exp()
        return me is not None and me >= p.e
    if isinstance(p, PMinDigit):
        me = x.min_exp()
        return me is not None and x.digit(me) in p.ds
    raise UnsupportedProgression("parametric atom in concrete evaluation: %r" % (p,))


def _points(rng, bound, k):
    """k random points of the space below bound (exponents up to 3 on the
    ceiling space)."""
    out = []
    while len(out) < k:
        x = rand_ordinal(rng, max_exp=3 if bound is None else bound.max_exp())
        if bound is None or x.terms < bound.terms:
            out.append(x)
    return out


def test_holds_at_matches_walker_and_cells():
    rng = random.Random(2401)
    checked = members = 0
    for i in range(90):
        bound = BOUNDS[i % len(BOUNDS)]
        p = rich_pattern(rng) if i % 2 else rand_pattern(rng, max_digit=2)
        cells = to_cells(p, bound)
        for x in _points(rng, bound, 15):
            got = holds_at(p, x)
            assert got is _walk(p, x), (p, x)
            assert got == any(c.holds(x) for c in cells), (p, bound, x)
            checked += 1
            members += got
    # neither side of the answer is vacuous
    assert checked == 90 * 15 and 0.15 * checked < members < 0.85 * checked


def _index_body(rng, lo):
    """An index atom (shift at or below lo, coeff 1-3), alone or with a
    concrete body."""
    atom = rng.choice((POrdGeEta, POrdLtEta))(
        add(mul(W, rng.randint(0, 2)), rng.randint(0, 6)), rng.choice((ZERO, lo)),
        rng.randint(1, 3))
    kind = rng.randrange(4)
    if kind == 0:
        return atom
    if kind == 1:
        return and_(atom, _random_concrete(rng, 1))
    if kind == 2:
        return or_(not_(atom), _random_concrete(rng, 1))
    return and_(atom, rng.choice((POrdGeEta, POrdLtEta))(from_int(rng.randint(0, 9)),
                                                          ZERO, rng.randint(1, 3)))


def _random_family(rng):
    """A from_segments family below w^2 whose segments are concrete or carry
    index atoms."""
    k = rng.randint(1, 4)
    cuts = [ZERO, from_int(k), W, add(W, rng.randint(1, 5)), mul(W, 2), mul(W, 3)]
    length = rng.choice(cuts[2:] + [add(mul(W, 3), 4)])
    bounds = [b for b in cuts if b.terms < length.terms] + [length]
    segs = [(lo, hi, _random_concrete(rng) if rng.random() < 0.3 else _index_body(rng, lo))
            for lo, hi in zip(bounds, bounds[1:])]
    return from_segments(length, segs)


def _indices(length):
    """Every index below 12, and below w*j + 12 from each limit w*j under
    length; then the length and one past it."""
    out = [add(mul(W, j), n) for j in range(4) for n in range(12)]
    return [eta for eta in out if eta.terms < length.terms] + [length, add(length, 1)]


def test_member_and_truth_intervals_match_substitution():
    rng = random.Random(2402)
    inside = 0
    for _ in range(40):
        fam = _random_family(rng)
        for x in _points(rng, omega_power(2), 6) + [ZERO, W, mul(W, 2)]:
            intervals = fam.truth_intervals(x)
            # a partition of [0, length) into maximal intervals
            assert intervals[0][0] is ZERO and intervals[-1][1] is fam.length
            for (_, end, val), (start, _, nxt) in zip(intervals, intervals[1:]):
                assert end is start and val != nxt
            for eta in _indices(fam.length):
                if eta.terms >= fam.length.terms:
                    assert fam.member(eta, x) is False
                    continue
                seg = next(s for s in fam.segments
                           if s.lo.terms <= eta.terms < s.hi.terms)
                want = _walk(subst_eta(seg.body, eta), x)
                assert fam.member(eta, x) is want, (fam, eta, x)
                got = next(v for a, b, v in intervals if a.terms <= eta.terms < b.terms)
                assert got is want, (fam, eta, x)
                inside += want
    assert inside > 1000


def test_pieces_merge_to_truth_intervals():
    """The pieces partition [0, length) in order, each inside one segment;
    merging neighbours that agree gives `truth_intervals`, and `exit_index`
    is the start of the first piece without x."""
    rng = random.Random(2804)
    cut = exits = 0
    for _ in range(40):
        fam = _random_family(rng)
        for x in _points(rng, omega_power(2), 6) + [ZERO, W, mul(W, 2)]:
            pieces = list(fam.pieces(x))
            assert pieces[0][0] is ZERO and pieces[-1][1] is fam.length
            for (_, end, _), (start, _, _) in zip(pieces, pieces[1:]):
                assert end is start
            for start, end, _ in pieces:
                assert start.terms < end.terms
                assert any(s.lo.terms <= start.terms and end.terms <= s.hi.terms
                           for s in fam.segments)
            merged = []
            for start, end, val in pieces:
                if merged and merged[-1][2] == val:
                    merged[-1] = (merged[-1][0], end, val)
                else:
                    merged.append((start, end, val))
            assert merged == fam.truth_intervals(x), (fam, x)
            cut += len(pieces) > len(merged)
            first_out = next((start for start, _, val in pieces if not val), None)
            assert fam.exit_index(x) is first_out, (fam, x)
            exits += first_out is not None
    # pieces that merge, and points that leave the family, are both common
    assert cut > 100 and exits > 100, (cut, exits)


def _ref_iter(c, bound, count):
    hi = c.hi if c.hi is not None else bound
    out = []
    x = cell_min_geq(c, c.lo)
    while x is not None and len(out) < count and (hi is None or o.compare(x, hi) < 0):
        out.append(x)
        x = cell_min_geq(c, o.add(x, 1))
    return out


def test_iter_cell_matches_successor_loop():
    rng = random.Random(2403)
    md = climbs = 0
    for i in range(24):
        bound = (add(mul(W, 2), 3), add(mul(W, 8), 8), omega_power(2), CEILING)[i % 4]
        for c in set(_cell_pool(rng, bound, 3)):
            want = _ref_iter(c, bound, 25)
            assert list(iter_cell(c, 25)) == want, (c, bound)
            md += c.md is not None
            climbs += len({x.max_exp() for x in want}) > 1
    # md cells, and cells whose members climb to a higher exponent
    assert md > 20 and climbs > 50


def _ref_altsum(trace, theta):
    """The alternating sum below theta < w^2 by the literal recursion, block
    by block: in the block of w*j the value is constant from its last mark
    w*j + m on, so the partial sums at the even stages past m agree, and the
    sum at the limit w*(j+1) is theirs."""
    total = 0
    for j in range(theta.digit(1) + 1):
        if j == theta.digit(1):
            stop = theta.digit(0)
        else:
            last = max([s.digit(0) for s, _ in trace if s.digit(1) == j] + [0])
            stop = last + 1 + (last + 1) % 2  # the first even stage past it
        for k in range(stop):
            v = _trace_value(trace, add(mul(W, j), k))
            total += v if k % 2 == 0 else -v
    return total


def _random_combo(rng):
    finite = rng.random() < 0.4
    fams = []
    for _ in range(rng.randint(1, 3)):
        fam = _random_family(rng)
        if finite:
            n = rng.randint(1, 9)
            fam = from_segments(from_int(n), [(ZERO, from_int(n), _index_body(rng, ZERO))])
        fams.append(fam)
    length = max((f.length for f in fams), key=lambda a: a.terms)
    weights = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in fams]
    return ComboSeq(tuple(zip(weights, fams)), length, SpaceDesc(omega_power(2)))


def test_trace_sum_matches_literal_recursion():
    rng = random.Random(2404)
    finite = transfinite = 0
    for _ in range(60):
        seq = _random_combo(rng)
        for x in _points(rng, omega_power(2), 4):
            trace = seq._num_trace(x)
            if seq.length.is_finite:
                steps = seq.length.fin()
                unrolled = altsum_unrolled(seq, x, steps)
                for n in range(steps + 1):
                    theta = from_int(n)
                    assert Fraction(_trace_sum(trace, theta), seq._den) == unrolled[n]
                assert altsum_eval(seq, x, seq.length) == unrolled[steps]
                finite += 1
                continue
            thetas = [t for t in _indices(seq.length) if t.terms <= seq.length.terms]
            thetas += [mul(W, j) for j in range(1, 4) if mul(W, j).terms <= seq.length.terms]
            for theta in thetas:
                assert _trace_sum(trace, theta) == _ref_altsum(trace, theta), (seq, x, theta)
            transfinite += 1
    assert finite > 40 and transfinite > 80


# -- every atom evaluates or refuses ----------------------------------------

# an Ordinal field is an index atom's shift too, so it lies below every eta
_SAMPLE_FIELD = {"int": 2, "Ordinal": from_int(3), "DigitSet": ds_mod(2, 1), "Pat": TRUE,
                 "tuple[Pat, ...]": (TRUE, digit_mod(0, 2, 1))}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _instance(cls):
    fields = dataclasses.fields(cls)
    unknown = [f.type for f in fields if f.type not in _SAMPLE_FIELD]
    assert not unknown, "add a sample value for %s fields %s" % (cls.__name__, unknown)
    return cls(*(_SAMPLE_FIELD[f.type] for f in fields))


@pytest.mark.parametrize("cls", sorted(_subclasses(Pat), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_pattern_class_evaluates_or_refuses(cls):
    p = _instance(cls)
    refusal = "parametric atom in concrete evaluation: %r" % (p,)
    xs = [ZERO, from_int(3), add(W, 1), add(mul(W, 2), 2), omega_power(2)]
    for eta in (None, from_int(4), W):
        param = cls in PARAM_N or (cls in PARAM_ETA and eta is None)
        for x in xs:
            if param:
                with pytest.raises(UnsupportedProgression) as err:
                    p.holds(x, eta)
                assert str(err.value) == refusal
            else:
                # a concrete class evaluates itself, with no walker
                assert "holds" in vars(cls) and p.holds(x, eta) in (True, False)
                if eta is None:
                    assert holds_at(p, x) is _walk(p, x)
                else:
                    assert p.holds(x, eta) is _walk(subst_eta(p, eta), x)


def test_holds_at_refuses_index_atoms_without_index():
    p = and_(TRUE, or_(FALSE, POrdGeEta(ZERO, ZERO, 1)))
    with pytest.raises(UnsupportedProgression, match="parametric atom in concrete"):
        holds_at(p, from_int(1))
