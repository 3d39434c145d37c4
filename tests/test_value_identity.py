"""One object per ordinal and per cell, and results that do not depend on it.

`Ordinal(terms)` and `Cell(lo, hi, digits, div, md)` return the live object
of their value from a weak table, so ordinals and cells compare and hash by
identity.  These tests check that every way of making one returns that
object, that identity and value equality agree, that an ordinal still
equals the int of its value as before, that invalid terms are refused
without touching the table, that copies and pickles (also from another
process) come back as the canonical object, and that the tables let go of
unused values.  Identity hashes follow memory addresses, so the last test
shifts them in a fresh process before it runs the golden outputs.  The
`Pat` classes whose fields agree hash their class too.

Patterns are one object per value as well (the last section): every smart
constructor and every rewrite returns the canonical pattern, an int given
for an ordinal field gives the same object as its ordinal, copies and
pickles come back as it, the table lets go of unused patterns, the repr
text is the recorded one, and the goldens hold with shifted pattern
addresses.
"""
import copy
import dataclasses
import gc
import os
import pickle
import random
import subprocess
import sys

import pytest

from ordrank import ordinal, patterns
from ordrank.ordinal import (ONE, W, ZERO, Ordinal, add, even_floor, from_int,
                             fundamental_sequence, left_sub, mul, omega_power,
                             parse_ordinal)
from ordrank.patterns import (FALSE, TRUE, Cell, PAnd, POr, POrdGe, POrdLt, PTrue,
                              PFalse, _least_in_box, _mk_cell, cell_and, cell_minus,
                              digit_mod, mk_digitset, ord_lt, to_cells)
from ordrank.space import SpaceDesc, base_topology, closure_cells

from test_cell_pipeline import _cell_pool, _rand_ds
from test_ordinal import rand_ordinal
from test_space import rand_pattern

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
DATA = os.path.join(TESTS, "data")

BOUNDS = (add(mul(W, 2), 3), add(mul(W, 8), 8), add(W, 1), from_int(9), None)


def _ordinal_pool(seed, n):
    """Ordinals with few exponents and coefficients, so values repeat."""
    rng = random.Random(seed)
    return [rand_ordinal(rng, max_exp=2, max_coeff=3) for _ in range(n)]


def _rebuilt_ordinal(a):
    """The same value from fresh term tuples."""
    return Ordinal(tuple((e, c) for e, c in list(a.terms)))


def _rebuilt_cell(c):
    """The same value from fresh ordinals, digit sets and tuples."""
    def ds(d):
        return None if d is None else mk_digitset(list(d.prefix), d.period, set(d.residues))
    return Cell(_rebuilt_ordinal(c.lo), None if c.hi is None else _rebuilt_ordinal(c.hi),
                tuple((i, ds(d)) for i, d in list(c.digits)), c.div, ds(c.md))


def _cell_value(c):
    def ds(d):
        return None if d is None else (d.prefix, d.period, d.residues)
    return (c.lo.terms, None if c.hi is None else c.hi.terms,
            tuple((i, ds(d)) for i, d in c.digits), c.div, ds(c.md))


def _cells(seed, rounds):
    rng = random.Random(seed)
    return [c for i in range(rounds) for c in _cell_pool(rng, BOUNDS[i % len(BOUNDS)], 2)]


# -- ordinals -----------------------------------------------------------------

def test_every_ordinal_operation_returns_canonical_objects():
    pool = _ordinal_pool(2301, 80)
    rng = random.Random(2302)
    results = []
    for a in pool:
        b = rng.choice(pool)
        n = rng.randint(0, 4)
        results += [add(a, b), add(a, n), mul(a, b), mul(a, n), even_floor(a),
                    from_int(n), omega_power(n, rng.randint(0, 3)),
                    parse_ordinal(str(a)), parse_ordinal("w^%d*2 + w + %d" % (n + 2, n))]
        lo, hi = sorted((a, b), key=lambda x: x.terms)
        results.append(left_sub(hi, lo))
        if a.terms and a.terms[-1][0] > 0:
            results += [fundamental_sequence(a, n), fundamental_sequence(a, n, even_only=True)]
    for _ in range(200):
        sets = [_rand_ds(rng) for _ in range(rng.randint(1, 4))]
        lower = rand_ordinal(rng, max_exp=len(sets) - 1, max_coeff=3)
        x = _least_in_box(sets, lower)
        if x is not None:
            results.append(x)
    assert len(results) > 1000
    for x in results:
        assert type(x) is Ordinal and Ordinal(x.terms) is x and _rebuilt_ordinal(x) is x


def test_ordinal_identity_holds_exactly_when_values_are_equal():
    rng = random.Random(2314)
    wanted = [tuple((e, rng.randint(1, 3)) for e in range(3, -1, -1) if rng.random() < 0.5)
              for _ in range(2000)]
    made = [Ordinal(terms) for terms in wanted]  # all alive at once
    assert [a.terms for a in made] == wanted
    pool = _ordinal_pool(2303, 150)
    pool += [parse_ordinal(str(a)) for a in pool[::2]]
    pool += [left_sub(add(ONE, a), ONE) for a in pool[::3]]
    equal = 0
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            same = a.terms == b.terms
            assert (a is b) == same and (a == b) == same and (a != b) == (not same)
            assert hash(a) == hash(b) or not same
            equal += same and i != j
    # the pool repeats values by many routes: the check bites
    assert equal > 1000


def _old_eq(a, other):
    """Ordinal.__eq__ as it was when ordinals compared by value."""
    if type(other) is Ordinal:
        return a.terms == other.terms
    if isinstance(other, int):
        other = from_int(other)
    if not isinstance(other, Ordinal):
        return NotImplemented
    return a.terms == other.terms


def test_ordinal_equals_int_as_before():
    others = [0, 1, 2, 3, 7, True, False, 10 ** 30, "1", 1.0, None, (0, 1)]
    for a in _ordinal_pool(2304, 60) + [ZERO, ONE, from_int(7), from_int(10 ** 30)]:
        for n in others:
            want = _old_eq(a, n)
            assert a.__eq__(n) is want
            assert (a == n) == (want is True) and (a != n) == (want is not True)
            assert (n == a) == (want is True)
        for n in (-1, -5):
            with pytest.raises(ValueError):
                _old_eq(a, n)
            with pytest.raises(ValueError):
                a == n  # noqa: B015  (comparing raises, as it did)
    assert ONE == 1 and ZERO == 0 and W != 1 and from_int(4) == 4


def _old_check(terms):
    """Ordinal.__post_init__'s checks as they were, returning the message."""
    prev = None
    for e, c in terms:
        if c < 1:
            return "coefficients must be positive: %r" % (terms,)
        if e < 0:
            return "negative exponent: %r" % (terms,)
        if prev is not None and e >= prev:
            return "exponents must strictly decrease: %r" % (terms,)
        prev = e
    return None


def test_invalid_terms_raise_the_same_errors_and_leave_the_table():
    rng = random.Random(2305)
    bad = [((0, 0),), ((3, -1),), ((-1, 2),), ((0, 1), (1, 1)), ((2, 1), (2, 1)),
           ((5, 1), (3, 0)), ((4, 2), (-2, 1)), ((1, 1), (3, 1), (0, 2))]
    bad += [tuple((rng.randint(-1, 3), rng.randint(-1, 2)) for _ in range(rng.randint(1, 3)))
            for _ in range(200)]
    refused = 0
    for terms in bad:
        want = _old_check(terms)
        if want is None:
            continue
        refused += 1
        before = dict(ordinal._ORDINALS)
        with pytest.raises(ValueError) as err:
            Ordinal(terms)
        assert str(err.value) == want
        assert dict(ordinal._ORDINALS) == before and terms not in ordinal._ORDINALS
    assert refused > 100


def test_ordinals_are_frozen_and_slotted():
    a = add(W, 3)
    for name in ("terms", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, name)
    assert a.terms == ((1, 1), (0, 3)) and not hasattr(a, "__dict__")
    assert repr(a) == "Ordinal(w*1 + 3)"


def test_unused_ordinal_leaves_the_table():
    # a value no other test or module makes, held by nothing but this name
    terms = ((97, 13), (41, 2), (0, 5))
    a = Ordinal(terms)
    assert ordinal._ORDINALS[terms]() is a
    del a
    gc.collect()
    assert terms not in ordinal._ORDINALS
    again = Ordinal(terms)
    assert ordinal._ORDINALS[terms]() is again


def test_a_dead_entry_is_dropped_only_while_it_is_the_entry():
    table = ordinal.InternTable()
    first = Ordinal(((88, 1),))
    table.put("k", first)
    old = table["k"]
    second = Ordinal(((88, 2),))
    table.put("k", second)  # a newer object took the key
    table._drop(old)
    assert table["k"]() is second
    del second
    gc.collect()
    assert "k" not in table


# -- cells --------------------------------------------------------------------

def test_every_cell_operation_returns_canonical_objects():
    rng = random.Random(2306)
    results = []
    for i in range(40):
        bound = BOUNDS[i % len(BOUNDS)]
        t = base_topology(SpaceDesc(bound))
        cells = to_cells(rand_pattern(rng), bound)
        results += cells
        results += closure_cells(cells, t)
        pool = _cell_pool(rng, bound, 2)
        for c in pool[:12]:
            d = rng.choice(pool)
            results += [m for m in (cell_and(c, d),
                                    _mk_cell(c.lo, c.hi, dict(c.digits), c.div, c.md, bound))
                        if m is not None]
            results += cell_minus(c, d)
    assert len(results) > 500
    for c in results:
        assert type(c) is Cell and _rebuilt_cell(c) is c
        assert _cell_value(_rebuilt_cell(c)) == _cell_value(c)
        assert Cell(c.lo, c.hi, c.digits, c.div, c.md) is c


def test_cell_identity_holds_exactly_when_values_are_equal():
    pool = _cells(2307, 20)
    pool += [_rebuilt_cell(c) for c in pool]
    values = [_cell_value(c) for c in pool]
    equal = 0
    for i, c in enumerate(pool):
        for j, d in enumerate(pool):
            same = values[i] == values[j]
            assert (c is d) == same and (c == d) == same
            assert hash(c) == hash(d) or not same
            equal += same and i != j
    assert equal > 1000


def test_copies_and_pickles_are_the_same_object():
    objs = _ordinal_pool(2308, 40) + _cells(2309, 5)[:60]
    for x in objs:
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert copy.deepcopy([x, (x,)])[1][0] is x
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(x, protocol)) is x


def test_unused_cell_leaves_the_table():
    lo = Ordinal(((93, 7), (0, 1)))
    c = Cell(lo, None, ((2, mk_digitset((), 7, {3})),), 1)
    key = (c.lo, c.hi, c.digits, c.div, c.md)
    assert patterns._CELLS[key]() is c
    del c
    gc.collect()
    assert key not in patterns._CELLS
    again = Cell(*key)
    assert patterns._CELLS[key]() is again


def test_cells_are_frozen_and_slotted():
    c = Cell(ONE, W, ((0, mk_digitset((), 2, {1})),), 0)
    for name in ("lo", "_key", "_sig", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(c, name)
    assert not hasattr(c, "__dict__")


_PICKLED = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from test_value_identity import _pickled_values
sys.stdout.buffer.write(pickle.dumps(_pickled_values()))
"""


def _pickled_values():
    """Ordinals and cells that a fresh process makes in another order."""
    from ordrank.patterns import and_, min_digit_in, ds_mod
    bound = add(mul(W, 3), 5)
    p = and_(digit_mod(0, 3, 1), min_digit_in(ds_mod(2, 1)), ord_lt(add(mul(W, 2), 4)))
    ords = [parse_ordinal(s) for s in ("w^3*2 + w + 4", "17", "0", "w^2")]
    return ords, list(to_cells(p, bound)), ords[0]


def test_values_pickled_in_another_process_load_as_the_canonical_objects():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", _PICKLED, TESTS],
                         env=env, capture_output=True, check=True).stdout
    here = _pickled_values()
    ords, cells, first = pickle.loads(out)
    assert len(cells) > 0
    assert all(a is b for a, b in zip(ords, here[0])) and first is here[0][0]
    assert all(c is d for c, d in zip(cells, here[1])) and len(cells) == len(here[1])
    assert {c: 1 for c in here[1]}[cells[0]] == 1


# -- results that do not depend on addresses ------------------------------------

_PERTURBED = """
import contextlib, io, os, random, sys
from ordrank.cli import main
from ordrank.ordinal import Ordinal
from ordrank.patterns import Cell, mk_digitset
seed, data, out_dir = int(sys.argv[1]), sys.argv[2], sys.argv[3]
rng = random.Random(seed)
sets = [mk_digitset((), p, {r}) for p in (2, 3, 5) for r in range(p)]
made = []
for _ in range(4000):
    terms = tuple((e, rng.randint(1, 9)) for e in range(rng.randint(0, 5), -1, -1)
                  if rng.random() < 0.6)
    a = Ordinal(terms)
    made.append(a)
    if rng.random() < 0.5:
        made.append(Cell(a, None, ((rng.randint(0, 3), rng.choice(sets)),), 0))
rng.shuffle(made)
del made[:len(made) // 2]  # the rest stay alive, in shuffled order
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    assert main(["reproduce", "all"]) == 0
with open(os.path.join(out_dir, "reproduce_all"), "w", encoding="utf-8") as fh:
    fh.write(buf.getvalue())
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    for fixture, flag, name in (("example.sexp", "--fn", "chi"),
                                ("example.sexp", "--nfam", "windows"),
                                ("polish_ceiling.sexp", "--fn", "polish")):
        assert main(["rank", os.path.join(data, fixture), flag, name, "--trace"]) == 0
with open(os.path.join(out_dir, "rank_trace"), "w", encoding="utf-8") as fh:
    fh.write(buf.getvalue())
"""


@pytest.mark.parametrize("seed", [2310, 2311])
def test_goldens_hold_with_shifted_addresses(seed, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", _PERTURBED, str(seed), DATA, str(tmp_path)],
                   env=env, check=True, timeout=120)
    for got, golden in (("reproduce_all", "reproduce_all.golden"),
                        ("rank_trace", "rank_trace.golden")):
        with open(tmp_path / got, "rb") as fh, open(os.path.join(DATA, golden), "rb") as want:
            assert fh.read() == want.read(), golden


# -- patterns -------------------------------------------------------------------

def test_pattern_twins_hash_apart():
    parts = (digit_mod(0, 2, 1), ord_lt(W))
    assert hash(PTrue()) != hash(PFalse()) and hash(TRUE) != hash(FALSE)
    assert hash(PAnd(parts)) != hash(POr(parts))
    for b in _ordinal_pool(2312, 20) + [ONE, W]:
        assert hash(POrdLt(b)) != hash(POrdGe(b))


def test_equal_patterns_hash_equal():
    rng = random.Random(2313)
    pool = [rand_pattern(rng) for _ in range(300)]
    pool += [PTrue(), PFalse(), POrdLt(add(W, 2)), POrdGe(add(W, 2)),
             PAnd((TRUE, FALSE)), POr((TRUE, FALSE))]
    for p in pool:
        q = copy.deepcopy(p)
        assert q == p and hash(q) == hash(p)


# -- patterns as values -----------------------------------------------------------

def _field_rebuilt(v):
    """A field value from fresh parts: ordinals, digit sets, patterns and
    tuples of them rebuilt; ints as they are."""
    if isinstance(v, Ordinal):
        return _rebuilt_ordinal(v)
    if isinstance(v, patterns.DigitSet):
        return mk_digitset(list(v.prefix), v.period, set(v.residues))
    if isinstance(v, patterns.Pat):
        return _rebuilt_pattern(v)
    if isinstance(v, tuple):
        return tuple(_field_rebuilt(q) for q in list(v))
    return v


def _rebuilt_pattern(p):
    """The same value from fresh fields, by keyword."""
    return type(p)(**{name: _field_rebuilt(v) for name, v in vars(p).items()})


def _pattern_value(p):
    """The pattern as plain data, for comparing values without identity."""
    def plain(v):
        if isinstance(v, Ordinal):
            return ("o", v.terms)
        if isinstance(v, patterns.DigitSet):
            return ("ds", v.prefix, v.period, v.residues)
        if isinstance(v, patterns.Pat):
            return _pattern_value(v)
        if isinstance(v, tuple):
            return tuple(plain(q) for q in v)
        return v
    return (type(p).__name__,) + tuple(plain(v) for v in vars(p).values())


def _is_canonical(p):
    """p is the table's pattern of its class and fields, and so is each part."""
    key = (type(p),) + tuple(vars(p).values())
    parts = p.parts if isinstance(p, (PAnd, POr)) else (p.part,) if isinstance(
        p, patterns.PNot) else ()
    return (patterns._PATS[key]() is p and _rebuilt_pattern(p) is p
            and type(p)(*vars(p).values()) is p and all(_is_canonical(q) for q in parts))


def _pattern_pool(seed, n):
    """Concrete and parametric formulas, and each smart constructor's result."""
    from test_atom_table import _rand_formula
    from ordrank.patterns import (cell_pattern, cells_pattern, digit_eq, digit_ge, digit_in,
                                  divpow, ds_mod, ds_window, interval, min_digit_in, not_,
                                  or_, ord_ge, singleton)
    rng = random.Random(seed)
    out = []
    for i in range(n):
        p, q = rand_pattern(rng), _rand_formula(rng, eta=True)
        a, b = rand_ordinal(rng, max_exp=2, max_coeff=3), rng.randint(0, 5)
        out += [p, q, patterns.and_(p, q), or_(q, p), not_(p), not_(not_(q)),
                digit_eq(b, rng.randint(0, 4)), digit_ge(b, rng.randint(0, 4)),
                digit_mod(b, 3, rng.randint(0, 2)),
                digit_in(b, ds_window(rng.randint(0, 2), rng.randint(0, 6))),
                ord_lt(a), ord_ge(a), ord_lt(b), divpow(rng.randint(0, 3)),
                min_digit_in(ds_mod(rng.randint(1, 4), rng.randint(0, 3))),
                interval(a, add(a, b)), interval(b, None), singleton(a)]
        bound = BOUNDS[i % len(BOUNDS)]
        cells = to_cells(p, bound)
        out += [cell_pattern(c, bound) for c in cells] + [cells_pattern(cells, bound)]
    return out


def test_every_pattern_operation_returns_canonical_objects():
    from ordrank.patterns import PARAM_ETA, _nnf, map_atoms, subst_eta, subst_n
    from ordrank.errors import UnsupportedProgression
    pool = _pattern_pool(2801, 60)
    results = list(pool)
    for p in pool:
        results.append(map_atoms(p, lambda a: a))
        results.append(subst_n(p, 3))
        try:
            results.append(subst_eta(p, add(W, 2)))
        except ValueError:  # an index atom's shift above the index
            pass
        for neg in (False, True):
            try:
                results.append(_nnf(p, neg))
            except UnsupportedProgression:  # a divpow-n has no negation
                pass
    kinds = {type(a) for p in results for a in patterns.atoms(p)}
    assert len(results) > 2000 and set(PARAM_ETA) <= kinds and patterns.PDivN in kinds
    for p in results:
        assert _is_canonical(p), p


def test_pattern_identity_holds_exactly_when_values_are_equal():
    pool = _pattern_pool(2802, 12)
    pool += [_rebuilt_pattern(p) for p in pool[::2]]
    values = [_pattern_value(p) for p in pool]
    equal = 0
    for i, p in enumerate(pool):
        for j, q in enumerate(pool):
            same = values[i] == values[j]
            assert (p is q) == same and (p == q) == same
            assert hash(p) == hash(q) or not same
            equal += same and i != j
    assert equal > 200


def test_int_ordinal_fields_give_the_ordinal_s_pattern():
    from ordrank.patterns import POrdGeEta, POrdGeN, POrdLtEta, POrdLtN
    for n in (0, 1, 3, 10 ** 20):
        a = from_int(n)
        assert POrdLt(n) is POrdLt(a) and POrdGe(b=n) is POrdGe(a)
        assert type(POrdLt(n).b) is Ordinal
        assert POrdGeN(n, 2) is POrdGeN(a, from_int(2))
        assert POrdLtN(slope=n, base=1) is POrdLtN(ONE, a)
        assert POrdGeEta(n, 0) is POrdGeEta(a, ZERO, 1) is POrdGeEta(base=a, shift=ZERO)
        assert POrdLtEta(n, 0, 2) is POrdLtEta(a, ZERO, 2)
    with pytest.raises(TypeError):
        POrdLt()
    with pytest.raises(TypeError):
        POrdLt(1, 2)
    with pytest.raises(TypeError):
        POrdLt(c=1)


def test_pattern_copies_and_pickles_are_the_same_object():
    for p in _pattern_pool(2803, 6):
        assert copy.copy(p) is p and copy.deepcopy(p) is p
        assert copy.deepcopy([p, (p,)])[1][0] is p
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(p, protocol)) is p


def test_patterns_are_frozen():
    p = patterns.and_(digit_mod(0, 3, 1), ord_lt(W))
    for name in ("parts", "_hash", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(p, name)
    assert vars(p) == {"parts": p.parts}
    assert [f.name for f in dataclasses.fields(patterns.POrdGeEta)] == ["base", "shift", "coeff"]


def test_unused_pattern_leaves_the_table():
    # a value no other test or module makes, held by nothing but these names
    lo = Ordinal(((91, 5), (0, 3)))

    def entries():
        """The table's keys for POrdGe(lo) and for ands with it as a part."""
        return [k for k in patterns._PATS
                if k[0] is POrdGe and k[1] is lo
                or k[0] is PAnd and any(type(q) is POrdGe and q.b is lo for q in k[1])]

    a = POrdGe(lo)
    p = patterns.and_(a, digit_mod(7, 11, 4))
    assert len(entries()) == 2 and patterns._PATS[(POrdGe, lo)]() is a
    del a, p
    gc.collect()
    assert entries() == []
    again = POrdGe(lo)
    assert patterns._PATS[(POrdGe, lo)]() is again


_PICKLED_PATTERNS = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from test_value_identity import _pickled_patterns
sys.stdout.buffer.write(pickle.dumps(_pickled_patterns()))
"""


def _pickled_patterns():
    """Patterns that a fresh process makes in another order."""
    from ordrank.patterns import POrdGeEta, PDigitGeN, and_, min_digit_in, ds_mod, not_, or_
    return [not_(and_(POrdGeEta(W, ONE, 2), digit_mod(1, 3, 2))),
            or_(min_digit_in(ds_mod(2, 1)), ord_lt(add(mul(W, 2), 4))),
            PDigitGeN(0, 1, 2), TRUE, FALSE]


def test_patterns_pickled_in_another_process_load_as_the_canonical_objects():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", _PICKLED_PATTERNS, TESTS],
                         env=env, capture_output=True, check=True).stdout
    here = _pickled_patterns()
    there = pickle.loads(out)
    assert len(there) == len(here) and all(p is q for p, q in zip(there, here))
    assert {p: i for i, p in enumerate(here)}[there[0]] == 0


# The repr of each pattern below, as it read before patterns were interned.
_REPRS = [
    "PTrue()",
    "PFalse()",
    "PAnd(parts=(PDigit(i=0, ds=DigitSet(prefix=(), period=2, residues=frozenset({1}))), "
    "POrdLt(b=Ordinal(w*1))))",
    "POr(parts=(POrdGe(b=Ordinal(w*1 + 3)), PDiv(e=2)))",
    "PNot(part=PDigit(i=1, ds=DigitSet(prefix=(False, False, False, False, True), period=1, "
    "residues=frozenset())))",
    "PDigit(i=2, ds=DigitSet(prefix=(False, False, False), period=1, residues=frozenset({0})))",
    "PMinDigit(ds=DigitSet(prefix=(), period=3, residues=frozenset({2})))",
    "PAnd(parts=(POrdGe(b=Ordinal(2)), POrdLt(b=Ordinal(w*2))))",
    "PAnd(parts=(POrdGe(b=Ordinal(w^2*3 + 1)), POrdLt(b=Ordinal(w^2*3 + 2))))",
    "PDigitGeN(i=0, base=1, slope=2)",
    "PDigitLtN(i=1, base=0, slope=3)",
    "POrdGeN(base=Ordinal(w*1 + 1), slope=Ordinal(w*1))",
    "POrdLtN(base=Ordinal(0), slope=Ordinal(2))",
    "PDivN(base=1, slope=1)",
    "POrdGeEta(base=Ordinal(w*1), shift=Ordinal(0), coeff=2)",
    "POrdLtEta(base=Ordinal(3), shift=Ordinal(2), coeff=1)",
    "PNot(part=PAnd(parts=(POrdGeEta(base=Ordinal(0), shift=Ordinal(0), coeff=1), "
    "PDigit(i=0, ds=DigitSet(prefix=(False, False, True, True, True), period=1, "
    "residues=frozenset())))))",
]


def test_pattern_repr_is_the_recorded_text():
    from ordrank.patterns import (PDigitGeN, PDigitLtN, PDivN, POrdGeEta, POrdGeN,
                                  POrdLtEta, POrdLtN, and_, digit_eq, digit_ge, digit_in,
                                  divpow, ds_mod, ds_window, interval, min_digit_in, not_,
                                  or_, ord_ge, singleton)
    pats = [TRUE, FALSE, and_(digit_mod(0, 2, 1), ord_lt(W)), or_(ord_ge(add(W, 3)), divpow(2)),
            not_(digit_eq(1, 4)), digit_ge(2, 3), min_digit_in(ds_mod(3, 2)),
            interval(from_int(2), mul(W, 2)), singleton(add(omega_power(2, 3), 1)),
            PDigitGeN(0, 1, 2), PDigitLtN(1, 0, 3), POrdGeN(add(W, 1), W),
            POrdLtN(ZERO, from_int(2)), PDivN(1, 1), POrdGeEta(W, ZERO, 2),
            POrdLtEta(from_int(3), from_int(2)),
            not_(and_(POrdGeEta(ZERO, ZERO), digit_in(0, ds_window(2, 5))))]
    assert [repr(p) for p in pats] == _REPRS


_SHIFT_PATTERNS = """
from ordrank.patterns import POrdGe, POrdLt, PDigit, and_, or_
pats = [f(a) for a in made if type(a) is Ordinal for f in (POrdGe, POrdLt)]
made += [and_(p, q) for p, q in zip(pats, pats[1:])] + [or_(p, q) for p, q in zip(pats, pats[2:])]
made += [PDigit(rng.randint(0, 3), rng.choice(sets)) for _ in range(500)]
rng.shuffle(made)
"""


def test_goldens_hold_with_shifted_pattern_addresses(tmp_path):
    script = _PERTURBED.replace("rng.shuffle(made)\n", _SHIFT_PATTERNS, 1)
    assert script != _PERTURBED
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", script, "2812", DATA, str(tmp_path)],
                   env=env, check=True, timeout=120)
    for got, golden in (("reproduce_all", "reproduce_all.golden"),
                        ("rank_trace", "rank_trace.golden")):
        with open(tmp_path / got, "rb") as fh, open(os.path.join(DATA, golden), "rb") as want:
            assert fh.read() == want.read(), golden
