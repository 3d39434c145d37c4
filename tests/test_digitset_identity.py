"""One object per digit set, and cell results that do not depend on hashes.

`mk_digitset` returns the live object of its canonical value from a weak
table, so digit sets compare and hash by identity.  These tests check that
every way of making a digit set returns that object, that identity and value
equality agree, that the table lets go of unused sets, and that the memoised
`shift_up` matches its formula.  A cell's hash now depends on its digit
sets' identities, so it differs between processes; the last tests check
that the prune and the meet give the same cells whatever order their
inputs come in, and that a cell or a function sequence pickled elsewhere
hashes like one made here.
"""
import copy
import gc
import os
import pickle
import random
import subprocess
import sys

import pytest

from ordrank import patterns
from ordrank.ordinal import W, add, from_int, mul
from ordrank.patterns import (DigitSet, _mk_cell, ds_and, ds_eq, ds_ge, ds_lt, ds_mod,
                              ds_not, ds_or, ds_window, meet, mk_digitset, prune_cells,
                              to_cells)

from test_cell_pipeline import _cell_pool, _rand_ds
from test_space import rand_pattern

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# prefixes up to 8 and periods up to 6: two such sets that agree on
# [0, 8 + lcm of the periods) agree everywhere
VALUE_RANGE = 8 + 60


def _raw_ds(rng):
    """A digit set from arguments that are seldom canonical: repeated
    periods, redundant prefix tails and residues above the period."""
    base = rng.choice((1, 2, 3))
    period = base * rng.choice((1, 2))
    residues = {r + period * rng.randint(0, 2) for r in range(period)
                if rng.random() < 0.5}
    return mk_digitset([rng.random() < 0.5 for _ in range(rng.randint(0, 8))],
                       period, residues)


def _value(ds):
    return tuple(v in ds for v in range(VALUE_RANGE))


def _is_canonical(ds):
    return type(ds) is DigitSet and mk_digitset(ds.prefix, ds.period, ds.residues) is ds


def _old_shift_up(ds, k):
    """shift_up's formula, re-canonicalised on every call."""
    if k == 0:
        return ds
    pref = (False,) * k + tuple(((v - k) in ds) for v in range(k, len(ds.prefix) + k))
    res = frozenset((r + k) % ds.period for r in ds.residues)
    return mk_digitset(pref, ds.period, res)


def _pool(seed, n):
    rng = random.Random(seed)
    return [_raw_ds(rng) if rng.random() < 0.7 else _rand_ds(rng) for _ in range(n)]


def test_mk_digitset_returns_the_one_object_of_its_value():
    pool = _pool(2201, 400)
    for a in pool:
        assert mk_digitset(a.prefix, a.period, a.residues) is a
        # the same value from other arguments: a doubled period, a prefix
        # spelled out past its canonical end
        assert mk_digitset(a.prefix, 2 * a.period,
                           set(a.residues) | {r + a.period for r in a.residues}) is a
        longer = a.prefix + tuple(v in a for v in range(len(a.prefix), len(a.prefix) + 3))
        assert mk_digitset(longer, a.period, a.residues) is a


def test_every_operation_returns_canonical_objects():
    pool = _pool(2202, 60)
    rng = random.Random(2203)
    results = []
    for a in pool:
        b = rng.choice(pool)
        results += [ds_and(a, b), ds_or(a, b), ds_not(a), a.shift_up(rng.randint(0, 5))]
    for v in range(8):
        results += [ds_eq(v), ds_ge(v), ds_lt(v), ds_window(v, v + rng.randint(0, 4)),
                    ds_mod(v + 1, rng.randint(0, 7))]
    assert all(_is_canonical(r) for r in results)


def test_identity_holds_exactly_when_values_are_equal():
    pool = _pool(2204, 300)
    pool += [ds_and(a, b) for a, b in zip(pool, reversed(pool))]
    values = [_value(a) for a in pool]
    equal = 0
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            same = values[i] == values[j]
            assert (a is b) == same and (a == b) == same
            assert (hash(a) == hash(b)) or not same
            equal += same and i != j
    # the pool repeats values from different arguments: the check bites
    assert equal > 1000


def test_direct_constructor_raises():
    before = len(patterns._DIGITSETS)
    with pytest.raises(TypeError):
        DigitSet((), 1, frozenset({0}))
    with pytest.raises(TypeError):
        DigitSet(prefix=(True,), period=2, residues=frozenset({1}))
    assert len(patterns._DIGITSETS) == before


def test_copies_and_pickles_are_the_same_object():
    for a in _pool(2205, 100):
        assert copy.copy(a) is a
        assert copy.deepcopy(a) is a
        assert copy.deepcopy([a, (a,)])[1][0] is a
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(a, protocol)) is a


def test_unused_digit_set_leaves_the_table():
    # a value no other test or module makes, held by nothing but this name
    prefix = tuple(v % 3 == 1 for v in range(37))
    ds = mk_digitset(prefix, 7, {2, 5})
    key = (ds.prefix, ds.period, ds.residues)
    assert patterns._DIGITSETS.get(key) is ds
    del ds
    gc.collect()
    assert key not in patterns._DIGITSETS
    again = mk_digitset(prefix, 7, {2, 5})
    assert patterns._DIGITSETS.get(key) is again


def test_shift_up_matches_its_formula():
    pool = _pool(2206, 200)
    rng = random.Random(2207)
    for a in pool:
        for k in (0, rng.randint(1, 3), rng.randint(4, 9)):
            got = a.shift_up(k)
            assert got is _old_shift_up(a, k)
            assert all((v in got) == (v >= k and (v - k) in a) for v in range(VALUE_RANGE + 9))
            # a second call comes from the memo, with the same k
            assert a.shift_up(k) is got
    assert a.shift_up(1).shift_up(2) is a.shift_up(3)


def _ds_cell_pool(rng, bound, n):
    """Canonical cells made from random digit sets, lower bounds and levels."""
    lows = (from_int(0), from_int(1), from_int(3), W, add(W, 2))
    out = []
    for _ in range(n):
        digits = {i: _rand_ds(rng) for i in range(rng.randint(0, 2))}
        c = _mk_cell(rng.choice(lows), None, digits, rng.choice((0, 0, 1)),
                     _rand_ds(rng) if rng.random() < 0.3 else None, bound)
        if c is not None:
            out.append(c)
    return out


def test_prune_and_meet_do_not_depend_on_input_order():
    rng = random.Random(2208)
    bounds = (add(mul(W, 2), 3), add(mul(W, 8), 8), add(W, 1), from_int(9), None)
    seen = kept = pairs = 0
    for i in range(60):
        bound = bounds[i % len(bounds)]
        pool = _ds_cell_pool(rng, bound, rng.randint(2, 12))
        pool += _cell_pool(rng, bound, rng.randint(1, 3))
        got = prune_cells(pool)
        for _ in range(3):
            assert prune_cells(rng.sample(pool, len(pool))) == got
        seen += len(set(pool))
        kept += len(got)
        xs = prune_cells(_ds_cell_pool(rng, bound, rng.randint(4, 14))
                         + list(to_cells(rand_pattern(rng), bound)))
        ys = prune_cells(_ds_cell_pool(rng, bound, rng.randint(4, 14)))
        want = meet(xs, ys)
        pairs += len(xs) * len(ys)
        for _ in range(3):
            assert meet(tuple(rng.sample(xs, len(xs))), tuple(rng.sample(ys, len(ys)))) == want
    assert seen > 300 and 0 < kept < seen and pairs > 300


_PICKLED = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from test_digitset_identity import _pickled_objects
sys.stdout.buffer.write(pickle.dumps(_pickled_objects()))
"""


def _pickled_objects():
    """Cells and a function sequence whose cached hashes cover digit sets."""
    from fractions import Fraction
    from ordrank.altsum import ComboSeq
    from ordrank.family import explicit_family
    from ordrank.patterns import and_, digit_mod, min_digit_in
    from ordrank.space import SpaceDesc
    p = and_(digit_mod(0, 3, 1), min_digit_in(ds_mod(2, 1)))
    seq = ComboSeq(((Fraction(1, 2), explicit_family([p, digit_mod(1, 2, 0)])),
                    (Fraction(1, 3), explicit_family([min_digit_in(ds_mod(3, 2))]))),
                   from_int(2), SpaceDesc(add(W, 5)))
    return to_cells(p, add(W, 5)), seq


def test_cell_pickled_in_another_process_hashes_here():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", _PICKLED, os.path.dirname(__file__)],
                         env=env, capture_output=True, check=True).stdout
    cells, seq = pickle.loads(out)
    here, seq_here = _pickled_objects()
    assert cells == here and len(here) > 0
    assert [hash(c) for c in cells] == [hash(c) for c in here]
    assert set(cells) == set(here)
    for c in here:
        assert copy.deepcopy(c) == c and hash(copy.deepcopy(c)) == hash(c)
    assert seq == seq_here and hash(seq) == hash(seq_here)
    assert {seq_here: 1}[seq] == 1
    assert copy.deepcopy(seq) == seq and hash(copy.deepcopy(seq)) == hash(seq)
    x = add(W, 3)
    assert seq.value_trace(x) == seq_here.value_trace(x)
