"""The fixture grammar stated once: atom round trips, refused parts and
usage errors, each through `cli.main` in-process."""
import random

import pytest

from ordrank import ordinal as o
from ordrank.cli import main
from ordrank.errors import FixtureParseError
from ordrank.fixtures import (fixture_to_sexpr, load_fixture, parse_sexpr,
                              pattern_to_sexpr, sexpr_to_pattern)
from ordrank.patterns import (PDigit, PDigitGeN, PDigitLtN, PDiv, PDivN,
                              PMinDigit, POrdGe, POrdGeEta, POrdGeN, POrdLt,
                              POrdLtEta, POrdLtN, and_, atoms, digit_ge,
                              digit_in, digit_mod, divpow, ds_eq, ds_ge,
                              ds_mod, min_digit_in, mk_digitset, not_, or_,
                              ord_ge, ord_lt)
from ordrank.space import SpaceDesc, is_empty, sample_points

ATOM_CLASSES = {PDigit, PMinDigit, POrdLt, POrdGe, PDiv, POrdGeEta, POrdLtEta,
                PDigitGeN, PDigitLtN, POrdGeN, POrdLtN, PDivN}


def _rand_ord(rng):
    return o.add(o.add(o.omega_power(2, rng.randint(0, 2)),
                       o.omega_power(1, rng.randint(0, 3))),
                 o.from_int(rng.randint(0, 4)))


def _rand_ds(rng):
    period = rng.randint(1, 4)
    return mk_digitset([rng.random() < 0.5 for _ in range(rng.randint(0, 3))],
                       period, {r for r in range(period) if rng.random() < 0.5})


def _rand_atom(rng):
    i, n = rng.randint(0, 5), rng.randint(0, 6)
    return rng.choice([
        lambda: digit_in(i, ds_eq(n)), lambda: digit_in(i, ds_ge(n)),
        lambda: digit_in(i, ds_mod(rng.randint(1, 6), n)), lambda: digit_in(i, _rand_ds(rng)),
        lambda: digit_mod(i, rng.randint(1, 6), n),
        lambda: min_digit_in(ds_mod(rng.randint(2, 6), n)),
        lambda: min_digit_in(ds_eq(n)), lambda: min_digit_in(ds_ge(n)),
        lambda: min_digit_in(_rand_ds(rng)),
        lambda: ord_lt(_rand_ord(rng)), lambda: ord_ge(_rand_ord(rng)), lambda: divpow(i),
        lambda: POrdGeEta(_rand_ord(rng), _rand_ord(rng), n),
        lambda: POrdLtEta(_rand_ord(rng), _rand_ord(rng), n),
        lambda: PDigitGeN(i, n, rng.randint(0, 3)), lambda: PDigitLtN(i, n, rng.randint(0, 3)),
        lambda: POrdGeN(_rand_ord(rng), _rand_ord(rng)),
        lambda: POrdLtN(_rand_ord(rng), _rand_ord(rng)),
        lambda: PDivN(i, rng.randint(0, 3)),
    ])()


def _rand_pattern(rng, depth=3):
    k = rng.randrange(4) if depth else 0
    if k == 0:
        return _rand_atom(rng)
    if k == 3:
        return not_(_rand_pattern(rng, depth - 1))
    parts = [_rand_pattern(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    return (and_ if k == 1 else or_)(*parts)


def test_pattern_roundtrip_every_atom_kind():
    # print then parse gives the same pattern; parse then print the same text
    rng = random.Random(1401)
    seen = set()
    for _ in range(3000):
        p = _rand_pattern(rng)
        seen.update(type(a) for a in atoms(p))
        text = pattern_to_sexpr(p)
        again = sexpr_to_pattern(parse_sexpr(text))
        assert again == p, text
        assert pattern_to_sexpr(again) == text
    assert ATOM_CLASSES <= seen


BASE = '(fixture (space (bound "w*2+1")) (set a (mod 0 2 1)) (set b (not (ref a))) %s)'


def _rank(tmp_path, capsys, text, argv=("rank", "--pair", "a", "b")):
    path = tmp_path / "fx.sexp"
    path.write_text(text, encoding="utf-8")
    rc = main([argv[0], str(path)] + list(argv[1:]))
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("text, message", [
    # each of these was read as another input and exited 0
    (BASE % "(set c (digit-in 0 (ds (period 2) (residue 1))))", "(ds ...) has no part 'residue'"),
    (BASE % "(set c (digit-in 0 (ds (prefix 2 1) (period 2) (residues 1))))",
     "expected a (prefix ...) bit 0 or 1, got '2'"),
    (BASE % "(refine (sets b) (xii 1))", "(refine ...) has no part 'xii'"),
    (BASE % "(refine (sets b))", "(refine ...) needs a (xi ...)"),
    (BASE % "(refine (sets b) (xi 1) (xi 2))", "(refine ...) has a second (xi ...)"),
    (BASE.replace('"w*2+1")', '"w*2+1") (dept 9)'), "(space ...) has no part 'dept'"),
    (BASE.replace('(bound "w*2+1")', "(depth 6)"), "(space ...) needs a (bound ...)"),
    (BASE.replace('"w*2+1")', '"w*2+1") (bound "w")'), "(space ...) has a second (bound ...)"),
    (BASE % '(family f (length "2") (segment (from "0") (to "2") (ref a) (ref b)))',
     "(segment ...) has a second body pattern"),
    (BASE % '(family f (length "2") (segment (from "0") (to "2")))',
     "(segment ...) needs a body pattern"),
    (BASE % '(family f (length "2") (segment (from "0") (true)))', "(segment ...) needs a (to ...)"),
    (BASE % '(family f (length "2") (length "3") (segment (from "0") (to "2") (true)))',
     "(family ...) has a second (length ...)"),
    (BASE % '(family f (lenght "2") (segment (from "0") (to "2") (true)))',
     "(family ...) has no part 'lenght'"),
    (BASE % "(nfam n (piece 1 (true)) (peice 0 (false)))", "(nfam ...) has no part 'peice'"),
    (BASE % "(fn f (stepfn (piece 1 (ref a)) (piece 0 (ref b) (ref a))))",
     "(piece ...) needs 2 argument(s)"),
    # the parametric atoms take exactly their fields; fewer defaulted
    (BASE % '(family f (length "w") (segment (from "0") (to "w") (ge-param "0")))',
     "(ge-param ...) needs 3 argument(s)"),
    (BASE % '(set c (lt "w" 2))', "(lt ...) needs 1 argument(s)"),
    (BASE % "(set c (eq 0 1 2))", "(eq ...) needs 2 argument(s)"),
    (BASE % "(set c (ge 0 1 2))", "(ge ...) needs 1 argument(s)"),
    (BASE % "(set c (true 1))", "(true ...) needs 0 argument(s)"),
    (BASE % '(set c (lt "٣"))', "bad term '٣'"),
    ("()", "top form must be a form with an atom head"),
    ('(fixture (space (bound "w)))', "unclosed string from '\"w)))'"),
])
def test_misread_part_exit1(tmp_path, capsys, text, message):
    with pytest.raises((FixtureParseError, ValueError)):  # ValueError: an ordinal literal
        load_fixture(text)
    rc, out, err = _rank(tmp_path, capsys, text)
    assert rc == 1 and out == ""
    assert err.startswith("parse error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert message in err


def test_parts_in_any_order_and_overloaded_ge(tmp_path, capsys):
    text = BASE % ('(set c (digit-in 1 (ds (residues 1) (prefix 1 0) (period 3))))'
                   '(set d (ge 1 2)) (set e (ge "w"))'
                   '(family f (length "w") (segment (to "w") (ge-param "0" "0" 1) (from "0")))'
                   '(refine (xi 2) (sets d))')
    fx = load_fixture(text)
    assert fx.sets["d"] == digit_ge(1, 2) and fx.sets["e"] == ord_ge(o.W)
    assert fx.sets["c"] == digit_in(1, mk_digitset((True, False), 3, {1}))
    assert fixture_to_sexpr(load_fixture(fixture_to_sexpr(fx))) == fixture_to_sexpr(fx)
    assert _rank(tmp_path, capsys, text)[:2] == (0, "pair a b\nalpha = 2\n")


def test_ascii_digits_only_in_ordinals():
    assert o.parse_ordinal("w^2*3 + 4") == o.add(o.omega_power(2, 3), o.from_int(4))
    for text in ("٣", "w^٢", "w*٣", "w^2*3 + ٤"):
        with pytest.raises(ValueError):
            o.parse_ordinal(text)


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["rank"],
    ["rank", "FX"],
    ["rank", "FX", "--bogus"],
    ["rank", "FX", "--fn", "f", "--pair", "a", "b"],
    ["rank", "FX", "--pair", "a"],
    ["decompose", "FX", "--fn", "f"],
    ["decompose", "FX", "--fn", "f", "--witnesses", "t", "--lam", "x"],
    ["decompose", "FX", "--fn", "f", "--witnesses", "t", "--trace"],
    ["verify", "FX", "--family", "t", "--trace"],
    ["phi", "FX", "--set", "a", "--family", "t", "--trace"],
    ["reproduce", "nosuch"],
    ["reproduce", "all", "--trace"],
])
def test_usage_error_exit1(tmp_path, capsys, argv):
    path = tmp_path / "fx.sexp"
    # every name the command lines use is declared, so only the usage is wrong
    path.write_text(BASE % ('(fn f (stepfn (piece 1 (ref a)) (piece 0 (ref b))))'
                            '(family t (length "w*2+1") (segment (from "0") (to "w*2+1")'
                            ' (ge-param "0" "0" 1)))'), encoding="utf-8")
    assert main([str(path) if a == "FX" else a for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("parse error: ")
    assert len(err.strip().splitlines()) == 1


def test_ceiling_space_names_every_point(tmp_path, capsys):
    # (mod 6 2 1) holds only at points >= w^6: the ceiling space keeps them
    # and names them, and the set ranks like (mod 5 2 1)
    space = SpaceDesc(None)
    assert not is_empty(digit_mod(6, 2, 1), space)
    w6 = o.omega_power(6)
    assert sample_points(digit_mod(6, 2, 1), space, 3) == [w6, o.add(w6, 1), o.add(w6, 2)]
    assert sample_points(digit_mod(5, 2, 1), space, 5)
    assert o.parse_ordinal("w^6") == w6
    alphas = []
    for i in (5, 6):
        text = ('(fixture (space (bound ceiling)) (set a (mod %d 2 1)) (set b (not (ref a))))'
                % i)
        rc, out, _ = _rank(tmp_path, capsys, text)
        assert rc == 0
        alphas.append(out.splitlines()[1])
    assert alphas == ["alpha = 3", "alpha = 3"]
