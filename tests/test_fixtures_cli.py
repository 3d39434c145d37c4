"""Fixture grammar round-trips and CLI behavior."""
import json
import os
import re
import subprocess
import sys
import time

import pytest

import ordrank
from ordrank import cli, errors
from ordrank.cli import main
from ordrank.errors import (FixtureParseError, PositionLimitExceeded,
                            VerificationError)
from ordrank.family import validate_set_family
from ordrank.fixtures import (MAX_POSITION, fixture_to_sexpr, load_fixture,
                              parse_sexpr, pattern_to_sexpr, sexpr_to_pattern)
from ordrank.ordinal import W, omega_power
from ordrank.patterns import (and_, digit_mod, divpow, min_digit_in, ds_mod,
                              not_, or_, ord_ge, ord_lt)
from ordrank.space import sem_eq

FIX = """
(fixture
  (space (bound "w^2") (depth 6))
  (set evens (mod 0 2 0))
  (set odds (not (ref evens)))
  (set head (and (mod 0 2 0) (lt w)))
  (fn chi (stepfn (piece 1 (ref evens)) (piece 0 (ref odds))))
  (family tails (length "w^2")
    (segment (from "0") (to "w^2") (ge-param "0" "0" 1)))
  (nfam windows (piece 1 (and (mod 0 2 0) (lt-n 0 2 2)))
                (piece 0 (or (mod 0 2 1) (ge-n 0 2 2))))
)
"""


def test_pattern_roundtrip():
    pats = [
        and_(digit_mod(0, 2, 0), ord_lt(W)),
        or_(divpow(2), min_digit_in(ds_mod(2, 1))),
        not_(ord_ge(omega_power(2))),
    ]
    for p in pats:
        s = pattern_to_sexpr(p)
        again = sexpr_to_pattern(parse_sexpr(s))
        assert pattern_to_sexpr(again) == s


def test_fixture_roundtrip():
    fx = load_fixture(FIX)
    assert set(fx.sets) == {"evens", "odds", "head"}
    assert "chi" in fx.fns and "tails" in fx.families and "windows" in fx.nfams
    printed = fixture_to_sexpr(fx)
    fx2 = load_fixture(printed)
    assert fixture_to_sexpr(fx2) == printed
    assert sem_eq(fx.sets["head"], fx2.sets["head"], fx.space)


def test_parse_errors():
    with pytest.raises(FixtureParseError):
        load_fixture("(fixture (set a (mod 0 2 0)))")  # missing space
    with pytest.raises(FixtureParseError):
        load_fixture("(fixture (space (bound \"w\")) (set a (huh 1)))")
    with pytest.raises(FixtureParseError):
        parse_sexpr("(a (b)")


def _write(tmp_path, text):
    p = tmp_path / "fx.sexp"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_cli_rank(tmp_path, capsys):
    path = _write(tmp_path, FIX)
    rc = main(["rank", path, "--fn", "chi"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alpha = 2" in out
    assert "beta = 2" in out


def test_cli_rank_pair_and_gamma(tmp_path, capsys):
    path = _write(tmp_path, FIX)
    assert main(["rank", path, "--pair", "evens", "odds"]) == 0
    assert "alpha = 2" in capsys.readouterr().out
    assert main(["rank", path, "--nfam", "windows"]) == 0
    assert "gamma" in capsys.readouterr().out


def test_cli_determinism(tmp_path, capsys):
    path = _write(tmp_path, FIX)
    main(["rank", path, "--fn", "chi", "--json"])
    first = capsys.readouterr().out
    main(["rank", path, "--fn", "chi", "--json"])
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)


def test_cli_verify_and_trace(tmp_path, capsys):
    path = _write(tmp_path, FIX)
    assert main(["verify", path, "--family", "tails"]) == 0
    out = capsys.readouterr().out
    assert "valid DUSB_1" in out
    assert main(["verify", path, "--family", "tails", "--pair", "evens", "odds"]) == 0
    assert main(["rank", path, "--fn", "chi", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "stage" in out


def test_cli_decompose(tmp_path, capsys):
    path = _write(tmp_path, FIX)
    rc = main(["decompose", path, "--fn", "chi", "--witnesses", "tails",
               "--lam", "2"])
    assert rc == 0
    assert "certificate" in capsys.readouterr().out


def test_cli_phi(tmp_path, capsys):
    path = _write(tmp_path, FIX)
    rc = main(["phi", path, "--set", "evens", "--family", "tails", "--lam", "1"])
    assert rc == 0
    assert "gamma" in capsys.readouterr().out


def test_cli_broken_family_exit2(tmp_path, capsys):
    broken = """
(fixture
  (space (bound "w"))
  (set evens (mod 0 2 0))
  (set odds (mod 0 2 1))
  (family bad (length "4")
    (segment (from "0") (to "1") (true))
    (segment (from "1") (to "4") (false)))
)
"""
    path = _write(tmp_path, broken)
    rc = main(["verify", path, "--family", "bad", "--pair", "evens", "odds"])
    assert rc == 2


def test_cli_parse_error_exit1(tmp_path):
    path = _write(tmp_path, "(fixture (space (bound \"w\")) (wat)")
    assert main(["rank", path, "--fn", "nope"]) == 1


def _run_cli(argv, text=True):
    """The CLI in a fresh interpreter, so an escaping traceback would show."""
    src = os.path.dirname(os.path.dirname(ordrank.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "ordrank.cli"] + argv,
                          capture_output=True, text=text, env=env, timeout=60)


@pytest.mark.parametrize("argv, missing", [
    (["rank", "--fn", "nope"], "nope"),
    (["rank", "--nfam", "nowhere"], "nowhere"),
    (["rank", "--pair", "evens", "ghost"], "ghost"),
    (["decompose", "--fn", "chi", "--witnesses", "absent"], "absent"),
    (["verify", "--family", "missing"], "missing"),
    (["phi", "--set", "unset", "--family", "tails"], "unset"),
])
def test_cli_undeclared_name_exit1(tmp_path, argv, missing):
    path = _write(tmp_path, FIX)
    proc = _run_cli([argv[0], path] + argv[1:])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert repr(missing) in proc.stderr


def test_cli_exponent_limit(tmp_path, capsys):
    # (depth 9) has no effect and w^7 is a plain bound; an exponent above
    # MAX_POSITION is refused by the reader, the bound's included
    pair = ('(fixture (space (bound "%s") (depth 9)) (set a (mindigit-mod 2 0))'
            ' (set b (not (ref a))) %s)')
    assert main(["rank", _write(tmp_path, pair % ("w^7", "")), "--pair", "a", "b"]) == 0
    assert "alpha = 7" in capsys.readouterr().out.splitlines()
    for text in (pair % ("w^257", ""), pair % ("w^2", '(set c (lt "w^300"))')):
        assert main(["rank", _write(tmp_path, text), "--pair", "a", "b"]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "PositionLimitExceeded" in err and str(MAX_POSITION) in err


@pytest.mark.parametrize("big", [
    "(mod 0 99999999999 1)",                 # a period: the divisor scan
    "(eq 0 99999999999)",                    # a prefix of that many booleans
    "(mindigit-ge 99999999999)",
    "(digit-in 0 (ds (period 99999999999) (residues 1)))",
    "(and (mod 0 4093 1) (mod 0 4091 1))",   # each in range, their lcm is not
])
def test_cli_digit_set_budget_exit3(tmp_path, capsys, big):
    fx = """
(fixture
  (space (bound "w^2"))
  (set evens (mod 0 2 0))
  (set big %s))
""" % big
    path = _write(tmp_path, fx)
    start = time.process_time()
    rc = main(["rank", path, "--pair", "big", "evens"])
    assert time.process_time() - start < 1.0
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "DigitSetTooLarge" in err and "above the limit 4096" in err


def test_cli_zero_denominator_exit1(tmp_path):
    bad = """
(fixture
  (space (bound "w"))
  (set evens (mod 0 2 0))
  (fn chi (stepfn (piece 1/0 (ref evens)) (piece 0 (not (ref evens))))))
"""
    with pytest.raises(FixtureParseError, match="bad rational '1/0'"):
        load_fixture(bad)
    proc = _run_cli(["rank", _write(tmp_path, bad), "--fn", "chi"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "bad rational '1/0'" in proc.stderr


_PIECE = ('(fixture (space (bound "w")) (set evens (mod 0 2 0)) '
          '(fn chi (stepfn (piece %s (ref evens)) (piece 0 (not (ref evens))))))')


@pytest.mark.parametrize("value", [
    "٣", "1e3", "1_0", ".5", "3.5", "+3", "1/-2", "1/", "/2", "-", "--1", "0/0",
])
def test_cli_piece_value_ascii_only_exit1(tmp_path, capsys, value):
    # before, Fraction() read "٣" as 3 and "1e3" as 1000, and rank exited 0
    assert main(["rank", _write(tmp_path, _PIECE % value), "--fn", "chi"]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "parse error: bad rational %r" % value]


@pytest.mark.parametrize("value, what", [
    ("9" * 5000, "numerator"), ("-1/" + "9" * 5000, "denominator"),
], ids=["numerator", "denominator"])
def test_cli_long_piece_value_exit3(tmp_path, capsys, value, what):
    # before, Fraction() refused it and the parse error echoed every digit
    assert main(["rank", _write(tmp_path, _PIECE % value), "--fn", "chi"]) == 3
    assert capsys.readouterr().err.strip().splitlines() == [
        "budget/undecidable: PositionLimitExceeded: %s of 5000 digits is above "
        "the limit of 4300 digits" % what]


@pytest.mark.parametrize("value, printed", [
    ("-4/6", "-2/3"), ("007/2", "7/2"), ("-12", "-12"), ("12/1", "12"),
])
def test_piece_values_round_trip(value, printed):
    fx = load_fixture(_PIECE % value)
    text = fixture_to_sexpr(fx)
    assert "(piece %s " % printed in text
    assert fixture_to_sexpr(load_fixture(text)) == text


@pytest.mark.parametrize("item, message", [
    ("(refine (sets nosuch) (xi 2))", "unknown set name 'nosuch'"),
    ("(set)", "(set ...) needs 2 argument(s)"),
    ("()", "fixture item must be a form"),
    ("(set a (not))", "(not ...) needs 1 argument(s)"),
    ("(fn f (stepfn (piece 1)))", "(piece ...) needs 2 argument(s)"),
    ('(family f (length "w") (segment (from)))', "(from ...) needs 1 argument(s)"),
    ("(set (x) (true))", "expected an atom, got ['x']"),
    # naturals take no sign; before, (mod -1 2 0) reached the pattern layer
    ("(set neg (mod -1 2 0))", "expected a natural number, got '-1'"),
    ("(set neg (eq 0 -1))", "expected a natural number, got '-1'"),
    ("(set neg (divpow -2))", "expected a natural number, got '-2'"),
    ("(set neg (mod 0 +2 0))", "expected a natural number, got '+2'"),
    ('(space (bound "w^2") (depth -1))', "expected a natural number, got '-1'"),
    ("(refine (sets evens) (xi 1-))", "expected an integer, got '1-'"),
    # before, a period of 0 escaped as ZeroDivisionError
    ("(set z (digit-in 0 (ds (prefix 1 0) (period 0))))",
     "a digit-set period must be at least 1"),
    # before, a second declaration silently replaced the first
    ("(set evens (mod 0 2 1))", "the fixture has a second (set evens ...)"),
    ("(fn f (stepfn (piece 1 (true)))) (fn f (stepfn (piece 1 (true))))",
     "the fixture has a second (fn f ...)"),
    ('(family f (length "1") (segment (from "0") (to "1") (true))) '
     '(family f (length "1") (segment (from "0") (to "1") (true)))',
     "the fixture has a second (family f ...)"),
    ("(nfam g) (nfam g)", "the fixture has a second (nfam g ...)"),
    ('(space (bound "w"))', "the fixture has a second (space ...)"),
])
def test_cli_malformed_item_exit1(tmp_path, item, message):
    text = '(fixture (space (bound "w^2")) (set evens (mod 0 2 0)) %s)' % item
    with pytest.raises(FixtureParseError):
        load_fixture(text)
    proc = _run_cli(["rank", _write(tmp_path, text), "--pair", "evens", "evens"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error: ")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert message in proc.stderr


def test_cli_deep_digit_position_exit3(tmp_path):
    # the minimum search recurses once per digit position: before, a
    # RecursionError traceback escaped
    text = '(fixture (space (bound "w^2")) (set evens (mod 0 2 0)) (set big (mod 5000 2 1)))'
    proc = _run_cli(["rank", _write(tmp_path, text), "--pair", "big", "evens"])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "PositionLimitExceeded" in proc.stderr


@pytest.mark.parametrize("form", [
    "(eq 300 1)", "(mod 900 2 1)", "(ge 300 1)", "(divpow 300)",
    "(digit-in 300 (ds (period 2) (residues 1)))", "(ge-n 300 0 1)",
    "(lt-n 300 0 1)", "(divpow-n 300 1)",
])
def test_position_above_limit_refused(form):
    with pytest.raises(PositionLimitExceeded, match="above the limit %d" % MAX_POSITION):
        load_fixture('(fixture (space (bound "w^2")) (set big %s))' % form)


def test_position_at_limit_accepted():
    fx = load_fixture('(fixture (space (bound "w^2")) (set big (mod %d 2 1)) '
                      '(set lvl (divpow %d)))' % (MAX_POSITION, MAX_POSITION))
    assert set(fx.sets) == {"big", "lvl"}


@pytest.mark.parametrize("bound", ["w^2", "ceiling"])
def test_cli_position_limit_exit3_fast(tmp_path, capsys, bound):
    # the reader refuses the position before the kernel sees it
    text = ('(fixture (space (bound "%s")) (set big (mod 900 2 1)) '
            '(set rest (not (ref big))))' % bound)
    path = _write(tmp_path, text)
    start = time.perf_counter()
    assert main(["rank", path, "--pair", "big", "rest"]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "PositionLimitExceeded" in err and "900" in err and str(MAX_POSITION) in err


_LONG = '(fixture (space (bound "w^%s")) (set a (mod %s 2 0)) (set b (not (ref a))))'


@pytest.mark.parametrize("exp, pos, what", [
    ("9" * 5000, "0", "ordinal exponent of 5000 digits"),
    ("2", "9" * 5000, "digit position of 5000 digits"),
    ("9" * 400, "0", "ordinal exponent of 400 digits"),
])
def test_cli_long_number_above_limit_exit3(tmp_path, capsys, exp, pos, what):
    # before, more than 4,300 digits exited 1 through int()'s digit limit
    assert main(["rank", _write(tmp_path, _LONG % (exp, pos)), "--pair", "a", "b"]) == 3
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        "budget/undecidable: PositionLimitExceeded: %s is above the limit %d"
        % (what, MAX_POSITION)]


_NINES = "9" * 5000
_PAIR = '(fixture (space (bound "%s")) (set a %s) (set b (not (ref a)))%s)'


@pytest.mark.parametrize("text, what", [
    (_PAIR % ("w^2", "(eq 0 %s)" % _NINES, ""), "natural"),
    (_PAIR % ("w*%s" % _NINES, "(mod 0 2 0)", ""), "ordinal coefficient"),
    (_PAIR % ("w^2", "(mod 0 2 0)", " (refine (sets a) (xi %s))" % _NINES), "integer"),
], ids=["digit-value", "coefficient", "xi"])
def test_cli_long_number_without_limit_exit3(tmp_path, capsys, text, what):
    # a number with no limit of its own is held to int()'s 4,300 digits;
    # before, these exited 1 through int()
    assert main(["rank", _write(tmp_path, text), "--pair", "a", "b"]) == 3
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        "budget/undecidable: PositionLimitExceeded: %s of 5000 digits is above "
        "the limit of 4300 digits" % what]


def test_cli_leading_zeros_read_as_the_number(tmp_path, capsys):
    one = "0" * 5000 + "1"
    outs = []
    for exp, pos in ((one, one), ("1", "1")):
        assert main(["rank", _write(tmp_path, _LONG % (exp, pos)), "--pair", "a", "b"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cli_deep_nesting_exit3(tmp_path):
    # the reader recurses once per level of nesting
    text = ('(fixture (space (bound "w^2")) (set evens (mod 0 2 0)) (set deep %s(true)%s))'
            % ("(not " * 3000, ")" * 3000))
    proc = _run_cli(["rank", _write(tmp_path, text), "--pair", "deep", "evens"])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "RecursionError" in proc.stderr


def test_cli_equal_min_digit_sets_have_equal_alpha(tmp_path, capsys):
    # on w^2 both sets are the points whose last coefficient is even (digit 4
    # is always 0); the old search dropped members of the second one
    text = """
(fixture
  (space (bound "w^2"))
  (set a (mindigit-mod 2 0))
  (set b (and (mindigit-mod 2 0) (mod 4 2 0)))
  (set not-a (not (ref a)))
  (set not-b (not (ref b))))
"""
    path = _write(tmp_path, text)
    outs = []
    for pair in (["a", "not-a"], ["b", "not-b"]):
        assert main(["rank", path, "--pair"] + pair) == 0
        outs.append(capsys.readouterr().out.splitlines()[1])
    assert outs == ["alpha = 2", "alpha = 2"]


def test_cli_nfam_with_a_repeated_value(tmp_path, capsys):
    # two pieces with the value 1 rank like their union
    text = """
(fixture
  (space (bound "w*2 + 1"))
  (nfam split (piece 1 (lt "1")) (piece 1 (and (lt-n 0 0 1) (ge "1")))
              (piece 0 (and (ge "1") (ge-n 0 0 1))))
  (nfam joined (piece 1 (or (lt "1") (and (lt-n 0 0 1) (ge "1"))))
               (piece 0 (and (ge "1") (ge-n 0 0 1)))))
"""
    path = _write(tmp_path, text)
    for name in ("split", "joined"):
        assert main(["rank", path, "--nfam", name]) == 0
        assert "gamma = 2 (eps 1)" in capsys.readouterr().out


def test_each_error_class_has_one_exit_code():
    tables = (cli._PARSE_ERRORS, cli._VERIFY_ERRORS, cli._BUDGET_ERRORS)
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.ToolkitError)
               and c is not errors.ToolkitError]
    assert errors.PositionLimitExceeded in classes
    for c in classes:
        assert sum(c in t for t in tables) == 1, c.__name__


@pytest.mark.parametrize("bound, length, check", [
    # x >= eta*2 below w: the intersection is [w, w*2), not empty
    ("w*2", "w", "vanishing"),
    # F_w = {x >= w*2}, but the intersection below w is {x >= w}
    ("w*3", "w*2", "continuity"),
])
def test_cli_verify_coeff2_family_exit2(tmp_path, bound, length, check):
    text = ('(fixture (space (bound "%s")) (family t (length "%s") (segment (from "0")'
            ' (to "%s") (ge-param "0" "0" 2))))' % (bound, length, length))
    proc = _run_cli(["verify", _write(tmp_path, text), "--family", "t"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert check in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["--family", "tails", "--xi", "0"], "--xi must be at least 1, got 0"),
    (["--family", "tails", "--xi", "-3"], "--xi must be at least 1, got -3"),
    (["--family", "tails", "--pair", "evens", "odds", "--xi", "0"],
     "--xi must be at least 1, got 0"),
])
def test_cli_verify_xi_below_one_exit1(tmp_path, argv, message):
    # the classes start at xi = 1: a smaller xi is an input error, not a level
    proc = _run_cli(["verify", _write(tmp_path, FIX)] + argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error: ")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert message in proc.stderr


@pytest.mark.parametrize("xi", ["0", "-2"])
def test_cli_refine_xi_below_one_exit1(tmp_path, xi):
    text = ('(fixture (space (bound "w^2")) (set evens (mod 0 2 0)) '
            '(refine (sets evens) (xi %s)))' % xi)
    with pytest.raises(FixtureParseError, match="must be at least 1"):
        load_fixture(text)
    proc = _run_cli(["rank", _write(tmp_path, text), "--pair", "evens", "evens"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error: ")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "(xi ...) must be at least 1, got %s" % xi in proc.stderr


@pytest.mark.parametrize("space, item, message", [
    ('"w^2"', "(set a (mod 0 0 1))", "modulus must be >= 1"),
    ('"w^2"', "(set a (mindigit-mod 0 1))", "modulus must be >= 1"),
    ('"0"', "(set a (true))", "space must be nonempty"),
    ('"w^2+"', "(set a (true))", "empty term in 'w^2+'"),
])
def test_cli_bad_value_in_fixture_exit1(tmp_path, capsys, space, item, message):
    # each is refused where it is read, not by a catch-all for ValueError
    text = "(fixture (space (bound %s)) %s)" % (space, item)
    with pytest.raises(FixtureParseError, match="^%s$" % re.escape(message)):
        load_fixture(text)
    assert main(["rank", _write(tmp_path, text), "--pair", "a", "a"]) == 1
    assert capsys.readouterr().err == "parse error: %s\n" % message


def test_cli_negative_lam_and_bad_budget_exit1(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, FIX)
    assert main(["decompose", path, "--fn", "chi", "--witnesses", "tails",
                 "--lam", "-1"]) == 1
    assert capsys.readouterr().err == "parse error: --lam must be at least 0, got -1\n"
    monkeypatch.setenv("TRANSFINITE_BUDGET", "many")
    assert main(["rank", path, "--fn", "chi"]) == 1
    assert capsys.readouterr().err.startswith("parse error: invalid literal for int()")


def test_value_error_is_not_a_parse_error():
    # a ValueError from deeper code is a bug, not a parse error
    assert ValueError not in cli._PARSE_ERRORS


def test_cli_family_shift_above_segment_exit2(tmp_path):
    # x >= (eta - w) is undefined for eta < w: the family parses, and its
    # validation refuses it at the segment structure
    bad = FIX.replace('(ge-param "0" "0" 1)', '(ge-param "0" "w" 1)')
    fx = load_fixture(bad)
    with pytest.raises(VerificationError) as exc:
        validate_set_family(fx.families["tails"], fx.topology)
    assert exc.value.args[0] == "segments"
    proc = _run_cli(["verify", _write(tmp_path, bad), "--family", "tails"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "segments" in proc.stderr and "shift" in proc.stderr


_DECOMPOSE = ["decompose", "--fn", "chi", "--witnesses", "tails", "--lam", "2"]
_PHI = ["phi", "--set", "evens", "--family", "tails", "--lam", "1"]
_BACKWARDS = '(segment (from "3") (to "2") (ge-param "0" "0" 1))'


@pytest.mark.parametrize("argv, segments, message", [
    (_DECOMPOSE, _BACKWARDS, "gap or overlap at 3"),
    (_PHI, _BACKWARDS, "gap or overlap at 3"),
    (["verify", "--family", "tails"], _BACKWARDS, "gap or overlap at 3"),
    # before, an IndexError traceback
    (_DECOMPOSE, '(segment (from "0") (to "3") (true)) ' + _BACKWARDS, "gap or overlap at 3"),
    (_DECOMPOSE, '(segment (from "0") (to "w^2") (ge-param "0" "w" 1))',
     "index atom shift above segment start 0"),
    # before, phi exited 3 on these: its tail-family check ran first
    (_PHI, '(segment (from "0") (to "3") (true)) ' + _BACKWARDS, "gap or overlap at 3"),
    (_PHI, '(segment (from "0") (to "w^2") (ge-param "0" "w" 1))',
     "index atom shift above segment start 0"),
])
def test_cli_malformed_witness_exit2(tmp_path, capsys, argv, segments, message):
    """Every verb that reads a family refuses one whose segments do not
    partition its length at the segment check; before, decompose and phi
    reported a backwards segment as a parse error."""
    bad = FIX.replace('(segment (from "0") (to "w^2") (ge-param "0" "0" 1))', segments)
    assert main([argv[0], _write(tmp_path, bad)] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().splitlines() == [
        "verification failure: VerificationError: ('segments', '%s')" % message]


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_cli_rank_trace_golden(capsys):
    """rank --trace output, byte for byte.  It pins the stage patterns and
    the witness parameters, which no reproduction suite prints."""
    out = []
    for fixture, flag, name in (("example.sexp", "--fn", "chi"),
                                ("example.sexp", "--nfam", "windows"),
                                ("polish_ceiling.sexp", "--fn", "polish")):
        assert main(["rank", os.path.join(DATA, fixture), flag, name, "--trace"]) == 0
        out.append(capsys.readouterr().out)
    with open(os.path.join(DATA, "rank_trace.golden"), encoding="utf-8") as fh:
        assert "".join(out) == fh.read()


def test_cli_reproduce_all_golden():
    """reproduce all in a fresh interpreter, byte for byte: every suite's
    report text is pinned, not only its PASS lines."""
    proc = _run_cli(["reproduce", "all"], text=False)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(DATA, "reproduce_all.golden"), "rb") as fh:
        assert proc.stdout == fh.read()


def test_cli_reproduce_all_golden_in_process(capsys):
    """reproduce all in this interpreter, byte for byte, against the same
    golden: a line tracer of the test process sees the suites run."""
    assert main(["reproduce", "all"]) == 0
    with open(os.path.join(DATA, "reproduce_all.golden"), "rb") as fh:
        assert capsys.readouterr().out.encode("utf-8") == fh.read()


def test_cli_reproduce(capsys):
    assert main(["reproduce", "alternating"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
