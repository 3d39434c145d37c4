"""Fuzz `cli.main` in-process over argv and over fixture text built from the
grammar, each with single-token mutations: every call ends in a documented
exit code with at most one stderr line, never a traceback.

Positions stay below 4, moduli at most 6 and spaces below w^3, so that each
call takes milliseconds."""
import contextlib
import io

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ordrank.cli import main
from ordrank.fixtures import tokenize


def _form(*args):
    return st.tuples(*args).map(lambda t: "(%s)" % " ".join(t))


def _lit(s):
    return st.just(s)


POS = st.integers(0, 3).map(str)
NAT = st.integers(0, 6).map(str)
MOD = st.integers(1, 6).map(str)
BIT = st.sampled_from(["0", "1"])
ORD = st.sampled_from(['"0"', '"1"', '"3"', "w", '"w+2"', '"w*2"', '"w^2"', '"w^2*2+w+1"'])
BOUND = st.sampled_from(['"1"', '"5"', "w", '"w+1"', '"w*3+2"', '"w^2"', '"w^2*2+1"'])

ATOM = st.one_of(
    _form(_lit("eq"), POS, NAT), _form(_lit("ge"), POS, NAT), _form(_lit("mod"), POS, MOD, NAT),
    _form(_lit("digit-in"), POS, _form(_lit("ds"), _form(_lit("prefix"), BIT, BIT),
                                       _form(_lit("period"), MOD), _form(_lit("residues"), NAT))),
    _form(_lit("mindigit-mod"), MOD, NAT), _form(_lit("mindigit-eq"), NAT),
    _form(_lit("mindigit-ge"), NAT), _form(_lit("lt"), ORD), _form(_lit("ge"), ORD),
    _form(_lit("divpow"), POS), _lit("(true)"), _lit("(false)"))
PATTERN = st.recursive(ATOM, lambda inner: st.one_of(
    _form(_lit("not"), inner),
    st.tuples(st.sampled_from(["and", "or"]), st.lists(inner, min_size=1, max_size=3))
    .map(lambda t: "(%s %s)" % (t[0], " ".join(t[1])))), max_leaves=5)
# a natural-parameter atom and its complement
N_PAIR = st.one_of(
    st.tuples(POS, NAT, st.integers(0, 2).map(str))
    .map(lambda t: ("(lt-n %s)" % " ".join(t), "(ge-n %s)" % " ".join(t))),
    st.tuples(ORD, ORD).map(lambda t: ("(ord-lt-n %s)" % " ".join(t),
                                       "(ord-ge-n %s)" % " ".join(t))))

FIXTURE = st.builds(
    lambda bound, p, q, length, n, refine: """(fixture
  (space (bound %s) (depth 6))
  (set a %s)
  (set b (not (ref a)))
  (set c %s)
  (fn f (stepfn (piece 1 (ref a)) (piece 0 (ref b))))
  (family t (length %s) (segment (from "0") (to %s) (ge-param "0" "0" 1)))
  (nfam n (piece 1 (and (ref a) %s)) (piece 0 (or (ref b) %s)))
  %s)""" % (bound, p, q, length, length, n[0], n[1], refine),
    BOUND, PATTERN, PATTERN, ORD, N_PAIR,
    st.sampled_from(["", "(refine (sets c) (xi 1))", "(refine (sets c) (xi 2))"]))

FIXTURE_WORDS = ["(", ")", '"', ";", "space", "bound", "depth", "dept", "set", "fn",
                 "stepfn", "family", "nfam", "refine", "sets", "xi", "xii", "ds",
                 "prefix", "period", "residues", "residue", "piece", "segment", "from",
                 "to", "length", "ge-param", "lt-param", "ge", "lt", "eq", "mod", "not",
                 "and", "or", "ref", "a", "b", "c", "0", "1", "2", "7", "-1", "300",
                 "1/0", "99999999999", '"w^9"', '"w+"', '"٣"']

FX = "FIXTURE"
ARGVS = [
    ["rank", FX, "--pair", "a", "b"], ["rank", FX, "--fn", "f", "--trace"],
    ["rank", FX, "--nfam", "n", "--json"],
    ["decompose", FX, "--fn", "f", "--witnesses", "t"],
    ["verify", FX, "--family", "t"], ["verify", FX, "--family", "t", "--pair", "a", "b"],
    ["phi", FX, "--set", "a", "--family", "t", "--lam", "1"],
]
ARGV_WORDS = ["rank", "decompose", "verify", "phi", "reproduce", "--fn", "--nfam",
              "--pair", "--json", "--trace", "--family", "--set", "--witnesses", "--lam",
              "--xi", "--bogus", "-", "a", "b", "c", "f", "n", "t", "nope", "0", "1", "-1",
              "x", FX]


@st.composite
def _case(draw):
    """An argv and the fixture's tokens, one of them with one token dropped,
    replaced or inserted, or neither."""
    argv, text = list(draw(st.sampled_from(ARGVS))), draw(FIXTURE.map(tokenize))
    site = draw(st.sampled_from([None, (argv, ARGV_WORDS), (text, FIXTURE_WORDS)]))
    if site is not None:
        tokens, words = site
        i = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(["drop", "replace", "insert"]))
        tokens[i:i + (op != "insert")] = [] if op == "drop" else [draw(st.sampled_from(words))]
    return argv, text


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=_case())
def test_cli_fuzz_exit_contract(tmp_path, case):
    argv, text = case
    path = tmp_path / "fx.sexp"
    path.write_text(" ".join(text), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(path) if a == FX else a for a in argv])
    assert rc in (0, 1, 2, 3), (argv, text)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    assert "Traceback" not in err.getvalue()
    event("exit %d" % rc)
