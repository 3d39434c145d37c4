"""Family validation against the blockwise brute force.

`validate_set_family` checks "decreasing" once per segment, from the
directions of its index atoms, and walks every index of a finite segment
whose body mixes directions.  On finite-length families over spaces below
w*m + k the brute force reads every member through `oracle.from_pattern`
and compares each with the one before it, so the validator must certify
exactly the families the brute force finds decreasing with F_0 = X, and
name the least index where a refused one grows.
"""
import random

from ordrank.cli import main
from ordrank.errors import UnsupportedProgression, VerificationError
from ordrank.family import from_segments, validate_set_family
from ordrank.oracle import from_pattern, o_and, o_eq, o_not, oracle_full
from ordrank.ordinal import W, ZERO, add, from_int, mul
from ordrank.patterns import (POrdGeEta, POrdLtEta, TRUE, and_, digit_mod, not_, or_,
                              ord_ge, ord_lt)
from ordrank.space import SpaceDesc, base_topology

REPRO = """(fixture (space (bound "w"))
  (set evens (mod 0 2 0)) (set odds (mod 0 2 1))
  (family bad (length "12") (segment (from "0") (to "12")
    (or (ge-param "0" "0" 2) (and (lt-param "0" "0" 1) (ge "8") (lt "9"))))))
"""


def test_repro_family_refused(tmp_path, capsys):
    """F_8 = [16, w) and F_9 = {8} u [18, w): the family grows at 8."""
    path = tmp_path / "bad.sexp"
    path.write_text(REPRO, encoding="utf-8")
    for extra in (["--xi", "2"], ["--xi", "1"], ["--pair", "evens", "odds"]):
        assert main(["verify", str(path), "--family", "bad"] + extra) == 2, extra
        out, err = capsys.readouterr()
        assert "valid" not in out + err, extra
        assert err.strip().splitlines() == [
            "verification failure: VerificationError: ('decreasing', 'increases at 8')"]


SPACES = [SpaceDesc(W), SpaceDesc(add(W, 1)), SpaceDesc(add(mul(W, 3), 2))]


def _point(rng):
    return rng.choice([from_int(rng.randint(0, 12)), add(W, rng.randint(0, 4)),
                       add(mul(W, 2), rng.randint(0, 3))])


def _concrete(rng):
    return rng.choice([ord_ge(_point(rng)), ord_lt(_point(rng)), digit_mod(0, 2, rng.randrange(2)),
                       and_(ord_ge(_point(rng)), digit_mod(0, 3, rng.randrange(3)))])


def _regrowth(rng):
    """x >= eta*c, or x = v once b + eta passes v: the family grows where v
    comes back, if x >= eta*c dropped it before."""
    v = rng.randint(0, 12)
    return or_(POrdGeEta(ZERO, ZERO, rng.randint(1, 3)),
               and_(POrdLtEta(from_int(rng.randint(0, 3)), ZERO, 1),
                    ord_ge(from_int(v)), ord_lt(from_int(v + 1))))


def _body(rng, lo):
    """A body whose index atoms shift at 0 or at lo: all shrinking (a
    ge-param, possibly with concrete parts, or a negated lt-param), mixed
    (an lt-param or a negated ge-param next to a ge-param), the regrowth
    shape, or concrete."""
    def ge():
        base = ZERO if rng.random() < 0.5 else _point(rng)
        return POrdGeEta(base, rng.choice([ZERO, lo]), rng.randint(1, 3))

    def lt():
        return POrdLtEta(_point(rng), rng.choice([ZERO, lo]), rng.randint(0, 2))

    kind = rng.randrange(7)
    if kind == 0:
        return _regrowth(rng)
    if kind == 1:
        return ge()
    if kind == 2:
        return (and_ if rng.random() < 0.5 else or_)(ge(), _concrete(rng))
    if kind == 3:
        return and_(ge(), not_(lt()))
    if kind == 4:
        return or_(ge(), and_(lt(), _concrete(rng)))
    if kind == 5:
        return and_(ge(), or_(not_(ge()), _concrete(rng)))
    return TRUE if lo.is_zero else _concrete(rng)


def _family(rng):
    n = rng.randint(2, 16)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
    bounds = [0] + cuts + [n]
    return from_segments(from_int(n), [(from_int(a), from_int(b), _body(rng, from_int(a)))
                                       for a, b in zip(bounds, bounds[1:])])


def _brute(fam, space):
    """None for a decreasing family with F_0 = X; else "F0", or the least
    index n with F_{n+1} not within F_n."""
    members = [from_pattern(fam.at(from_int(n)), space) for n in range(fam.length.fin())]
    if not o_eq(members[0], oracle_full(space)):
        return "F0"
    for n, (a, b) in enumerate(zip(members, members[1:])):
        if not o_and(b, o_not(a)).is_empty:
            return n
    return None


def _check(fam, space, tally):
    """The validator's verdict on fam is the brute force's; tallied."""
    want = _brute(fam, space)
    try:
        validate_set_family(fam, base_topology(space), xi=2)
        got = None
    except VerificationError as e:
        got = e.args
    except UnsupportedProgression:
        tally["unsupported"] += 1
        return
    if want is None:
        assert got is None, (fam, space, got)
        tally["certified"] += 1
    elif want == "F0":
        assert got is not None and got[0] == "F0", (fam, space, got)
        tally["F0"] += 1
    else:
        assert got == ("decreasing", "increases at %d" % want), (fam, space, got)
        tally["increasing"] += 1


def test_validate_matches_brute_force():
    rng = random.Random(8080)
    tally = dict.fromkeys(("certified", "F0", "increasing", "unsupported"), 0)
    for _ in range(300):
        _check(_family(rng), rng.choice(SPACES), tally)
    # finite segments never need the unsupported exit
    assert tally["unsupported"] == 0, tally
    assert min(tally["certified"], tally["F0"], tally["increasing"]) >= 30, tally
    # the regrowth shape alone, on one segment of length 8..16
    tally = dict.fromkeys(tally, 0)
    for _ in range(60):
        n = from_int(rng.randint(8, 16))
        _check(from_segments(n, [(ZERO, n, _regrowth(rng))]), rng.choice(SPACES), tally)
    assert tally["unsupported"] == tally["F0"] == 0, tally
    assert min(tally["certified"], tally["increasing"]) >= 10, tally


def _coeff_zero(rng, lo):
    """A coeff-0 index atom, x >= base at every index, as a whole body or
    inside an and: the two shapes that once had two rules."""
    atom = POrdGeEta(ZERO if rng.random() < 0.5 else _point(rng), rng.choice([ZERO, lo]), 0)
    return atom if rng.random() < 0.5 else and_(atom, ord_lt(W))


def test_coeff_zero_is_one_rule():
    """A coeff-0 family is constant on its segment, so decreasing and
    continuous: the validator's verdict is the brute force's, bare atom and
    and alike, on one segment and after a first one."""
    rng = random.Random(2805)
    tally = dict.fromkeys(("certified", "F0", "increasing", "unsupported"), 0)
    for _ in range(240):
        n = rng.randint(2, 12)
        if rng.random() < 0.4:
            segs = [(ZERO, from_int(n), _coeff_zero(rng, ZERO))]
        else:
            k = from_int(rng.randint(1, n - 1))
            first = rng.choice([_coeff_zero(rng, ZERO), TRUE, POrdGeEta(ZERO, ZERO, 1)])
            segs = [(ZERO, k, first), (k, from_int(n), _coeff_zero(rng, k))]
        _check(from_segments(from_int(n), segs), rng.choice(SPACES), tally)
    assert tally["unsupported"] == 0, tally
    assert min(tally["certified"], tally["F0"], tally["increasing"]) >= 15, tally
