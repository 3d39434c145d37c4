"""Each parametric kind's switch column against its instantiated atom.

At a fixed point x the truth of a parametric atom is monotone in its
parameter, so it is the kind's `shrinks` below `switch(a, x)` and the
other value from there on; a switch of 0 (ZERO for index atoms) means it
is never `shrinks`, and None that it always is.  Here every kind of
`PARAM_N` and `PARAM_ETA`, coeff 0 and slope 0 included, is compared with
`holds_at` of the atom taken at n = 0..64, or at indices shift + k and
shift + w*j + k.
"""
import random

import pytest

from ordrank.errors import VerificationError
from ordrank.family import from_segments, validate_set_family
from ordrank.ordinal import W, ZERO, add, from_int, mul, omega_power
from ordrank.patterns import (
    PARAM_ETA, PARAM_N, PDigitGeN, PDigitLtN, PDivN, POrdGeEta, POrdGeN,
    POrdLtEta, POrdLtN, TRUE, and_, digit_mod, holds_at, not_, or_, ord_ge, ord_lt,
)
from ordrank.space import SpaceDesc, base_topology
from test_atom_table import POINTS, _rand_ord

SWITCH_POINTS = list(dict.fromkeys(
    POINTS + [from_int(k) for k in range(12)] + [add(W, k) for k in range(12)]))
SLOPES = [ZERO, from_int(1), from_int(2), W, add(W, 1), mul(W, 2), omega_power(2)]
SHIFTS = [ZERO, from_int(1), from_int(3), W, add(W, 2)]


def _rand_param_atom(rng, cls):
    if cls in (PDigitGeN, PDigitLtN):
        return cls(rng.randint(0, 2), rng.randint(0, 8), rng.randint(0, 3))
    if cls in (POrdGeN, POrdLtN):
        return cls(_rand_ord(rng), rng.choice(SLOPES))
    if cls is PDivN:
        return cls(rng.randint(0, 2), rng.randint(0, 2))
    return cls(_rand_ord(rng), rng.choice(SHIFTS), rng.randint(0, 3))


def _expected(kind, before: bool) -> bool:
    return kind.shrinks if before else not kind.shrinks


def _category(switch) -> str:
    return "always" if switch is None else "never" if switch == 0 else "flips"


def test_switch_matches_instantiated_atoms():
    rng = random.Random(6161)
    classes = list(PARAM_N) + list(PARAM_ETA)
    seen: dict[type, set[str]] = {cls: set() for cls in classes}
    coeffs = set()
    pairs = 0
    for _ in range(60):
        for cls in classes:
            a = _rand_param_atom(rng, cls)
            if cls in PARAM_N:
                kind = PARAM_N[cls]
                params = list(range(65))
            else:
                kind = PARAM_ETA[cls]
                coeffs.add(a.coeff)
                params = ([add(a.shift, k) for k in range(40)]
                          + [add(a.shift, add(mul(W, j), k))
                             for j in (1, 2) for k in range(3)])
            pats = [kind.at(a, t) for t in params]
            for x in SWITCH_POINTS:
                s = kind.switch(a, x)
                seen[cls].add(_category(s))
                # naturals compare as ints, indices by their term tuples
                want = [_expected(kind, s is None or (t.terms < s.terms if cls in PARAM_ETA
                                                      else t < s)) for t in params]
                assert [holds_at(p, x) for p in pats] == want, (a, x, s)
                pairs += 1
    assert all(seen[cls] == {"always", "never", "flips"} for cls in classes), seen
    assert 0 in coeffs
    assert pairs >= 10_000


def test_coeff_zero_truth_intervals_agree_with_member():
    """With coeff 0 an index atom is x >= base at every index; the truth
    intervals and the exit index must say what `member` says."""
    bases = [ZERO, from_int(2), from_int(7), W, add(W, 3)]
    bodies = []
    for b in bases:
        ge, lt = POrdGeEta(b, ZERO, 0), POrdLtEta(b, ZERO, 0)
        bodies += [ge, lt, not_(ge), and_(ge, digit_mod(0, 2, 1)),
                   or_(lt, POrdGeEta(from_int(5), ZERO, 1)),
                   and_(POrdGeEta(ZERO, ZERO, 1), not_(lt))]
    length = mul(W, 2)
    for body in bodies:
        # once on a whole-length segment, once behind a concrete prefix
        for fam in (from_segments(length, [(ZERO, length, body)]),
                    from_segments(length, [(ZERO, from_int(4), TRUE),
                                           (from_int(4), length, body)])):
            for x in SWITCH_POINTS:
                intervals = fam.truth_intervals(x)
                exit_at = None
                for k in range(40):
                    eta = from_int(k)
                    val = next(v for lo, hi, v in intervals
                               if lo.terms <= eta.terms < hi.terms)
                    assert val == fam.member(eta, x), (body, x, eta)
                    if exit_at is None and not val:
                        exit_at = eta
                exit_index = fam.exit_index(x)
                if exit_at is not None:
                    assert exit_index == exit_at, (body, x)
                else:
                    assert exit_index is None or exit_index.terms >= from_int(40).terms


def test_coeff_zero_tail_keeps_base():
    """A coeff-0 index atom is x >= base at every index, so its intersection
    below a limit is x >= base, and a family whose members all hold the
    point 3 does not vanish."""
    space = SpaceDesc(W)
    for theta in (W, mul(W, 2), omega_power(2)):
        for b in (ZERO, from_int(2), add(W, 1)):
            tail = PARAM_ETA[POrdGeEta].below(POrdGeEta(b, ZERO, 0), theta)
            assert tail == ord_ge(b), (theta, b)
    fam = from_segments(W, [(ZERO, W, and_(POrdGeEta(ZERO, ZERO, 0), ord_lt(W)))])
    assert all(fam.member(from_int(k), from_int(3)) for k in range(40))
    with pytest.raises(VerificationError) as e:
        validate_set_family(fam, base_topology(space), xi=2)
    assert e.value.args[0] == "vanishing"
