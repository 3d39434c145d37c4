"""Ordinals below w^w, in Cantor normal form.

An ordinal is a strictly-decreasing list of ``(exponent, coefficient)``
terms with positive coefficients; the empty list is 0.  Exponents are
naturals with no upper limit here; the fixture reader holds the ones a user
writes to `fixtures.MAX_POSITION`.  Values are immutable; `compare` orders
them by the term list itself, and arithmetic goes through `add`, `mul` and
`left_sub` (there are no operators).  Where an identity gives the answer
(0 + b = b, a + 0 = a, a*1 = a, a - 0 = a, and a + 1 as the least z with
z*1 > a) the operand is returned as it is: it already is the result.

There is one `Ordinal` object per value: `Ordinal(terms)` returns the live
object of those terms from a weak table (`InternTable`), and checks the
terms only when it makes a new one.  So two ordinals are equal exactly when
they are the same object, and the hash is the identity hash, which differs
between processes: no result may depend on the order of a set of ordinals.
An ordinal still equals the int of its value (``ONE == 1``), though it does
not hash like it.
"""
from __future__ import annotations

import enum
import weakref
from dataclasses import FrozenInstanceError

from .errors import NotLimit, PositionLimitExceeded, UnsupportedProgression


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


class Kind(enum.Enum):
    ZERO = "zero"
    SUCCESSOR = "successor"
    LIMIT = "limit"


class InternTable(dict):
    """Value key -> `weakref.KeyedRef` to the one live object of that value.

    A lookup is dict's own ``get`` and a call of the reference; `put`
    enters a new object, and its entry goes with it, unless a newer object
    has taken the key by then.  So the table holds only objects in use.
    No lock guards the lookup and the entry: ordrank runs in one thread."""
    __slots__ = ()

    def put(self, key, obj):
        self[key] = weakref.KeyedRef(obj, self._drop, key)
        return obj

    def _drop(self, ref) -> None:
        if self.get(ref.key) is ref:
            del self[ref.key]


def frozen_setattr(self, name: str, *_value) -> None:
    """`__setattr__` and `__delattr__` of an immutable slotted class."""
    raise FrozenInstanceError("cannot assign to field %r of %s" % (name, type(self).__name__))


# The live ordinals by terms.
_ORDINALS = InternTable()


class Ordinal:
    __slots__ = ("terms", "__weakref__")
    terms: tuple[tuple[int, int], ...]

    def __new__(cls, terms: tuple[tuple[int, int], ...] = ()) -> "Ordinal":
        ref = _ORDINALS.get(terms)
        if ref is not None:
            a = ref()
            if a is not None:
                return a
        prev = None
        for e, c in terms:
            if c < 1:
                raise ValueError("coefficients must be positive: %r" % (terms,))
            if e < 0:
                raise ValueError("negative exponent: %r" % (terms,))
            if prev is not None and e >= prev:
                raise ValueError("exponents must strictly decrease: %r" % (terms,))
            prev = e
        a = object.__new__(cls)
        object.__setattr__(a, "terms", terms)
        return _ORDINALS.put(terms, a)

    __setattr__ = __delattr__ = frozen_setattr
    __hash__ = object.__hash__

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is Ordinal:
            return False  # one object per value
        if isinstance(other, int):
            return self is from_int(other)
        return NotImplemented

    def __reduce__(self):
        return Ordinal, (self.terms,)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return "Ordinal(%s)" % format_ordinal(self)

    def digit(self, i: int) -> int:
        """Coefficient of w^i (0 when absent)."""
        for e, c in self.terms:
            if e == i:
                return c
            if e < i:
                break
        return 0

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or self.terms[0][0] == 0

    def min_exp(self) -> int | None:
        """Least exponent present, or None for 0."""
        return self.terms[-1][0] if self.terms else None

    def max_exp(self) -> int | None:
        return self.terms[0][0] if self.terms else None

    def fin(self) -> int:
        """The finite part (coefficient of w^0)."""
        return self.digit(0)

    def limit_part(self) -> "Ordinal":
        """The ordinal with the finite part removed."""
        if self.terms and self.terms[-1][0] == 0:
            return Ordinal(self.terms[:-1])
        return self

    def to_int(self) -> int:
        if not self.is_finite:
            raise ValueError("not a finite ordinal: %s" % self)
        return self.fin()


def _coerce(x: "Ordinal | int") -> Ordinal:
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int):
        return from_int(x)
    raise TypeError(type(x))


_NEGATIVE = "ordinals are non-negative"


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError(_NEGATIVE)
    return Ordinal(((0, n),)) if n else Ordinal()


def omega_power(e: int, c: int = 1) -> Ordinal:
    if c == 0:
        return ZERO
    return Ordinal(((e, c),))


def compare(a: Ordinal | int, b: Ordinal | int) -> int:
    """-1, 0 or 1 for LT, EQ, GT."""
    # nearly every caller passes Ordinals; coerce only the rest
    if type(a) is not Ordinal:
        a = _coerce(a)
    if type(b) is not Ordinal:
        b = _coerce(b)
    if a.terms < b.terms:
        return -1
    return 0 if a.terms == b.terms else 1


def add(a: Ordinal | int, b: Ordinal | int) -> Ordinal:
    if type(a) is not Ordinal:
        a = _coerce(a)
    if type(b) is int:  # a + n: no Ordinal for n
        if b < 0:
            raise ValueError(_NEGATIVE)
        if b == 0:
            return a
        if a.terms and a.terms[-1][0] == 0:
            return Ordinal(a.terms[:-1] + ((0, a.terms[-1][1] + b),))
        return Ordinal(a.terms + ((0, b),))
    if type(b) is not Ordinal:
        b = _coerce(b)
    if not b.terms:
        return a
    if not a.terms:
        return b
    e = b.terms[0][0]
    kept = [t for t in a.terms if t[0] > e]
    merged = list(b.terms)
    for ea, ca in a.terms:
        if ea == e:
            merged[0] = (e, ca + b.terms[0][1])
            break
    return Ordinal(tuple(kept) + tuple(merged))


def _times_nat(a: Ordinal, n: int) -> Ordinal:
    if n == 1:
        return a
    if n == 0 or not a.terms:
        return ZERO
    e0, c0 = a.terms[0]
    return Ordinal(((e0, c0 * n),) + a.terms[1:])


def mul(a: Ordinal, b: Ordinal | int) -> Ordinal:
    if type(b) is int:  # a * n: no Ordinal for n
        if b < 0:
            raise ValueError(_NEGATIVE)
        return _times_nat(a, b)
    if type(b) is not Ordinal:
        b = _coerce(b)
    if not a.terms or not b.terms:
        return ZERO
    acc = ZERO
    for e, c in b.terms:
        if e > 0:
            acc = add(acc, omega_power(a.terms[0][0] + e, c))
        else:
            acc = add(acc, _times_nat(a, c))
    return acc


def left_sub(a: Ordinal, b: Ordinal | int) -> Ordinal:
    """The unique z with b + z == a, for b <= a."""
    if type(b) is not Ordinal:
        b = _coerce(b)
    if not b.terms:
        return a
    if compare(a, b) < 0:
        raise ValueError("left_sub needs b <= a (%s < %s)" % (a, b))
    for j, (eb, cb) in enumerate(b.terms):
        if j >= len(a.terms):
            raise ValueError("left_sub needs b <= a")
        ea, ca = a.terms[j]
        if ea > eb:
            return Ordinal(a.terms[j:])
        if ea == eb and ca > cb:
            return Ordinal(((ea, ca - cb),) + a.terms[j + 1:])
        if ea == eb and ca == cb:
            continue
        raise ValueError("left_sub needs b <= a")
    return Ordinal(a.terms[len(b.terms):])


def least_multiple_above(a: Ordinal, m: int) -> Ordinal:
    """Least z with z*m > a, for finite m >= 1 (z*m = z + ... + z, m times).

    With a = w^e*k + r, z*m has leading term w^e*(j*m) when z has w^e*j,
    and keeps z's remainder; so the least z is w^e*(k//m + 1), or
    w^e*(k/m) + r + 1 when m divides k."""
    if m < 1:
        raise ValueError("multiplier must be >= 1")
    if m == 1:
        return add(a, 1)
    if not a.terms:
        return from_int(1)
    (e, k), rest = a.terms[0], Ordinal(a.terms[1:])
    if k % m:
        return omega_power(e, k // m + 1)
    return add(add(omega_power(e, k // m), rest), 1)


def max_mult(step: Ordinal, r: Ordinal) -> int:
    """Largest n with step*n <= r (0 if none beyond n=0).

    With step = w^e*c + t (t below w^e), step*n = w^e*(c*n) + t for n >= 1,
    so the comparison with r = w^e*d + s reads off d and s."""
    if step.is_zero or (r.max_exp() or 0) > step.max_exp():
        raise UnsupportedProgression("no largest multiple of %s below %s" % (step, r))
    e, c = step.terms[0]
    d = r.digit(e)
    n = d // c
    if n >= 1 and c * n == d and step.terms[1:] > tuple(t for t in r.terms if t[0] < e):
        n -= 1
    return n


def sup_mul_below(a: Ordinal, m: int) -> Ordinal:
    """sup of z*m over z < a, for a limit a and a natural m (0 when m is 0).

    For a = w^e*k the z below a are w^e*(k-1) + y with y < w^e, and
    z*m = w^e*((k-1)*m) + y once k >= 2 (y*m for k = 1), so the sup is
    w^e*((k-1)*m + 1).  With two or more terms the leading term alone is
    multiplied and the rest of a is reached from below, so the sup is a*m."""
    if len(a.terms) != 1 or m == 0:
        return mul(a, m)
    e, k = a.terms[0]
    return omega_power(e, (k - 1) * m + 1)


def parity(a: Ordinal) -> Parity:
    """Write a = L + n with L limit-or-zero; even iff n is even (limits are even)."""
    return Parity.EVEN if a.fin() % 2 == 0 else Parity.ODD


def is_even(a: Ordinal) -> bool:
    return parity(a) is Parity.EVEN


def even_floor(a: Ordinal) -> Ordinal:
    """The largest even ordinal <= a."""
    return a if is_even(a) else add(a.limit_part(), from_int(a.fin() - 1))


def classify(a: Ordinal) -> Kind:
    if not a.terms:
        return Kind.ZERO
    return Kind.SUCCESSOR if a.terms[-1][0] == 0 else Kind.LIMIT


def predecessor(a: Ordinal) -> Ordinal:
    if classify(a) is not Kind.SUCCESSOR:
        raise ValueError("no predecessor: %s" % a)
    return add(a.limit_part(), from_int(a.fin() - 1))


def fundamental_sequence(a: Ordinal, n: int, even_only: bool = False) -> Ordinal:
    """The n-th element of the canonical fundamental sequence of a limit ordinal.

    The last CNF term w^e*c expands to w^e*(c-1) + w^(e-1)*n.  With
    ``even_only`` the last-level index is doubled when that level is finite,
    so every element is even while the sequence stays strictly increasing
    and cofinal.
    """
    if classify(a) is not Kind.LIMIT:
        raise NotLimit(a)
    if n < 0:
        raise ValueError("index must be a natural")
    e, c = a.terms[-1]
    prefix = Ordinal(a.terms[:-1] + (((e, c - 1),) if c > 1 else ()))
    k = 2 * n if (even_only and e == 1) else n
    step = omega_power(e - 1, k) if k else ZERO
    out = add(prefix, step)
    if even_only:
        out = even_floor(out)
    return out


ZERO = Ordinal()
ONE = from_int(1)
W = omega_power(1)


def format_ordinal(a: Ordinal) -> str:
    if not a.terms:
        return "0"
    parts = []
    for e, c in a.terms:
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("w*%d" % c)
        else:
            parts.append("w^%d*%d" % (e, c))
    return " + ".join(parts)


def is_decimal(s: str) -> bool:
    """s is ASCII decimal digits; `str.isdigit` also takes other scripts' digits."""
    return s.isascii() and s.isdigit()


# int() refuses a decimal string of more digits than this (Python's default
# int_max_str_digits)
MAX_DIGITS = 4300


def read_natural(digits: str, limit: int | None = None, what: str = "natural") -> int:
    """The natural written in ASCII digits; PositionLimitExceeded above limit,
    or above MAX_DIGITS digits with or without one, told by the digit count
    first, as int() refuses a longer string."""
    digits = digits.lstrip("0") or "0"
    shown = digits if len(digits) <= 20 else "of %d digits" % len(digits)
    if limit is not None and (len(digits) > len(str(limit)) or int(digits) > limit):
        raise PositionLimitExceeded("%s %s is above the limit %d" % (what, shown, limit))
    if len(digits) > MAX_DIGITS:
        raise PositionLimitExceeded("%s %s is above the limit of %d digits"
                                    % (what, shown, MAX_DIGITS))
    return int(digits)


def parse_ordinal(text: str, max_exp: int | None = None) -> Ordinal:
    """Parse the textual syntax, e.g. ``w^2*3 + w*1 + 4`` (also bare ``w``,
    ``w^2``); an exponent above max_exp raises PositionLimitExceeded."""
    acc = ZERO
    s = text.strip()
    if not s:
        raise ValueError("empty ordinal literal")
    for chunk in s.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty term in %r" % text)
        if chunk[0] in "wW":
            power, star, coeff = chunk[1:].replace(" ", "").partition("*")
            if power and not (power[0] == "^" and is_decimal(power[1:])):
                raise ValueError("bad exponent in %r" % text)
            if star and not is_decimal(coeff):
                raise ValueError("bad coefficient in %r" % text)
            e = read_natural(power[1:], max_exp, "ordinal exponent") if power else 1
            acc = add(acc, omega_power(e, read_natural(coeff, what="ordinal coefficient")
                                        if star else 1))
        else:
            if not is_decimal(chunk):
                raise ValueError("bad term %r in %r" % (chunk, text))
            acc = add(acc, from_int(read_natural(chunk, what="ordinal coefficient")))
    return acc
