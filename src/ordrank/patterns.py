"""Symbolic subsets of ordinal spaces.

A pattern is a boolean formula over atoms constraining a point's CNF
digits (coefficient of w^i equal / at least / congruent to something),
its position (below / at-or-above an ordinal bound), or its divisibility
by a power of w.  Closed formulas denote concrete subsets; atoms may
instead carry one affine parameter (a natural n, or the ordinal index of
a transfinite family) so that families and iteration templates stay
finitely presented.  Whether a point lies in a pattern is each class's own
`holds` method (see "Direct membership evaluation" below).

The normal form used by every decision procedure is a finite union of
*cells*: digit-box times interval times divisibility constraint.  Digit
constraints are eventually periodic subsets of the naturals, which keeps
the whole algebra exact and closed under complement.  A cell is one set
whatever the space (on a bounded space its upper end is explicit and at
most the bound), so the bound enters only where cells are made
(`_mk_cell`, `to_cells`) and printed (`cells_pattern`), and the cell
algebra takes cells alone.  There is one `DigitSet` object per value, kept
in a weak table by `mk_digitset`, the only constructor, one `Cell` object
per value and one pattern object per value, each kept in a weak table by
its constructor; with the interned `Ordinal`s they compare by identity (an
ordinal also equals the int of its value), and all but patterns hash by it
(a pattern hashes its class and its fields' identities, once; see `Pat`).
The digit-set operations are memoized; the cells of an or are the maximal
cells among its parts' cached cells, so growing a pattern by a disjunct
re-normalises only the new part.  The hash of a digit set, an ordinal, a
cell or a pattern thus differs between processes, and no result may depend
on the order of a set of them: no set of them is iterated, and dicts keep
insertion order.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from typing import Callable, NamedTuple

from . import ordinal as o
from .errors import DigitSetTooLarge, UnsupportedProgression
from .ordinal import InternTable, Ordinal, ZERO, ONE, frozen_setattr


# ---------------------------------------------------------------------------
# Eventually periodic subsets of the naturals.

# The largest prefix length or period a digit set may have.  The algebra's
# time and memory grow with both (the period's divisor scan, the lcm of two
# periods), so a larger one is refused before anything is allocated: by
# mk_digitset for a period (ds_mod's too), by the constructors that build a
# prefix, and by _aligned for the lcm.
MAX_DIGITSET = 4096


def _check_size(n: int, what: str) -> None:
    if n > MAX_DIGITSET:
        raise DigitSetTooLarge("digit-set %s %d is above the limit %d"
                               % (what, n, MAX_DIGITSET))


@dataclass(frozen=True, eq=False)
class DigitSet:
    """Membership is prefix[v] for v < len(prefix), else (v % period) in residues.

    One object per value: `mk_digitset`, the only constructor, canonicalises
    its arguments and returns the live object of that value from a weak
    table, so equality and hash are identity.  `DigitSet(...)` raises
    TypeError; a copy or an unpickled set is the canonical object.  `has0`,
    whether 0 is a member (the cell kernel's most frequent question), is
    read off once per value."""
    prefix: tuple[bool, ...]
    period: int
    residues: frozenset[int]
    has0: bool = field(init=False, repr=False, compare=False)

    def __new__(cls, *_args, **_kwargs):
        raise TypeError("a DigitSet is made by mk_digitset only")

    def __reduce__(self):
        return mk_digitset, (self.prefix, self.period, self.residues)

    def __contains__(self, v: int) -> bool:
        if v < len(self.prefix):
            return self.prefix[v]
        return (v % self.period) in self.residues

    @property
    def is_empty(self) -> bool:
        return not any(self.prefix) and not self.residues

    @property
    def is_finite(self) -> bool:
        return not self.residues

    @property
    def is_full(self) -> bool:
        return not self.prefix and self.period == 1 and self.residues

    def min_value(self) -> int | None:
        return self.min_geq(0)

    def min_geq(self, k: int) -> int | None:
        for v in range(k, len(self.prefix)):
            if self.prefix[v]:
                return v
        if not self.residues:
            return None
        start = max(k, len(self.prefix))
        for v in range(start, start + self.period):
            if (v % self.period) in self.residues:
                return v
        return None

    def shift_up(self, k: int) -> "DigitSet":
        """{v + k : v in self}."""
        return self if k == 0 else _shift_up(self, k)


@lru_cache(maxsize=4096)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


# The live digit sets by canonical value; an entry goes with its last
# reference, so the table holds only sets that are in use.
_DIGITSETS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def mk_digitset(prefix, period, residues) -> DigitSet:
    _check_size(period, "period")
    prefix = tuple(bool(b) for b in prefix)
    residues = frozenset(r % period for r in residues)
    for d in _divisors(period):
        if all(((r % period) in residues) == (((r + d) % period) in residues)
               for r in range(period)):
            residues = frozenset(r for r in range(d) if r in residues)
            period = d
            break
    pref = list(prefix)
    while pref and pref[-1] == ((len(pref) - 1) % period in residues):
        pref.pop()
    key = (tuple(pref), period, residues)
    ds = _DIGITSETS.get(key)
    if ds is None:
        ds = object.__new__(DigitSet)
        ds.__init__(*key)
        object.__setattr__(ds, "has0", 0 in ds)
        _DIGITSETS[key] = ds
    return ds


@lru_cache(maxsize=16384)
def _shift_up(ds: DigitSet, k: int) -> DigitSet:
    res = frozenset((r + k) % ds.period for r in ds.residues)
    return mk_digitset((False,) * k + ds.prefix, ds.period, res)


DS_FULL = mk_digitset((), 1, {0})
DS_EMPTY = mk_digitset((), 1, set())


@lru_cache(maxsize=1024)
def ds_eq(v: int) -> DigitSet:
    if v < 0:
        raise ValueError("digit value must be >= 0")
    _check_size(v + 1, "prefix")
    return mk_digitset((False,) * v + (True,), 1, set())


@lru_cache(maxsize=1024)
def ds_ge(v: int) -> DigitSet:
    _check_size(v, "prefix")
    return mk_digitset((False,) * v, 1, {0})


@lru_cache(maxsize=1024)
def ds_lt(v: int) -> DigitSet:
    _check_size(v, "prefix")
    return mk_digitset((True,) * v, 1, set())


@lru_cache(maxsize=1024)
def ds_window(a: int, b: int) -> DigitSet:
    if a < 0:
        raise ValueError("digit window must start at >= 0")
    _check_size(max(a, b), "prefix")
    return mk_digitset((False,) * a + (True,) * max(0, b - a), 1, set())


@lru_cache(maxsize=1024)
def ds_mod(m: int, r: int) -> DigitSet:
    if m < 1:
        raise ValueError("modulus must be >= 1")
    return mk_digitset((), m, {r % m})


def _aligned(a: DigitSet, b: DigitSet):
    t = max(len(a.prefix), len(b.prefix))
    m = math.lcm(a.period, b.period)
    _check_size(m, "period")
    pa = tuple((v in a) for v in range(t))
    pb = tuple((v in b) for v in range(t))
    ra = frozenset(r for r in range(m) if (r % a.period) in a.residues)
    rb = frozenset(r for r in range(m) if (r % b.period) in b.residues)
    return t, m, pa, pb, ra, rb


@lru_cache(maxsize=65536)
def ds_and(a: DigitSet, b: DigitSet) -> DigitSet:
    t, m, pa, pb, ra, rb = _aligned(a, b)
    return mk_digitset(tuple(x and y for x, y in zip(pa, pb)), m, ra & rb)


@lru_cache(maxsize=65536)
def ds_or(a: DigitSet, b: DigitSet) -> DigitSet:
    t, m, pa, pb, ra, rb = _aligned(a, b)
    return mk_digitset(tuple(x or y for x, y in zip(pa, pb)), m, ra | rb)


@lru_cache(maxsize=16384)
def ds_not(a: DigitSet) -> DigitSet:
    return mk_digitset(tuple(not x for x in a.prefix), a.period,
                       frozenset(range(a.period)) - a.residues)


# ---------------------------------------------------------------------------
# Formula AST.

# The live patterns by class and field values.
_PATS = InternTable()


class Pat:
    """A pattern: and/or/not over atoms.  `holds(x, eta)` says whether the
    point x lies in it, its family-index atoms taken at the index eta; the
    natural-parameter atoms, and index atoms when eta is None, have no
    truth value there, and reach this method.

    One object per value: `Cls(*fields)` (also by keyword) returns the live
    pattern of that class and those field values from a weak table, so
    equality is identity.  The fields are interned values, ints and tuples
    of patterns, and an int given for an `Ordinal` field is taken as the
    ordinal of its value, so equal patterns are the same object.  The hash
    is that of the table key, (class, fields), computed once: an identity
    hash would let a pattern take the hash of a dead twin (a `POr` made
    where an equal-fielded `PAnd` was just freed gets its address).  A copy
    or an unpickled pattern is the canonical object."""
    __slots__ = ("_hash",)
    # each class's field names, their defaults and the positions of its
    # Ordinal fields; set by `_pattern`
    _names: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _ordinals: tuple[int, ...] = ()

    def __new__(cls, *args, **kwargs) -> "Pat":
        if kwargs or len(args) != len(cls._names):
            args = cls._bind(args, kwargs)
        for i in cls._ordinals:
            if type(args[i]) is not Ordinal:
                args = args[:i] + (o._coerce(args[i]),) + args[i + 1:]
        key = (cls,) + args
        ref = _PATS.get(key)
        if ref is not None:
            p = ref()
            if p is not None:
                return p
        p = object.__new__(cls)
        for name, value in zip(cls._names, args):
            object.__setattr__(p, name, value)
        object.__setattr__(p, "_hash", hash(key))
        return _PATS.put(key, p)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values in field order, keywords and defaults filled in."""
        names = cls._names
        if len(args) > len(names):
            raise TypeError("%s takes %d fields, got %d" % (cls.__name__, len(names), len(args)))
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError("%s() missing field %r" % (cls.__name__, name))
        if kwargs:
            raise TypeError("%s() got unexpected fields %s" % (cls.__name__, sorted(kwargs)))
        return tuple(values)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._names)

    def holds(self, _x: Ordinal, _eta: Ordinal | None) -> bool:
        raise UnsupportedProgression("parametric atom in concrete evaluation: %r" % (self,))


def _pattern(cls: type) -> type:
    """A frozen dataclass for its fields and repr, made by `Pat.__new__`;
    equality stays identity and the hash `Pat`'s."""
    cls = dataclass(frozen=True, eq=False, init=False)(cls)
    fs = fields(cls)
    cls._names = tuple(f.name for f in fs)
    cls._defaults = {f.name: f.default for f in fs if f.default is not MISSING}
    cls._ordinals = tuple(i for i, f in enumerate(fs) if f.type == "Ordinal")
    return cls


@_pattern
class PTrue(Pat):
    def holds(self, _x: Ordinal, _eta: Ordinal | None) -> bool:
        return True


@_pattern
class PFalse(Pat):
    def holds(self, _x: Ordinal, _eta: Ordinal | None) -> bool:
        return False


@_pattern
class PAnd(Pat):
    parts: tuple[Pat, ...]

    def holds(self, x: Ordinal, eta: Ordinal | None) -> bool:
        for q in self.parts:
            if not q.holds(x, eta):
                return False
        return True


@_pattern
class POr(Pat):
    parts: tuple[Pat, ...]

    def holds(self, x: Ordinal, eta: Ordinal | None) -> bool:
        for q in self.parts:
            if q.holds(x, eta):
                return True
        return False


@_pattern
class PNot(Pat):
    part: Pat

    def holds(self, x: Ordinal, eta: Ordinal | None) -> bool:
        return not self.part.holds(x, eta)


@_pattern
class PDigit(Pat):
    """digit_i(x) lies in an eventually periodic set."""
    i: int
    ds: DigitSet

    def holds(self, x: Ordinal, _eta: Ordinal | None) -> bool:
        return x.digit(self.i) in self.ds


# Ordinals order by their term tuples.

@_pattern
class POrdLt(Pat):
    b: Ordinal

    def holds(self, x: Ordinal, _eta: Ordinal | None) -> bool:
        return x.terms < self.b.terms


@_pattern
class POrdGe(Pat):
    b: Ordinal

    def holds(self, x: Ordinal, _eta: Ordinal | None) -> bool:
        return x.terms >= self.b.terms


# The last term of a nonzero x is its least exponent and that coefficient.

@_pattern
class PDiv(Pat):
    """x != 0 and w^e divides x (all digits below e vanish)."""
    e: int

    def holds(self, x: Ordinal, _eta: Ordinal | None) -> bool:
        return bool(x.terms) and x.terms[-1][0] >= self.e


@_pattern
class PMinDigit(Pat):
    """x != 0 and the coefficient at the least exponent of x lies in ds.

    This is the 'last nonzero coefficient' constraint; it is what makes
    sets dense and co-dense in every iterated derivative expressible.
    """
    ds: DigitSet

    def holds(self, x: Ordinal, _eta: Ordinal | None) -> bool:
        return bool(x.terms) and x.terms[-1][1] in self.ds


# Atoms affine in a natural parameter n.
@_pattern
class PDigitGeN(Pat):
    i: int
    base: int
    slope: int


@_pattern
class PDigitLtN(Pat):
    i: int
    base: int
    slope: int


@_pattern
class POrdGeN(Pat):
    base: Ordinal
    slope: Ordinal


@_pattern
class POrdLtN(Pat):
    base: Ordinal
    slope: Ordinal


@_pattern
class PDivN(Pat):
    base: int
    slope: int


# Atoms affine in the ordinal index of a transfinite family; without an
# index they have no truth value.
@_pattern
class POrdGeEta(Pat):
    """x >= base + (eta - shift)*coeff; segments guarantee eta >= shift."""
    base: Ordinal
    shift: Ordinal
    coeff: int = 1

    def holds(self, x: Ordinal, eta: Ordinal | None) -> bool:
        if eta is None:
            return Pat.holds(self, x, eta)
        return x.terms >= _eta_threshold(self, eta).terms


@_pattern
class POrdLtEta(Pat):
    base: Ordinal
    shift: Ordinal
    coeff: int = 1

    def holds(self, x: Ordinal, eta: Ordinal | None) -> bool:
        if eta is None:
            return Pat.holds(self, x, eta)
        return x.terms < _eta_threshold(self, eta).terms


TRUE = PTrue()
FALSE = PFalse()


def and_(*parts: Pat) -> Pat:
    flat: list[Pat] = []
    for p in parts:
        if isinstance(p, PTrue):
            continue
        if isinstance(p, PFalse):
            return FALSE
        if isinstance(p, PAnd):
            flat.extend(p.parts)
        else:
            flat.append(p)
    out = tuple(dict.fromkeys(flat))
    if not out:
        return TRUE
    return out[0] if len(out) == 1 else PAnd(out)


def or_(*parts: Pat) -> Pat:
    flat: list[Pat] = []
    for p in parts:
        if isinstance(p, PFalse):
            continue
        if isinstance(p, PTrue):
            return TRUE
        if isinstance(p, POr):
            flat.extend(p.parts)
        else:
            flat.append(p)
    out = tuple(dict.fromkeys(flat))
    if not out:
        return FALSE
    return out[0] if len(out) == 1 else POr(out)


def not_(p: Pat) -> Pat:
    if isinstance(p, PTrue):
        return FALSE
    if isinstance(p, PFalse):
        return TRUE
    if isinstance(p, PNot):
        return p.part
    return PNot(p)


def digit_eq(i: int, v: int) -> Pat:
    return PDigit(i, ds_eq(v))


def digit_ge(i: int, v: int) -> Pat:
    return PDigit(i, ds_ge(v)) if v > 0 else TRUE


def digit_mod(i: int, m: int, r: int) -> Pat:
    return digit_in(i, ds_mod(m, r))


def digit_in(i: int, ds: DigitSet) -> Pat:
    if ds.is_full:
        return TRUE
    if ds.is_empty:
        return FALSE
    return PDigit(i, ds)


def ord_lt(b: Ordinal | int) -> Pat:
    if type(b) is not Ordinal:
        b = o._coerce(b)
    return FALSE if b.is_zero else POrdLt(b)


def ord_ge(b: Ordinal | int) -> Pat:
    if type(b) is not Ordinal:
        b = o._coerce(b)
    return TRUE if b.is_zero else POrdGe(b)


def divpow(e: int) -> Pat:
    if e < 0:
        raise ValueError("divisibility level must be a natural")
    return ord_ge(1) if e == 0 else PDiv(e)


def min_digit_in(ds: DigitSet) -> Pat:
    ds = ds_and(ds, ds_ge(1))  # the last coefficient is always >= 1
    if ds.is_empty:
        return FALSE
    if ds == ds_ge(1):
        return ord_ge(1)
    return PMinDigit(ds)


def interval(lo: Ordinal | int, hi: Ordinal | int | None) -> Pat:
    parts = [ord_ge(lo)]
    if hi is not None:
        parts.append(ord_lt(hi))
    return and_(*parts)


def singleton(x: Ordinal | int) -> Pat:
    if type(x) is not Ordinal:
        x = o._coerce(x)
    return and_(ord_ge(x), ord_lt(o.add(x, 1)))


# -- the parametric atoms: one table entry per kind ---------------------------

class NKind(NamedTuple):
    """A kind of atom affine in a natural n: `at(a, n)` is the atom at n
    (ordinal thresholds, `at_omega`, also at n = W, where they climb to
    their sup); `neg` is the kind of the complement atom, with the same
    fields (None when it is no atom); `shrinks` says the sets shrink as n
    grows.  Every threshold base + slope*n is nondecreasing in n (ordinal
    sum and product are monotone in the right argument), so the truth at a
    fixed point x is `shrinks` below one n and the other value from it on:
    `switch(a, x)` is that n, 0 when the truth is never `shrinks` and None
    when it always is.  A kind and its `neg` share one switch."""
    at: Callable[[Pat, int | Ordinal], Pat]
    neg: type | None
    shrinks: bool
    switch: Callable[[Pat, Ordinal], int | None]
    at_omega: bool = False


class EtaKind(NamedTuple):
    """A kind of atom affine in a family index: `at(a, eta)` is the atom
    at eta; `neg` and `shrinks` as in `NKind`, with eta for n; `below(a,
    theta)` the intersection over eta < theta, a limit.  For eta >= shift
    the threshold base + (eta - shift)*coeff is nondecreasing in eta, so the
    truth at x is `shrinks` below one index and the other value from it on:
    `switch(a, x)` is that index, ZERO when the truth is never `shrinks` and
    None when it always is.  A kind and its `neg` share one switch."""
    at: Callable[[Pat, Ordinal], Pat]
    neg: type
    shrinks: bool
    switch: Callable[[Pat, Ordinal], Ordinal | None]
    below: Callable[[Pat, Ordinal], Pat] | None = None


def _nat_switch(a: Pat, v: int | None) -> int | None:
    """The least n with v < base + slope*n, v a digit or the least exponent
    of x (None for x = 0, which no divpow holds)."""
    if v is None or v < a.base:
        return 0
    return None if a.slope == 0 else (v - a.base) // a.slope + 1


def _ord_switch(a: Pat, x: Ordinal) -> int | None:
    """The least n with x < base + slope*n (None from their sup on)."""
    if x.terms < a.base.terms:
        return 0
    if x.terms >= o.add(a.base, o.mul(a.slope, o.W)).terms:
        return None
    return o.max_mult(a.slope, o.left_sub(x, a.base)) + 1


def _eta_threshold(a: Pat, eta: Ordinal) -> Ordinal:
    return o.add(a.base, o.mul(o.left_sub(eta, a.shift), a.coeff))


def _eta_switch(a: Pat, x: Ordinal) -> Ordinal | None:
    """The least eta with x < base + (eta - shift)*coeff: shift plus the
    least z with z*coeff > x - base (None for coeff 0: base at every eta)."""
    if x.terms < a.base.terms:
        return ZERO
    if a.coeff == 0:
        return None
    return o.add(a.shift, o.least_multiple_above(o.left_sub(x, a.base), a.coeff))


PARAM_N: dict[type, NKind] = {
    PDigitGeN: NKind(lambda a, n: digit_ge(a.i, a.base + a.slope * n), PDigitLtN, True,
                     lambda a, x: _nat_switch(a, x.digit(a.i))),
    PDigitLtN: NKind(lambda a, n: digit_in(a.i, ds_lt(a.base + a.slope * n)),
                     PDigitGeN, False, lambda a, x: _nat_switch(a, x.digit(a.i))),
    POrdGeN: NKind(lambda a, n: ord_ge(o.add(a.base, o.mul(a.slope, n))),
                   POrdLtN, True, _ord_switch, at_omega=True),
    POrdLtN: NKind(lambda a, n: ord_lt(o.add(a.base, o.mul(a.slope, n))),
                   POrdGeN, False, _ord_switch, at_omega=True),
    # not divpow: x = 0 or a digit below base + slope*n is nonzero
    PDivN: NKind(lambda a, n: divpow(a.base + a.slope * n), None, True,
                 lambda a, x: _nat_switch(a, x.min_exp())),
}

PARAM_ETA: dict[type, EtaKind] = {
    # the thresholds grow with eta, so the intersection is x >= their sup
    # below theta; for coeff >= 2 that is not the threshold at theta
    POrdGeEta: EtaKind(lambda a, eta: ord_ge(_eta_threshold(a, eta)), POrdLtEta, True,
                       _eta_switch, lambda a, theta: ord_ge(o.add(a.base, o.sup_mul_below(
                           o.left_sub(theta, a.shift), a.coeff)))),
    POrdLtEta: EtaKind(lambda a, eta: ord_lt(_eta_threshold(a, eta)), POrdGeEta, False,
                       _eta_switch),
}


def atoms(p: Pat):
    """The leaves of p under and/or/not, depth first."""
    if isinstance(p, (PAnd, POr)):
        for q in p.parts:
            yield from atoms(q)
    elif isinstance(p, PNot):
        yield from atoms(p.part)
    else:
        yield p


def map_atoms(p: Pat, fn: Callable[[Pat], Pat]) -> Pat:
    """p with every leaf a replaced by fn(a), rebuilt through and_/or_/not_."""
    if isinstance(p, PAnd):
        return and_(*(map_atoms(q, fn) for q in p.parts))
    if isinstance(p, POr):
        return or_(*(map_atoms(q, fn) for q in p.parts))
    if isinstance(p, PNot):
        return not_(map_atoms(p.part, fn))
    return fn(p)


def is_concrete(p: Pat) -> bool:
    return not any(type(a) in PARAM_N or type(a) in PARAM_ETA for a in atoms(p))


def subst_n(p: Pat, n: int) -> Pat:
    """Instantiate every natural-parameter atom at n."""
    return map_atoms(p, lambda a: PARAM_N[type(a)].at(a, n) if type(a) in PARAM_N else a)


def subst_eta(p: Pat, eta: Ordinal) -> Pat:
    """Instantiate every family-index atom at the ordinal eta."""
    return map_atoms(p, lambda a: PARAM_ETA[type(a)].at(a, eta)
                     if type(a) in PARAM_ETA else a)


# ---------------------------------------------------------------------------
# Direct membership evaluation.
#
# Each pattern class answers for itself (`Pat.holds`): and/or loop over their
# parts and stop at the first part that settles the answer, order atoms
# compare term tuples, and an index atom compares x with its threshold at
# the given index, so a family reads F_eta's membership off its segment body
# with no instantiated pattern built.  The natural-parameter atoms, and index
# atoms without an index, raise UnsupportedProgression.

def holds_at(p: Pat, x: Ordinal) -> bool:
    """x lies in the concrete pattern p (see `Pat.holds`)."""
    return p.holds(x, None)


# ---------------------------------------------------------------------------
# Cell normal form.

# The live cells by their five fields.
_CELLS = InternTable()


class Cell:
    """Digit box times interval times divisibility constraint.

    Every cell is canonical: `_mk_cell` builds one from any constraints,
    and `cell_and` meets two canonical cells field by field (so every cell
    `to_cells`, `cell_and` and `cell_minus` return, and every cell
    `cell_minus` carves with, is one):

    - lo >= 1 whenever div >= 1 or md is set (both imply x != 0);
    - md is None or a nonempty subset of {>= 1} other than {>= 1} itself,
      since x != 0 alone is carried by lo;
    - digits is sorted by index, every index is >= div, and every set is
      nonempty and not full;
    - hi is None only on the ceiling space; otherwise lo < hi <= bound,
      the bound being w^w there (`_mk_cell` stores a bounded space's bound
      as the upper end that reaches it);
    - the cell has a member (`cell_is_empty` is False).

    So equal sets of constraints give equal cells, `_cell_subsumes` can
    compare field by field, `_cell_key` orders cells totally, and the
    prune in `prune_cells` may look only at cells of smaller (div, lo).

    One object per value: `Cell(lo, hi, digits, div, md)` returns the live
    cell of those five fields from a weak table, and its fields are
    interned ordinals and digit sets, so equal cells are the same object
    and hash by identity.  Cells key the `_meet_pair`, `limit_cells` and
    closure memos.  A cell's `_cell_key` and `_prune_sig` are computed
    once, the first time `prune_cells` or `meet` needs them, and kept on
    the cell.
    """
    __slots__ = ("lo", "hi", "digits", "div", "md", "_key", "_sig", "__weakref__")
    lo: Ordinal
    hi: Ordinal | None  # exclusive; None only on the ceiling space
    digits: tuple[tuple[int, DigitSet], ...]
    div: int
    md: DigitSet | None  # last-nonzero-coefficient constraint

    def __new__(cls, lo: Ordinal, hi: Ordinal | None, digits: tuple[tuple[int, DigitSet], ...],
                div: int, md: DigitSet | None = None) -> "Cell":
        key = (lo, hi, digits, div, md)
        ref = _CELLS.get(key)
        if ref is not None:
            c = ref()
            if c is not None:
                return c
        c = object.__new__(cls)
        for name, value in zip(("lo", "hi", "digits", "div", "md"), key):
            object.__setattr__(c, name, value)
        object.__setattr__(c, "_key", None)  # filled by _cell_key
        object.__setattr__(c, "_sig", None)  # filled by _prune_sig
        return _CELLS.put(key, c)

    __setattr__ = __delattr__ = frozen_setattr

    def __repr__(self) -> str:
        return "Cell(lo=%r, hi=%r, digits=%r, div=%r, md=%r)" % (
            self.lo, self.hi, self.digits, self.div, self.md)

    def __reduce__(self):
        return Cell, (self.lo, self.hi, self.digits, self.div, self.md)

    def constraint(self, i: int) -> DigitSet:
        if i < self.div:
            return ds_eq(0)
        for j, ds in self.digits:
            if j == i:
                return ds
        return DS_FULL

    def holds(self, x: Ordinal) -> bool:
        me = x.min_exp()
        if self.div >= 1 and (me is None or me < self.div):
            return False
        if self.md is not None and (me is None or x.digit(me) not in self.md):
            return False
        for i, ds in self.digits:
            if x.digit(i) not in ds:
                return False
        if o.compare(x, self.lo) < 0:
            return False
        return self.hi is None or o.compare(x, self.hi) < 0


def _nnf(p: Pat, neg: bool) -> Pat:
    if isinstance(p, PTrue):
        return FALSE if neg else TRUE
    if isinstance(p, PFalse):
        return TRUE if neg else FALSE
    if isinstance(p, PNot):
        return _nnf(p.part, not neg)
    if isinstance(p, PAnd):
        sub = tuple(_nnf(q, neg) for q in p.parts)
        return or_(*sub) if neg else and_(*sub)
    if isinstance(p, POr):
        sub = tuple(_nnf(q, neg) for q in p.parts)
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
    kind = PARAM_N.get(type(p)) or PARAM_ETA.get(type(p))
    if kind is not None and kind.neg is not None:
        return kind.neg(**vars(p))
    raise UnsupportedProgression("cannot negate %r" % (p,))


def _dnf(p: Pat) -> tuple[tuple[Pat, ...], ...]:
    """NNF formula -> tuple of conjunctions of atoms."""
    if isinstance(p, PTrue):
        return ((),)
    if isinstance(p, PFalse):
        return ()
    if isinstance(p, POr):
        out = []
        for q in p.parts:
            out.extend(_dnf(q))
        return tuple(out)
    if isinstance(p, PAnd):
        acc: tuple[tuple[Pat, ...], ...] = ((),)
        for q in p.parts:
            branch = _dnf(q)
            acc = tuple(c + d for c in acc for d in branch)
            if not acc:
                return ()
        return acc
    return ((p,),)


def _mk_cell(lo: Ordinal, hi: Ordinal | None, digits: dict[int, DigitSet],
             div: int, md: DigitSet | None, bound: Ordinal | None) -> Cell | None:
    """The canonical cell of these constraints (see `Cell`); None when empty."""
    if md is not None:
        md = ds_and(md, ds_ge(1))  # the last coefficient is always >= 1
        if md.is_empty:
            return None
    if (div >= 1 or md is not None) and o.compare(lo, ONE) < 0:
        lo = ONE  # both imply x != 0
    if md is not None and md == ds_ge(1):
        md = None  # x != 0 alone, which lo now says
    for i, ds in digits.items():
        if ds.is_empty or (i < div and not ds.has0):
            return None
    if bound is not None and (hi is None or o.compare(hi, bound) >= 0):
        hi = bound  # clamp to the bound, stored as the upper end
    if hi is not None and o.compare(lo, hi) >= 0:
        return None
    packed = tuple(sorted((i, ds) for i, ds in digits.items()
                          if i >= div and not ds.is_full))
    out = Cell(lo, hi, packed, div, md)
    return None if cell_is_empty(out) else out


def _merge_cell(atoms, space_bound: Ordinal | None) -> Cell | None:
    lo, hi = ZERO, None
    digits: dict[int, DigitSet] = {}
    div = 0
    md: DigitSet | None = None
    for a in atoms:
        if isinstance(a, PDigit):
            digits[a.i] = ds_and(digits[a.i], a.ds) if a.i in digits else a.ds
        elif isinstance(a, POrdGe):
            if o.compare(a.b, lo) > 0:
                lo = a.b
        elif isinstance(a, POrdLt):
            if hi is None or o.compare(a.b, hi) < 0:
                hi = a.b
        elif isinstance(a, PDiv):
            div = max(div, a.e)
        elif isinstance(a, PMinDigit):
            md = ds_and(md, a.ds) if md is not None else a.ds
        else:
            raise UnsupportedProgression("parametric atom in cell merge: %r" % (a,))
    return _mk_cell(lo, hi, digits, div, md, space_bound)


def _ds_key(ds: DigitSet):
    return (ds.prefix, ds.period, tuple(sorted(ds.residues)))


def _cell_key(c: Cell):
    """The cell's place in the total order of canonical cells, by value;
    computed once per cell."""
    key = c._key
    if key is None:
        hi_key = (1, ()) if c.hi is None else (0, c.hi.terms)
        md_key = ((),) if c.md is None else _ds_key(c.md)
        key = (c.div, c.lo.terms, hi_key,
               tuple((i,) + _ds_key(ds) for i, ds in c.digits), md_key)
        object.__setattr__(c, "_key", key)
    return key


@lru_cache(maxsize=65536)
def _ds_subset(a: DigitSet, b: DigitSet) -> bool:
    return ds_and(a, ds_not(b)).is_empty


def cell_and(c: Cell, b: Cell) -> Cell | None:
    """The meet of two canonical cells, canonical; None when empty.

    It is built field by field, with no re-normalisation: the larger lo,
    the smaller hi (no clamp: each is at most the bound), the larger div,
    and the intersections of md and of the digit sets.  An intersection of
    two proper subsets of {>= 1}, or of two nonempty sets that are not full,
    is again one when nonempty; a set at a position below the new div is
    dropped, and one without 0 there empties the cell.  lo >= 1 already
    holds when div >= 1 or md is set, since it did in the cell that brought
    either."""
    lo = b.lo if b.lo.terms > c.lo.terms else c.lo
    hi = c.hi
    if b.hi is not None and (hi is None or b.hi.terms < hi.terms):
        hi = b.hi
    if hi is not None and lo.terms >= hi.terms:
        return None
    div = max(c.div, b.div)
    md = c.md if b.md is None else b.md
    if c.md is not None and b.md is not None:
        md = ds_and(c.md, b.md)
        if md.is_empty:
            return None
    digits: list[tuple[int, DigitSet]] = []
    xs, ys = c.digits, b.digits
    j = k = 0
    while j < len(xs) or k < len(ys):
        if k == len(ys) or (j < len(xs) and xs[j][0] < ys[k][0]):
            i, ds = xs[j]
            j += 1
        elif j == len(xs) or ys[k][0] < xs[j][0]:
            i, ds = ys[k]
            k += 1
        else:
            i, ds = xs[j][0], ds_and(xs[j][1], ys[k][1])
            j += 1
            k += 1
            if ds.is_empty:
                return None
        if i >= div:
            digits.append((i, ds))
        elif not ds.has0:
            return None
    out = Cell(lo, hi, tuple(digits), div, md)
    return None if cell_is_empty(out) else out


def cell_minus(c: Cell, b: Cell) -> list[Cell]:
    """c minus b as disjoint cells (staircase carving, one constraint a step).

    Each step splits the rest by one constraint of b: the part violating
    it is a piece of the difference, the part satisfying it carries on.  The
    carving cells are nonempty ceiling-space cells, and the rest always holds
    c ∧ b, nonempty past the early returns, so no step ends the carving.  The
    upper-end step is skipped when c ends at or below b's upper end."""
    if _cell_subsumes(b, c):
        return []
    if cell_and(c, b) is None:
        return [c]

    def cell(lo: Ordinal = ZERO, hi: Ordinal | None = None, digits=None,
             md: DigitSet | None = None) -> Cell:
        return _mk_cell(lo, hi, digits or {}, 0, md, None)

    steps: list[tuple[Cell, Cell]] = []
    if not b.lo.is_zero:
        steps.append((cell(hi=b.lo), cell(lo=b.lo)))
    if b.hi is not None and (c.hi is None or c.hi.terms > b.hi.terms):
        steps.append((cell(lo=b.hi), cell(hi=b.hi)))
    if b.div >= 1 or b.md is not None:
        steps.append((cell(hi=ONE), cell(lo=ONE)))
    # not(div): x = 0 or some digit below the level is nonzero; carve the
    # nonzero-digit branches one position at a time to stay disjoint
    steps += [(cell(digits={i: ds_ge(1)}), cell(digits={i: ds_eq(0)}))
              for i in range(b.div)]
    if b.md is not None:
        steps.append((cell(md=ds_not(b.md)), cell(md=b.md)))
    steps += [(cell(digits={i: ds_not(ds)}), cell(digits={i: ds})) for i, ds in b.digits]
    out: list[Cell] = []
    rest = c
    for outside, inside in steps:
        if (piece := cell_and(rest, outside)) is not None:
            out.append(piece)
        rest = cell_and(rest, inside)
    return out


def cells_difference(acells, bcells) -> list[Cell]:
    work = list(acells)
    for b in bcells:
        if not work:
            break
        work = [piece for c in work for piece in cell_minus(c, b)]
    return work


def _cell_subsumes(big: Cell, small: Cell) -> bool:
    """Sufficient syntactic check for small <= big, on canonical cells.

    Each digit set of big must contain small's constraint there: {0} below
    small.div, small's own set where it has one, and otherwise every digit,
    which no set of a canonical cell contains."""
    # both bounds are Ordinals, which order by their term tuples
    if small.lo.terms < big.lo.terms:
        return False
    if big.hi is not None and (small.hi is None or small.hi.terms > big.hi.terms):
        return False
    if big.div > small.div:
        return False
    if big.md is not None:
        if small.md is None or not _ds_subset(small.md, big.md):
            return False
    if big.digits:
        sets = dict(small.digits)
        for i, ds_big in big.digits:
            if i < small.div:
                if not ds_big.has0:
                    return False
                continue
            ds = sets.get(i)
            if ds is None or (ds is not ds_big and not _ds_subset(ds, ds_big)):
                return False
    return True


@lru_cache(maxsize=16384)
def _cells_cached(p: Pat, space_bound: Ordinal | None) -> tuple[Cell, ...]:
    if isinstance(p, POr):
        # The DNF of an or is the concatenation of its parts' DNFs, and
        # _cell_subsumes is a partial order (transitive, antisymmetric on
        # canonical cells), so the maximal cells of the union are the maximal
        # cells among the parts' own maximal cells: the result is unchanged.
        return prune_cells([c for q in p.parts for c in _cells_cached(q, space_bound)])
    return prune_cells([c for conj in _dnf(_nnf(p, False))
                        if (c := _merge_cell(conj, space_bound)) is not None])


def _prune_sig(c: Cell):
    """(div, lo, hi, has md, bitmask of the constrained digit positions,
    those below div included, bitmask of the positions whose set lacks 0)
    as plain values; computed once per cell.  `prune_cells` and `meet`
    read it.  The sets below div are {0}, so the last mask has no bit
    there: a cell's 0-less positions below another's div are
    `nz & ((1 << div) - 1)`."""
    sig = c._sig
    if sig is None:
        mask = (1 << c.div) - 1
        nz = 0
        for i, ds in c.digits:
            mask |= 1 << i
            if not ds.has0:
                nz |= 1 << i
        sig = (c.div, c.lo.terms, None if c.hi is None else c.hi.terms, c.md is not None,
               mask, nz)
        object.__setattr__(c, "_sig", sig)
    return sig


def prune_cells(cells) -> tuple[Cell, ...]:
    """The maximal cells among canonical cells, in `_cell_key` order.

    A subsumer k of c has k.div <= c.div and k.lo <= c.lo, so it lies in the
    prefix of the `_cell_key` order up to the last cell of c's (div, lo).
    Before `_cell_subsumes` runs, the signatures reject every k that fails
    one of its necessary conditions: k.lo > c.lo or k.div > c.div; an md on
    k but none on c; a digit position k constrains and c leaves full (k's
    digit sets are never full); a position below c.div where k's set lacks
    0 (`k.nz & ((1 << c.div) - 1)`, exactly where `_cell_subsumes` returns
    False on c's {0} there); an hi on k that c's hi exceeds or lacks."""
    uniq = sorted(set(cells), key=_cell_key)
    sigs = [_prune_sig(c) for c in uniq]
    out = []
    end = 0
    for j, c in enumerate(uniq):
        div, lo, hi, md, mask, _ = sigs[j]
        below = (1 << div) - 1
        while end < len(uniq) and sigs[end][:2] <= (div, lo):
            end += 1
        for m in range(end):
            kdiv, klo, khi, kmd, kmask, knz = sigs[m]
            if (m == j or kmask & ~mask or knz & below or kdiv > div or klo > lo
                    or (kmd and not md) or (khi is not None and (hi is None or hi > khi))):
                continue
            if _cell_subsumes(uniq[m], c):
                break
        else:
            out.append(c)
    return tuple(out)


_meet_pair = lru_cache(maxsize=65536)(cell_and)


def meet(xs: tuple[Cell, ...], ys: tuple[Cell, ...]) -> tuple[Cell, ...]:
    """Cells of the intersection of two canonical cell tuples: the maximal
    pairwise meets, which are the and's own to_cells (its DNF is the product
    of its parts' DNFs, and cell_and is monotone under _cell_subsumes).
    Each pairwise meet is built field by field from the two canonical
    cells (`cell_and`), not re-normalised, and memoized per pair.

    Not every pairwise meet is formed.  A nonempty c ∧ d of canonical cells
    lies syntactically inside both c and d: its lo is the larger, its hi the
    smaller (never clamped), its div the larger, its md
    and each of its digit sets the intersection.  So once c ∧ d == c, every
    other meet of c lies in c, and c's row is just (c,); once c ∧ d == d,
    every later meet with d lies in d, and later rows skip d.  Each skipped
    meet is thus subsumed by a kept one, and _cell_subsumes is a partial
    order (transitive, antisymmetric on canonical cells), so the maximal
    cells of the kept meets are those of the whole product: a product cell
    outside the kept ones lies strictly below a kept one, and a kept cell
    below some product cell lies below a kept one.

    Before the pair memo, the two cells' `_prune_sig`s skip a pair at two
    of `cell_and`'s own None exits: the intervals are disjoint (d.lo >= c.hi
    or c.lo >= d.hi), or one cell has a set without 0 at a position below
    the other's div, where every member of the other has digit 0.  A
    skipped pair is an empty meet, which adds nothing."""
    out: list[Cell] = []
    live = [(d, _prune_sig(d)) for d in ys]
    for c in xs:
        cdiv, clo, chi, _, _, cnz = _prune_sig(c)
        cbelow = (1 << cdiv) - 1
        row: list[Cell] = []
        inside = set()
        for d, (ddiv, dlo, dhi, _, _, dnz) in live:
            if ((chi is not None and dlo >= chi) or (dhi is not None and clo >= dhi)
                    or dnz & cbelow or cnz & ((1 << ddiv) - 1)):
                continue
            m = _meet_pair(c, d)
            if m is None:
                continue
            # one object per cell value
            if m is c:
                row = [c]
                break
            if m is d:
                inside.add(d)
            row.append(m)
        out += row
        if inside:
            live = [e for e in live if e[0] not in inside]
    return prune_cells(out)


def to_cells(p: Pat, space_bound: Ordinal | None) -> tuple[Cell, ...]:
    return _cells_cached(p, space_bound)


def cell_pattern(c: Cell, bound: Ordinal | None) -> Pat:
    """The cell as a pattern below bound, which leaves out an upper end equal to it."""
    parts: list[Pat] = []
    if c.div >= 1:
        parts.append(PDiv(c.div))
    if c.md is not None:
        parts.append(PMinDigit(c.md))
    for i, ds in c.digits:
        parts.append(digit_in(i, ds))
    implied_one = c.div >= 1 or c.md is not None
    if not c.lo.is_zero and not (implied_one and c.lo == ONE):
        parts.append(ord_ge(c.lo))
    if c.hi is not bound:
        parts.append(ord_lt(c.hi))
    return and_(*parts)


def cells_pattern(cells, bound: Ordinal | None) -> Pat:
    return or_(*(cell_pattern(c, bound) for c in cells))


# -- minimal element search --------------------------------------------------

def _least_in_box(sets: list[DigitSet], lower: Ordinal) -> Ordinal | None:
    """Least x >= lower with digit_i(x) in sets[i] for every i < len(sets)
    and no digit above; lower has none there either.  None when there is no
    such x.

    Such an x other than lower keeps lower's digits above some position k,
    takes at k the least allowed digit above lower's, and below k the least
    allowed digits.  A lower k gives a smaller x, so the answer uses the
    lowest feasible k, and that k is at or above the highest position where
    lower's own digit is not allowed (when there is none, x = lower)."""
    low = dict(lower.terms)
    bad = [i for i, ds in enumerate(sets) if low.get(i, 0) not in ds]
    if not bad:
        return lower
    for k in range(bad[-1], len(sets)):
        up = sets[k].min_geq(low.get(k, 0) + 1)
        if up is not None:
            break
    else:
        return None
    below = [ds.min_value() for ds in sets[:k]]
    if None in below:
        return None
    terms = [(i, d) for i, d in lower.terms if i > k] + [(k, up)]
    terms += [(i, below[i]) for i in range(k - 1, -1, -1) if below[i]]
    return Ordinal(tuple(terms))


def _box_top(c: Cell, lower: Ordinal) -> int:
    """A position from which up every constraint of c is vacuous and lower
    has no digit."""
    return max([c.div] + [i + 1 for i, _ in c.digits] + [e + 1 for e, _ in lower.terms[:1]])


def _cell_box(c: Cell, top: int) -> list[DigitSet]:
    """The cell's digit sets at positions 0..top: {0} below div, its own
    sets where it has them, every digit elsewhere."""
    box = [ds_eq(0)] * c.div + [DS_FULL] * (top + 1 - c.div)
    for i, ds in c.digits:
        box[i] = ds
    return box


def cell_min_geq(c: Cell, lower: Ordinal) -> Ordinal | None:
    """Smallest x in the cell's box with x >= max(lower, lo); ignores hi.
    Returns None when the box is empty."""
    if lower.terms < c.lo.terms:
        lower = c.lo
    top = _box_top(c, lower)
    if c.md is None:
        return _least_in_box(_cell_box(c, top), lower)

    # Split on the position e of the least nonzero digit; e = top+1 covers
    # every higher position.  Digits below e vanish, so no e past a position
    # that excludes 0 has a member.
    box = _cell_box(c, top + 1)
    best: Ordinal | None = None
    for e in range(c.div, top + 2):
        if e and not box[e - 1].has0:
            break
        at_e = ds_and(ds_and(box[e], c.md), ds_ge(1))
        if at_e.is_empty:
            continue
        x = _least_in_box([ds_eq(0)] * e + [at_e] + box[e + 1:top + 1], lower)
        if x is not None and (best is None or x.terms < best.terms):
            best = x
    return best


def _md_stop(c: Cell) -> tuple[int, bool]:
    """For a cell with md, one upward pass over its positions from div: the
    first position whose set meets md or lacks 0, and whether it meets md.
    A position the cell leaves free meets md, so the pass ends at the
    first gap between div and the slots, or just above the last slot."""
    pos = c.div
    for i, ds in c.digits:
        if i > pos:
            return pos, True
        if not ds_and(ds, c.md).is_empty:
            return i, True
        if not ds.has0:
            return i, False
        pos = i + 1
    return pos, True


@lru_cache(maxsize=65536)
def cell_is_empty(c: Cell) -> bool:
    """Whether the canonical cell c has no member.

    Box lemma: a canonical cell with no upper end is nonempty iff it has no
    md, or under md some position e >= div whose set meets md has only
    0-allowing sets in [div, e) (`_md_stop` finds the first such e or the
    first 0-less set before it; a free position always meets md).  Its
    digit sets are nonempty, and the sets below div are {0}.  Take a free
    position p above every slot, above lo's leading exponent and above e,
    and the point with digit 1 at p, at every position below p its set's
    least digit, except, under md, a digit of md and e's set at e and 0
    below e.  It lies in the box, its least nonzero position is >= div (e
    under md), and it lifts past lo, its leading exponent being larger.
    Conversely a member's least nonzero position e is >= div, its digit
    there lies in md and e's set, and the digits below e are 0, which the
    sets in [div, e) must allow.  A cell with an upper end takes its least
    member from `cell_min_geq` and compares it with hi."""
    if c.hi is None:
        return c.md is not None and not _md_stop(c)[1]
    m = cell_min_geq(c, c.lo)
    return m is None or m.terms >= c.hi.terms


def iter_cell(c: Cell, count: int):
    """The cell's least `count` members, in order.

    Without md, one box serves every point: each point after the least one
    keeps its leading exponent at or below the first box's top, where the
    box is full, so the box for its successor is the same one, or one with
    another full position above, which changes no answer.  A member x and
    x + 1 differ only in digit 0, so x + 1 is the next member when the box
    allows its digit 0."""
    hi = None if c.hi is None else c.hi.terms
    box = None if c.md is not None else _cell_box(c, _box_top(c, c.lo))
    x = cell_min_geq(c, c.lo) if box is None else _least_in_box(box, c.lo)
    while x is not None and count > 0:
        if hi is not None and x.terms >= hi:
            return
        yield x
        count -= 1
        nxt = o.add(x, 1)
        if box is None:
            x = cell_min_geq(c, nxt)
        elif nxt.terms[-1][1] in box[0]:  # x + 1 ends in its digit 0
            x = nxt
        else:
            x = _least_in_box(box, nxt)
