"""S-expression fixtures: spaces, sets, functions, families, refinements.

The grammar is documented in docs/fixtures.md; parse -> print -> parse is
the identity on every construct.  Each form is stated once: `_ATOMS` for
the atoms whose arguments are their class's fields, `_PARTS` for the parts
of each compound form and `_ARGS` for every form's argument count.  The
reader, the printer and the arity check all read them, so a form with an
unknown, repeated or missing part is refused instead of read as another.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import FixtureParseError
from .family import Segment, TransfiniteFamily
from .functions import FnFamily, StepFn, make_stepfn
from .ordinal import Ordinal, format_ordinal, is_decimal, parse_ordinal, read_natural
from .patterns import (DigitSet, FALSE, Pat, PAnd, PDigit, PDigitGeN,
                       PDigitLtN, PDiv, PDivN, PMinDigit, PNot, POr, POrdGe,
                       POrdGeEta, POrdGeN, POrdLt, POrdLtEta, POrdLtN, PTrue,
                       PFalse, TRUE, and_, digit_in, divpow, ds_eq, ds_ge,
                       ds_mod, min_digit_in, mk_digitset, not_, or_, ord_ge,
                       ord_lt)
from .space import SpaceDesc, Topology, base_topology, refine


# ---------------------------------------------------------------------------
# Reader.

def tokenize(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "()":
            out.append(ch)
            i += 1
        elif ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise FixtureParseError("unclosed string from %r" % text[i:i + 20])
            out.append(text[i:j + 1])
            i = j + 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in '();"':
                j += 1
            out.append(text[i:j])
            i = j
    return out


def parse_sexpr(text: str):
    toks = tokenize(text)
    pos = 0

    def walk():
        nonlocal pos
        if pos >= len(toks):
            raise FixtureParseError("unexpected end of input")
        tok = toks[pos]
        pos += 1
        if tok == "(":
            items = []
            while pos < len(toks) and toks[pos] != ")":
                items.append(walk())
            if pos >= len(toks):
                raise FixtureParseError("missing closing paren")
            pos += 1
            return items
        if tok == ")":
            raise FixtureParseError("unexpected closing paren")
        return tok

    tree = walk()
    if pos != len(toks):
        raise FixtureParseError("trailing tokens after the top form")
    return tree


def _atom_text(tok) -> str:
    if not isinstance(tok, str):
        raise FixtureParseError("expected an atom, got %r" % (tok,))
    return tok[1:-1] if tok.startswith('"') else tok


def _ord(tok) -> Ordinal:
    """An ordinal literal whose exponents are held to MAX_POSITION."""
    if not isinstance(tok, str):
        raise FixtureParseError("expected an ordinal literal, got %r" % (tok,))
    try:
        return parse_ordinal(_atom_text(tok), MAX_POSITION)
    except ValueError as e:
        raise FixtureParseError(str(e)) from None


def _nat(tok, limit: int | None = None, what: str = "natural") -> int:
    """A natural number: decimal digits, no sign; above limit, PositionLimitExceeded."""
    if not isinstance(tok, str) or not is_decimal(_atom_text(tok)):
        raise FixtureParseError("expected a natural number, got %r" % (tok,))
    return read_natural(_atom_text(tok), limit, what)


# the kernel's work grows faster than linearly with the highest digit
# position, an ordinal's exponents included; digit values are held to
# `patterns.MAX_DIGITSET`
MAX_POSITION = 256


def _modulus(tok) -> int:
    """A natural used as a modulus: at least 1."""
    if (m := _nat(tok)) < 1:
        raise FixtureParseError("modulus must be >= 1")
    return m


def _pos(tok) -> int:
    """A natural used as a digit position or divisibility level."""
    return _nat(tok, MAX_POSITION, "digit position")


def _int(tok) -> int:
    """An integer: decimal digits after an optional minus sign."""
    s = _atom_text(tok) if isinstance(tok, str) else ""
    digits = s[1:] if s.startswith("-") else s
    if not is_decimal(digits):
        raise FixtureParseError("expected an integer, got %r" % (tok,))
    n = read_natural(digits, what="integer")
    return -n if s.startswith("-") else n


def _bit(tok) -> bool:
    """A digit-set prefix bit: 0 or 1."""
    if not isinstance(tok, str) or _atom_text(tok) not in ("0", "1"):
        raise FixtureParseError("expected a (prefix ...) bit 0 or 1, got %r" % (tok,))
    return _atom_text(tok) == "1"


def _rat(tok) -> Fraction:
    """A rational: an optional minus sign, ASCII decimal digits, and optionally
    "/" and a nonzero denominator in ASCII digits (what `str(Fraction)` prints)."""
    s = _atom_text(tok)
    num, slash, den = s.removeprefix("-").partition("/")
    if not is_decimal(num) or (slash and not is_decimal(den)):
        raise FixtureParseError("bad rational %r" % s)
    p = read_natural(num, what="numerator")
    q = read_natural(den, what="denominator") if slash else 1
    if q == 0:
        raise FixtureParseError("bad rational %r" % s)
    return Fraction(-p if s.startswith("-") else p, q)


def _ord_token(a: Ordinal) -> str:
    return '"%s"' % format_ordinal(a)


class _Atom(NamedTuple):
    cls: type
    make: Callable[..., Pat]
    args: tuple[Callable, ...]  # the reader of each field of cls, in order


# the atoms whose arguments are their class's fields; (ge i v), the digit
# form of the overloaded ge, and the digit-set forms are read by hand
_ATOMS = {
    "lt": _Atom(POrdLt, ord_lt, (_ord,)),
    "ge": _Atom(POrdGe, ord_ge, (_ord,)),
    "divpow": _Atom(PDiv, divpow, (_pos,)),
    "ge-param": _Atom(POrdGeEta, POrdGeEta, (_ord, _ord, _nat)),
    "lt-param": _Atom(POrdLtEta, POrdLtEta, (_ord, _ord, _nat)),
    "ge-n": _Atom(PDigitGeN, PDigitGeN, (_pos, _nat, _nat)),
    "lt-n": _Atom(PDigitLtN, PDigitLtN, (_pos, _nat, _nat)),
    "ord-ge-n": _Atom(POrdGeN, POrdGeN, (_ord, _ord)),
    "ord-lt-n": _Atom(POrdLtN, POrdLtN, (_ord, _ord)),
    "divpow-n": _Atom(PDivN, PDivN, (_pos, _nat)),
}
_HEAD = {a.cls: head for head, a in _ATOMS.items()}
_PRINT = {_ord: _ord_token, _nat: str, _pos: str}

# the parts each compound form takes after its arguments: "1" exactly once,
# "?" at most once, "*" any number of times; None stands for the one part
# whose head the form does not declare, a segment's body pattern
_PARTS = {
    "space": {"bound": "1", "depth": "?"},
    "ds": {"prefix": "?", "period": "?", "residues": "?"},
    "refine": {"sets": "1", "xi": "1"},
    "family": {"length": "1", "segment": "*"},
    "segment": {"from": "1", "to": "1", None: "1"},
    "stepfn": {"piece": "*"},
    "nfam": {"piece": "*"},
}

# the number of arguments of each form head that takes a fixed number; a
# compound form takes them before its parts
_ARGS = {"set": 2, "fn": 2, "family": 1, "nfam": 1, "bound": 1, "depth": 1, "xi": 1,
         "piece": 2, "length": 1, "from": 1, "to": 1, "period": 1,
         "true": 0, "false": 0, "not": 1, "ref": 1, "eq": 2, "mod": 3,
         "mindigit-mod": 2, "mindigit-eq": 1, "mindigit-ge": 1, "digit-in": 2,
         "mindigit-in": 1, **{head: len(a.args) for head, a in _ATOMS.items()}}


def _form(node, what: str) -> list:
    """node, checked to be a form with an atom head and the arguments it takes."""
    if not isinstance(node, list) or not node or not isinstance(node[0], str):
        raise FixtureParseError("%s must be a form with an atom head: %r" % (what, node))
    n = 2 if node[0] == "ge" and len(node) == 3 else _ARGS.get(node[0])
    if n is not None and (len(node) - 1 < n if node[0] in _PARTS else len(node) - 1 != n):
        raise FixtureParseError("(%s ...) needs %d argument(s): %r" % (node[0], n, node))
    return node


def _parts(node) -> dict:
    """The parts of a compound form, keyed by head (None for the body): the
    part itself, or the list of them for a "*" head.  An unknown, repeated
    or missing part is refused."""
    head, spec = node[0], _PARTS[node[0]]
    got: dict = {}
    for part in node[1 + _ARGS.get(head, 0):]:
        key = _form(part, "%s part" % head)[0]
        key = key if key in spec else None  # an undeclared head is the body
        if key not in spec:
            raise FixtureParseError("(%s ...) has no part %r" % (head, part[0]))
        if spec[key] == "*":
            got.setdefault(key, []).append(part)
        elif key in got:
            raise FixtureParseError("(%s ...) has a second %s" % (
                head, "(%s ...)" % key if key else "body pattern"))
        else:
            got[key] = part
    for key, n in spec.items():
        if n == "1" and key not in got:
            raise FixtureParseError("(%s ...) needs a %s" % (
                head, "(%s ...)" % key if key else "body pattern"))
    return got


# ---------------------------------------------------------------------------
# Patterns.

def sexpr_to_pattern(node, named: dict[str, Pat] | None = None) -> Pat:
    head, args = _form(node, "pattern")[0], node[1:]
    named = named or {}
    if head == "and":
        return and_(*(sexpr_to_pattern(a, named) for a in args))
    if head == "or":
        return or_(*(sexpr_to_pattern(a, named) for a in args))
    if head == "not":
        return not_(sexpr_to_pattern(args[0], named))
    if head == "true":
        return TRUE
    if head == "false":
        return FALSE
    if head == "ref":
        name = _atom_text(args[0])
        if name not in named:
            raise FixtureParseError("unknown set name %r" % name)
        return named[name]
    if head == "ge" and len(args) == 2:
        return digit_in(_pos(args[0]), ds_ge(_nat(args[1])))
    if head in _ATOMS:
        atom = _ATOMS[head]
        return atom.make(*(read(a) for read, a in zip(atom.args, args)))
    if head == "eq":
        return digit_in(_pos(args[0]), ds_eq(_nat(args[1])))
    if head == "mod":
        return digit_in(_pos(args[0]), ds_mod(_modulus(args[1]), _nat(args[2])))
    if head == "mindigit-mod":
        return min_digit_in(ds_mod(_modulus(args[0]), _nat(args[1])))
    if head == "mindigit-eq":
        return min_digit_in(ds_eq(_nat(args[0])))
    if head == "mindigit-ge":
        return min_digit_in(ds_ge(_nat(args[0])))
    if head == "digit-in":
        return digit_in(_pos(args[0]), _parse_ds(args[1]))
    if head == "mindigit-in":
        return min_digit_in(_parse_ds(args[0]))
    raise FixtureParseError("unknown pattern head %r" % head)


def _parse_ds(node) -> DigitSet:
    if _form(node, "digit set")[0] != "ds":
        raise FixtureParseError("expected (ds ...)")
    p = _parts(node)
    period = _nat(p["period"][1]) if "period" in p else 1
    if period < 1:
        raise FixtureParseError("a digit-set period must be at least 1")
    return mk_digitset(tuple(_bit(b) for b in p.get("prefix", ())[1:]), period,
                       {_nat(r) for r in p.get("residues", ())[1:]})


def _ds_sexpr(ds: DigitSet) -> str:
    bits = " ".join("1" if b else "0" for b in ds.prefix)
    parts = []
    if ds.prefix:
        parts.append("(prefix %s)" % bits)
    parts.append("(period %d)" % ds.period)
    if ds.residues:
        parts.append("(residues %s)" % " ".join(str(r) for r in sorted(ds.residues)))
    return "(ds %s)" % " ".join(parts)


def pattern_to_sexpr(p: Pat) -> str:
    head = _HEAD.get(type(p))
    if head is not None:
        return "(%s %s)" % (head, " ".join(
            _PRINT[read](getattr(p, f.name)) for read, f in zip(_ATOMS[head].args, fields(p))))
    if isinstance(p, PTrue):
        return "(true)"
    if isinstance(p, PFalse):
        return "(false)"
    if isinstance(p, PAnd):
        return "(and %s)" % " ".join(pattern_to_sexpr(q) for q in p.parts)
    if isinstance(p, POr):
        return "(or %s)" % " ".join(pattern_to_sexpr(q) for q in p.parts)
    if isinstance(p, PNot):
        return "(not %s)" % pattern_to_sexpr(p.part)
    if isinstance(p, PDigit):
        ds = p.ds
        mv = ds.min_value()
        if ds == ds_eq(mv if mv is not None else 0):
            return "(eq %d %d)" % (p.i, mv)
        if mv is not None and ds == ds_ge(mv):
            return "(ge %d %d)" % (p.i, mv)
        if ds.period > 1 and not ds.prefix and len(ds.residues) == 1:
            return "(mod %d %d %d)" % (p.i, ds.period, min(ds.residues))
        return "(digit-in %d %s)" % (p.i, _ds_sexpr(ds))
    if isinstance(p, PMinDigit):
        ds = p.ds
        if ds.period > 1 and not ds.prefix and len(ds.residues) == 1:
            return "(mindigit-mod %d %d)" % (ds.period, min(ds.residues))
        return "(mindigit-in %s)" % _ds_sexpr(ds)
    raise FixtureParseError("cannot print %r" % (p,))


# ---------------------------------------------------------------------------
# Fixtures.

@dataclass
class Fixture:
    space: SpaceDesc
    topology: Topology
    sets: dict[str, Pat] = field(default_factory=dict)
    fns: dict[str, StepFn] = field(default_factory=dict)
    families: dict[str, TransfiniteFamily] = field(default_factory=dict)
    nfams: dict[str, FnFamily] = field(default_factory=dict)
    refinements: list[tuple[tuple[str, ...], int]] = field(default_factory=list)


def load_fixture(text: str) -> Fixture:
    tree = parse_sexpr(text)
    if _form(tree, "top form")[0] != "fixture":
        raise FixtureParseError("top form must be (fixture ...)")
    space = None
    items = []
    for node in tree[1:]:
        if isinstance(node, list) and node and node[0] == "space":
            p = _parts(node)
            if "depth" in p:  # read for compatibility; every point can be named
                _nat(p["depth"][1])
            bound = None if _atom_text(p["bound"][1]) == "ceiling" else _ord(p["bound"][1])
            if space is not None:
                raise FixtureParseError("the fixture has a second (space ...)")
            if bound is not None and bound.is_zero:
                raise FixtureParseError("space must be nonempty")
            space = SpaceDesc(bound)
        else:
            items.append(node)
    if space is None:
        raise FixtureParseError("fixture needs a (space ...) declaration")
    fx = Fixture(space, base_topology(space))
    named = {"set": fx.sets, "fn": fx.fns, "family": fx.families, "nfam": fx.nfams}
    for node in items:
        head = _form(node, "fixture item")[0]
        if head in named:
            name = _atom_text(node[1])
            if name in named[head]:
                raise FixtureParseError("the fixture has a second (%s %s ...)" % (head, name))
        if head == "set":
            fx.sets[name] = sexpr_to_pattern(node[2], fx.sets)
        elif head == "fn":
            if _form(node[2], "function")[0] != "stepfn":
                raise FixtureParseError("expected (stepfn ...)")
            fx.fns[name] = make_stepfn(_pieces(node[2], fx), fx.space)
        elif head == "family":
            p = _parts(node)
            segs = tuple(_segment(s, fx) for s in p.get("segment", ()))
            fx.families[name] = TransfiniteFamily(_ord(p["length"][1]), segs)
        elif head == "nfam":
            fx.nfams[name] = FnFamily(_pieces(node, fx), fx.space)
        elif head == "refine":
            p = _parts(node)
            names = [_atom_text(n) for n in p["sets"][1:]]
            xi = _int(p["xi"][1])
            if xi < 1:
                raise FixtureParseError("(xi ...) must be at least 1, got %d" % xi)
            sets = [sexpr_to_pattern(["ref", n], fx.sets) for n in names]
            fx.topology = refine(fx.topology, sets, xi)
            fx.refinements.append((tuple(names), xi))
        else:
            raise FixtureParseError("unknown fixture item %r" % head)
    return fx


def _pieces(node, fx: Fixture) -> tuple[tuple[Fraction, Pat], ...]:
    """The (piece VALUE PATTERN) parts of a stepfn or nfam form."""
    return tuple((_rat(v), sexpr_to_pattern(pat, fx.sets))
                 for _, v, pat in _parts(node).get("piece", ()))


def _pieces_sexpr(pieces) -> str:
    return " ".join("(piece %s %s)" % (v, pattern_to_sexpr(p)) for v, p in pieces)


def _segment(node, fx: Fixture) -> Segment:
    p = _parts(node)
    return Segment(_ord(p["from"][1]), _ord(p["to"][1]), sexpr_to_pattern(p[None], fx.sets))


def fixture_to_sexpr(fx: Fixture) -> str:
    lines = ["(fixture"]
    bound = "ceiling" if fx.space.bound is None else format_ordinal(fx.space.bound)
    lines.append('  (space (bound "%s"))' % bound)
    for name in fx.sets:
        lines.append("  (set %s %s)" % (name, pattern_to_sexpr(fx.sets[name])))
    for name in fx.fns:
        lines.append("  (fn %s (stepfn %s))" % (name, _pieces_sexpr(fx.fns[name].pieces)))
    for name in fx.families:
        fam = fx.families[name]
        lines.append("  (family %s (length %s) %s)"
                     % (name, _ord_token(fam.length),
                        " ".join("(segment (from %s) (to %s) %s)"
                                 % (_ord_token(s.lo), _ord_token(s.hi),
                                    pattern_to_sexpr(s.body))
                                 for s in fam.segments)))
    for name in fx.nfams:
        lines.append("  (nfam %s %s)" % (name, _pieces_sexpr(fx.nfams[name].pieces)))
    for names, xi in fx.refinements:
        lines.append("  (refine (sets %s) (xi %d))" % (" ".join(names), xi))
    lines.append(")")
    return "\n".join(lines)
