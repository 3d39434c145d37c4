"""S-expression fixtures: spaces, sets, functions, families, refinements.

The grammar is documented in docs/fixtures.md; parse -> print -> parse is
the identity on every construct.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import FixtureParseError, PositionLimitExceeded
from .family import Segment, TransfiniteFamily
from .functions import StepFn, make_stepfn
from .ordinal import Ordinal, ZERO, format_ordinal, parse_ordinal
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
            j = text.index('"', i + 1)
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
    if not isinstance(tok, str):
        raise FixtureParseError("expected an ordinal literal, got %r" % (tok,))
    return parse_ordinal(_atom_text(tok))


def _nat(tok) -> int:
    """A natural number: decimal digits, no sign."""
    if not isinstance(tok, str) or not _is_digits(_atom_text(tok)):
        raise FixtureParseError("expected a natural number, got %r" % (tok,))
    return int(_atom_text(tok))


# the kernel's work grows faster than linearly with the highest digit
# position; digit values are held to `patterns.MAX_DIGITSET`
MAX_POSITION = 256


def _pos(tok) -> int:
    """A natural used as a digit position or divisibility level."""
    n = _nat(tok)
    if n > MAX_POSITION:
        raise PositionLimitExceeded("digit position %d is above the limit %d" % (n, MAX_POSITION))
    return n


def _int(tok) -> int:
    """An integer: decimal digits after an optional minus sign."""
    s = _atom_text(tok) if isinstance(tok, str) else ""
    if not _is_digits(s[1:] if s.startswith("-") else s):
        raise FixtureParseError("expected an integer, got %r" % (tok,))
    return int(s)


def _is_digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


def _rat(tok) -> Fraction:
    s = _atom_text(tok)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:  # zero denominator: "1/0"
        raise FixtureParseError("bad rational %r" % s) from e


# the fewest arguments of each form head that takes any
_ARGS = {"set": 2, "fn": 2, "family": 1, "nfam": 1, "bound": 1, "depth": 1, "xi": 1,
         "piece": 2, "length": 1, "from": 1, "to": 1, "period": 1,
         "not": 1, "ref": 1, "eq": 2, "mod": 3, "ge": 1, "lt": 1, "divpow": 1,
         "mindigit-mod": 2, "mindigit-eq": 1, "mindigit-ge": 1, "digit-in": 2,
         "mindigit-in": 1, "ge-n": 3, "lt-n": 3, "ord-ge-n": 2, "ord-lt-n": 2,
         "divpow-n": 2}


def _form(node, what: str) -> list:
    """node, checked to be a form with an atom head and the arguments it needs."""
    if not isinstance(node, list) or not node or not isinstance(node[0], str):
        raise FixtureParseError("%s must be a form with an atom head: %r" % (what, node))
    if len(node) <= _ARGS.get(node[0], 0):
        raise FixtureParseError("(%s ...) needs %d argument(s): %r"
                                % (node[0], _ARGS[node[0]], node))
    return node


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
    if head == "eq":
        return digit_in(_pos(args[0]), ds_eq(_nat(args[1])))
    if head == "mod":
        return digit_in(_pos(args[0]), ds_mod(_nat(args[1]), _nat(args[2])))
    if head == "ge":
        if len(args) == 2:
            return digit_in(_pos(args[0]), ds_ge(_nat(args[1])))
        return ord_ge(_ord(args[0]))
    if head == "lt":
        return ord_lt(_ord(args[0]))
    if head == "divpow":
        return divpow(_pos(args[0]))
    if head == "mindigit-mod":
        return min_digit_in(ds_mod(_nat(args[0]), _nat(args[1])))
    if head == "mindigit-eq":
        return min_digit_in(ds_eq(_nat(args[0])))
    if head == "mindigit-ge":
        return min_digit_in(ds_ge(_nat(args[0])))
    if head == "digit-in":
        return digit_in(_pos(args[0]), _parse_ds(args[1]))
    if head == "mindigit-in":
        return min_digit_in(_parse_ds(args[0]))
    if head in ("ge-param", "lt-param"):
        base = _ord(args[0]) if len(args) > 0 else ZERO
        shift = _ord(args[1]) if len(args) > 1 else ZERO
        coeff = _nat(args[2]) if len(args) > 2 else 1
        return (POrdGeEta if head == "ge-param" else POrdLtEta)(base, shift, coeff)
    if head == "ge-n":
        return PDigitGeN(_pos(args[0]), _nat(args[1]), _nat(args[2]))
    if head == "lt-n":
        return PDigitLtN(_pos(args[0]), _nat(args[1]), _nat(args[2]))
    if head == "ord-ge-n":
        return POrdGeN(_ord(args[0]), _ord(args[1]))
    if head == "ord-lt-n":
        return POrdLtN(_ord(args[0]), _ord(args[1]))
    if head == "divpow-n":
        return PDivN(_pos(args[0]), _nat(args[1]))
    raise FixtureParseError("unknown pattern head %r" % head)


def _parse_ds(node) -> DigitSet:
    if _form(node, "digit set")[0] != "ds":
        raise FixtureParseError("expected (ds ...)")
    prefix, period, residues = (), 1, set()
    for part in node[1:]:
        if _form(part, "digit set part")[0] == "prefix":
            prefix = tuple(_nat(b) == 1 for b in part[1:])
        elif part[0] == "period":
            period = _nat(part[1])
            if period < 1:
                raise FixtureParseError("a digit-set period must be at least 1")
        elif part[0] == "residues":
            residues = {_nat(r) for r in part[1:]}
    return mk_digitset(prefix, period, residues)


def _ds_sexpr(ds: DigitSet) -> str:
    bits = " ".join("1" if b else "0" for b in ds.prefix)
    parts = []
    if ds.prefix:
        parts.append("(prefix %s)" % bits)
    parts.append("(period %d)" % ds.period)
    if ds.residues:
        parts.append("(residues %s)" % " ".join(str(r) for r in sorted(ds.residues)))
    return "(ds %s)" % " ".join(parts)


def _ord_token(a: Ordinal) -> str:
    return '"%s"' % format_ordinal(a)


def pattern_to_sexpr(p: Pat) -> str:
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
    if isinstance(p, POrdGe):
        return "(ge %s)" % _ord_token(p.b)
    if isinstance(p, POrdLt):
        return "(lt %s)" % _ord_token(p.b)
    if isinstance(p, PDiv):
        return "(divpow %d)" % p.e
    if isinstance(p, POrdGeEta):
        return "(ge-param %s %s %d)" % (_ord_token(p.base), _ord_token(p.shift), p.coeff)
    if isinstance(p, POrdLtEta):
        return "(lt-param %s %s %d)" % (_ord_token(p.base), _ord_token(p.shift), p.coeff)
    if isinstance(p, PDigitGeN):
        return "(ge-n %d %d %d)" % (p.i, p.base, p.slope)
    if isinstance(p, PDigitLtN):
        return "(lt-n %d %d %d)" % (p.i, p.base, p.slope)
    if isinstance(p, POrdGeN):
        return "(ord-ge-n %s %s)" % (_ord_token(p.base), _ord_token(p.slope))
    if isinstance(p, POrdLtN):
        return "(ord-lt-n %s %s)" % (_ord_token(p.base), _ord_token(p.slope))
    if isinstance(p, PDivN):
        return "(divpow-n %d %d)" % (p.base, p.slope)
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
    nfams: dict[str, "FnFamily"] = field(default_factory=dict)
    refinements: list[tuple[tuple[str, ...], int]] = field(default_factory=list)


def load_fixture(text: str) -> Fixture:
    tree = parse_sexpr(text)
    if not isinstance(tree, list) or tree[0] != "fixture":
        raise FixtureParseError("top form must be (fixture ...)")
    space = None
    items = []
    for node in tree[1:]:
        if isinstance(node, list) and node and node[0] == "space":
            bound, depth = None, 6
            for part in node[1:]:
                if _form(part, "space part")[0] == "bound":
                    txt = _atom_text(part[1])
                    bound = None if txt == "ceiling" else parse_ordinal(txt)
                elif part[0] == "depth":
                    depth = _nat(part[1])
            space = SpaceDesc(bound, depth)
        else:
            items.append(node)
    if space is None:
        raise FixtureParseError("fixture needs a (space ...) declaration")
    fx = Fixture(space, base_topology(space))
    for node in items:
        head = _form(node, "fixture item")[0]
        if head == "set":
            fx.sets[_atom_text(node[1])] = sexpr_to_pattern(node[2], fx.sets)
        elif head == "fn":
            fx.fns[_atom_text(node[1])] = _parse_stepfn(node[2], fx)
        elif head == "family":
            fx.families[_atom_text(node[1])] = _parse_family(node[2:], fx)
        elif head == "nfam":
            from .functions import FnFamily
            pieces = []
            for part in node[2:]:
                if _form(part, "piece")[0] != "piece":
                    raise FixtureParseError("expected (piece VALUE PATTERN)")
                pieces.append((_rat(part[1]), sexpr_to_pattern(part[2], fx.sets)))
            fx.nfams[_atom_text(node[1])] = FnFamily(tuple(pieces), fx.space)
        elif head == "refine":
            names, xi = [], 2
            for part in node[1:]:
                if _form(part, "refine part")[0] == "sets":
                    names = [_atom_text(n) for n in part[1:]]
                elif part[0] == "xi":
                    xi = _int(part[1])
                    if xi < 1:
                        raise FixtureParseError("(xi ...) must be at least 1, got %d" % xi)
            sets = [sexpr_to_pattern(["ref", n], fx.sets) for n in names]
            fx.topology = refine(fx.topology, sets, xi)
            fx.refinements.append((tuple(names), xi))
        else:
            raise FixtureParseError("unknown fixture item %r" % head)
    return fx


def _parse_stepfn(node, fx: Fixture) -> StepFn:
    if _form(node, "function")[0] != "stepfn":
        raise FixtureParseError("expected (stepfn ...)")
    pieces = []
    for part in node[1:]:
        if _form(part, "piece")[0] != "piece":
            raise FixtureParseError("expected (piece VALUE PATTERN)")
        pieces.append((_rat(part[1]), sexpr_to_pattern(part[2], fx.sets)))
    return make_stepfn(pieces, fx.space)


def _parse_family(nodes, fx: Fixture) -> TransfiniteFamily:
    length = None
    segs = []
    for part in nodes:
        if _form(part, "family part")[0] == "length":
            length = _ord(part[1])
        elif part[0] == "segment":
            lo = hi = None
            body = None
            for sub in part[1:]:
                if _form(sub, "segment part")[0] == "from":
                    lo = _ord(sub[1])
                elif sub[0] == "to":
                    hi = _ord(sub[1])
                else:
                    body = sexpr_to_pattern(sub, fx.sets)
            segs.append(Segment(lo, hi, body))
        else:
            raise FixtureParseError("unknown family item %r" % part[0])
    if length is None:
        raise FixtureParseError("family needs a length")
    return TransfiniteFamily(length, tuple(segs))


def stepfn_to_sexpr(f: StepFn) -> str:
    pieces = " ".join("(piece %s %s)" % (v, pattern_to_sexpr(p))
                      for v, p in f.pieces)
    return "(stepfn %s)" % pieces


def fixture_to_sexpr(fx: Fixture) -> str:
    lines = ["(fixture"]
    bound = "ceiling" if fx.space.bound is None else format_ordinal(fx.space.bound)
    lines.append('  (space (bound "%s") (depth %d))' % (bound, fx.space.depth))
    for name in fx.sets:
        lines.append("  (set %s %s)" % (name, pattern_to_sexpr(fx.sets[name])))
    for name in fx.fns:
        lines.append("  (fn %s %s)" % (name, stepfn_to_sexpr(fx.fns[name])))
    for name in fx.families:
        fam = fx.families[name]
        lines.append("  (family %s (length %s) %s)"
                     % (name, _ord_token(fam.length),
                        " ".join("(segment (from %s) (to %s) %s)"
                                 % (_ord_token(s.lo), _ord_token(s.hi),
                                    pattern_to_sexpr(s.body))
                                 for s in fam.segments)))
    for name in fx.nfams:
        pieces = " ".join("(piece %s %s)" % (v, pattern_to_sexpr(p))
                          for v, p in fx.nfams[name].pieces)
        lines.append("  (nfam %s %s)" % (name, pieces))
    for names, xi in fx.refinements:
        lines.append("  (refine (sets %s) (xi %d))" % (" ".join(names), xi))
    lines.append(")")
    return "\n".join(lines)
