"""Batch front-end: rank, decompose, verify, phi, and reproduction suites.

Reports are deterministic text (or JSON with --json); identical inputs and
flags produce byte-identical output.  Exit codes: 1 parse or usage error, 2
verification failure, 3 budget exhaustion, an unsupported progression, a
fixture digit position or ordinal exponent above `fixtures.MAX_POSITION` or
a digit set above `patterns.MAX_DIGITSET`.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import oracle as orc
from . import ordinal as o
from .altsum import (altsum_eval, build_char_decomposition,
                     build_step_decomposition, exit_parity_eval,
                     length_upper_certificate)
from .derivative import Budget, DEFAULT_BUDGET
from .errors import (BudgetExceeded, CertificateViolation, ClassViolation,
                     DigitSetTooLarge, ExitNotFound, FixtureParseError,
                     InclusionViolation, NotLimit, NotOracleSpace,
                     PartitionViolation, PositionLimitExceeded,
                     PrecisionUnreachable, ResidualViolation,
                     UnsupportedProgression, VerificationError, WitnessMismatch)
from .family import explicit_family, tails_family
from .fixtures import Fixture, load_fixture
from .functions import char_fn, fn_add, fn_scale, usc_check
from .ordinal import format_ordinal
from .patterns import (FALSE, TRUE, and_, digit_eq, digit_ge, digit_mod, ds_mod,
                       min_digit_in, not_, or_, ord_ge, ord_lt)
from .pseudouniform import phi_generate
from .ranks import (NotStabilized, alpha_fn, alpha_pair, alpha_xi_verify, beta,
                    class_membership, gamma_seq, is_pseudouniform)
from .space import (SpaceDesc, base_topology, closure, difference_chain, refine,
                    sample_points)

# argparse.ArgumentError: a usage error, raised by `_Parser.error`
_PARSE_ERRORS = (FixtureParseError, argparse.ArgumentError)
_VERIFY_ERRORS = (VerificationError, InclusionViolation, WitnessMismatch,
                  ResidualViolation, ExitNotFound, ClassViolation,
                  PartitionViolation, CertificateViolation, NotOracleSpace)
# RecursionError: the reader and the formula walkers recurse once per
# level of nesting
_BUDGET_ERRORS = (BudgetExceeded, UnsupportedProgression, PrecisionUnreachable,
                  NotLimit, PositionLimitExceeded, DigitSetTooLarge, RecursionError)


def _budget() -> Budget:
    env = os.environ.get("TRANSFINITE_BUDGET")
    try:
        return Budget(successors=int(env)) if env else DEFAULT_BUDGET
    except ValueError as e:
        raise FixtureParseError(str(e)) from None


def _fmt_rank(value) -> str:
    if isinstance(value, NotStabilized):
        return str(value)
    return format_ordinal(value)


def _emit(lines: list[str], as_json: bool, trace_lines: list[str] | None = None) -> None:
    if trace_lines:
        lines = lines + trace_lines
    if as_json:
        print(json.dumps({"report": lines}, sort_keys=True, indent=None))
    else:
        for ln in lines:
            print(ln)


def _named(table: dict, kind: str, name: str):
    """The fixture's declaration of ``name``; undeclared names are input errors."""
    if name not in table:
        raise FixtureParseError("no %s named %r in the fixture" % (kind, name))
    return table[name]


def cmd_rank(fx: Fixture, args) -> int:
    budget = _budget()
    lines = []
    traces = []
    if args.fn:
        f = _named(fx.fns, "fn", args.fn)
        a = alpha_fn(f, fx.topology, budget)
        b = beta(f, fx.topology, budget)
        lines.append("fn %s" % args.fn)
        lines.append("alpha = %s (pair %s)" % (_fmt_rank(a.value), a.witness_param))
        lines.append("beta = %s (eps %s)" % (_fmt_rank(b.value), b.witness_param))
        if args.trace and b.trace is not None:
            traces = b.trace.log_lines()
        bad = isinstance(a.value, NotStabilized) or isinstance(b.value, NotStabilized)
    elif args.nfam:
        fam = _named(fx.nfams, "nfam", args.nfam)
        g = gamma_seq(fam, fx.topology, budget)
        lines.append("nfam %s" % args.nfam)
        lines.append("gamma = %s (eps %s)" % (_fmt_rank(g.value), g.witness_param))
        if args.trace and g.trace is not None:
            traces = g.trace.log_lines()
        bad = isinstance(g.value, NotStabilized)
    else:
        A, B = (_named(fx.sets, "set", n) for n in args.pair)
        rep = alpha_pair(A, B, fx.topology, budget)
        lines.append("pair %s %s" % (args.pair[0], args.pair[1]))
        lines.append("alpha = %s" % _fmt_rank(rep.value))
        if args.trace and rep.trace is not None:
            traces = rep.trace.log_lines()
        bad = isinstance(rep.value, NotStabilized)
    _emit(lines, args.json, traces)
    return 3 if bad else 0


def cmd_decompose(fx: Fixture, args) -> int:
    if args.lam < 0:
        raise FixtureParseError("--lam must be at least 0, got %d" % args.lam)
    f = _named(fx.fns, "fn", args.fn)
    wits = [_named(fx.families, "family", n) for n in args.witnesses]
    d = build_step_decomposition(f, wits, fx.topology)
    cert = length_upper_certificate(f, d, args.lam, fx.topology)
    lines = ["decompose fn %s" % args.fn,
             "sequence length %s" % format_ordinal(d.length),
             "norm bound %s" % d.seq.norm_bound(),
             "certificate %s lam=%d xi=%d" % (cert.kind, cert.lam, cert.xi)]
    lines += ["check %s" % c for c in cert.claims]
    _emit(lines, args.json)
    return 0


def cmd_verify(fx: Fixture, args) -> int:
    if args.xi < 1:
        raise FixtureParseError("--xi must be at least 1, got %d" % args.xi)
    fam = _named(fx.families, "family", args.family)
    lines = []
    if args.pair:
        A, B = (_named(fx.sets, "set", n) for n in args.pair)
        cert = alpha_xi_verify(A, B, fam, args.xi, fx.topology)
        lines.append("alpha_%d(%s, %s) <= %s"
                     % (args.xi, args.pair[0], args.pair[1],
                        format_ordinal(fam.length)))
        lines += ["check %s" % c for c in cert.claims]
    else:
        d = build_char_decomposition(fam, fx.topology, xi=args.xi)
        lines.append("family %s valid DUSB_%d of length %s"
                     % (args.family, args.xi, format_ordinal(d.length)))
        lines += ["check %s" % c for c in d.certs]
    _emit(lines, args.json)
    return 0


def cmd_phi(fx: Fixture, args) -> int:
    A = _named(fx.sets, "set", args.set)
    fam = _named(fx.families, "family", args.family)
    wit = phi_generate(A, fam, args.lam, fx.topology, budget=_budget())
    lines = ["phi lam=%d set %s" % (args.lam, args.set),
             "gamma = %s" % _fmt_rank(wit.gamma_report.value)]
    lines += ["check %s" % c for c in wit.certificate.claims]
    _emit(lines, args.json)
    return 0


# ---------------------------------------------------------------------------
# Reproduction suites.

def _suite_polish_failure() -> list[tuple[str, bool]]:
    A = min_digit_in(ds_mod(2, 0))
    out = []
    cases = [(SpaceDesc(o.from_int(12)), o.from_int(1)),
             (SpaceDesc(o.add(o.mul(o.W, 8), 8)), o.from_int(2)),
             (SpaceDesc(o.add(o.omega_power(2), 1)), o.from_int(3)),
             (SpaceDesc(None), o.W)]
    for space, expected in cases:
        rep = alpha_fn(char_fn(A, space), base_topology(space), Budget(80, 4, 4))
        label = "alpha == %s on %s" % (
            format_ordinal(expected),
            "ceiling" if space.bound is None else format_ordinal(space.bound))
        out.append((label, rep.value == expected))
    space = SpaceDesc(None)
    t = base_topology(space)
    f = char_fn(A, space)
    ok = True
    for j in range(3):
        bump = and_(digit_mod(j, 5, 2), ord_lt(o.omega_power(4)))
        g = fn_add(f, fn_scale(char_fn(bump, space), Fraction(1, 3)))
        rep = alpha_fn(g, t, Budget(80, 4, 4))
        ok = ok and not isinstance(rep.value, NotStabilized) \
            and o.compare(rep.value, o.W) >= 0
    out.append(("uniform perturbations keep alpha >= w", ok))
    return out


def _suite_alternating() -> list[tuple[str, bool]]:
    out = []
    for bound in (o.W, o.omega_power(2)):
        space = SpaceDesc(bound)
        t = base_topology(space)
        fam = tails_family(bound)
        d = build_char_decomposition(fam, t)
        pts = sample_points(TRUE, space, 10)[:30]
        ok = all(altsum_eval(d, x, fam.length) == exit_parity_eval(fam, x)
                 for x in pts)
        out.append(("alternating sum equals exit parity on [0, %s)"
                    % format_ordinal(bound), ok))
        f = char_fn(digit_mod(0, 2, 0), space)
        d2 = build_step_decomposition(f, [fam], t)
        cert = length_upper_certificate(f, d2, bound.max_exp() or 1, t)
        out.append(("length certificate on [0, %s)" % format_ordinal(bound),
                    cert.kind == "length_upper"))
    return out


def _suite_phi() -> list[tuple[str, bool]]:
    space = SpaceDesc(o.omega_power(2))
    t = base_topology(space)
    wit = phi_generate(digit_mod(0, 2, 0), tails_family(o.omega_power(2)), 1, t)
    return [("window generation certified", wit.certificate.kind == "phi_generate"),
            ("convergence pseudouniform", is_pseudouniform(wit.gamma_report))]


def _suite_oracle() -> list[tuple[str, bool]]:
    rng = random.Random(123)
    space = SpaceDesc(o.add(o.mul(o.W, 4), 4))
    t = base_topology(space)

    def rand_pattern(depth=3):
        def atom():
            k = rng.randrange(5)
            i = rng.randint(0, 1)
            if k == 0:
                return digit_eq(i, rng.randint(0, 3))
            if k == 1:
                return digit_ge(i, rng.randint(1, 4))
            if k == 2:
                return digit_mod(i, rng.randint(2, 4), rng.randint(0, 3))
            b = o.add(o.mul(o.W, rng.randint(0, 4)), rng.randint(0, 5))
            return ord_ge(b) if k == 3 else (ord_lt(b) if not b.is_zero else ord_ge(b))

        def build(d):
            if d == 0:
                return atom()
            k = rng.randrange(4)
            if k == 0:
                return atom()
            if k == 1:
                return and_(build(d - 1), build(d - 1))
            if k == 2:
                return or_(build(d - 1), build(d - 1))
            return not_(build(d - 1))
        return build(depth)

    ok = True
    for _ in range(60):
        p = rand_pattern()
        sym = orc.from_pattern(closure(p, t), space)
        bru = orc.oracle_closure(orc.from_pattern(p, space))
        ok = ok and orc.o_eq(sym, bru)
    return [("closure agrees with brute force (60 random sets)", ok)]


def _suite_xi_reduction() -> list[tuple[str, bool]]:
    space = SpaceDesc(o.omega_power(2))
    t = base_topology(space)
    blocky = digit_mod(1, 2, 1)
    f = char_fn(blocky, space)
    out = [("target not USC in the base", not usc_check(f, t))]
    chain = difference_chain(blocky, t)
    r = refine(t, chain[1:3], 2)
    out.append(("target USC after the block refinement", usc_check(f, r)))
    wit = explicit_family([TRUE, not_(blocky), FALSE, FALSE])
    cert_base = class_membership(f, 1, 2, [wit], t, refined=r)
    cert_ref = class_membership(f, 1, 1, [wit], r)
    out.append(("refined level-1 certificate matches the base level-2 one",
                cert_base.claims[:1] == cert_ref.claims[:1]))
    return out


SUITES = {
    "polish-failure": _suite_polish_failure,
    "alternating": _suite_alternating,
    "phi": _suite_phi,
    "oracle": _suite_oracle,
    "xi-reduction": _suite_xi_reduction,
}


def cmd_reproduce(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    lines = []
    for name in names:
        for label, ok in SUITES[name]():
            lines.append("%s %s: %s" % ("PASS" if ok else "FAIL", name, label))
            failed += 0 if ok else 1
    lines.append("suites: %d checks, %d failed" % (len(lines), failed))
    _emit(lines, args.json)
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so that `main` reports them like
    parse errors (exit 1, one line) instead of exiting 2 with a usage block."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="ordrank")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("fixture")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("rank")
    common(p)
    p.add_argument("--trace", action="store_true")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--fn")
    what.add_argument("--nfam")
    what.add_argument("--pair", nargs=2)

    p = sub.add_parser("decompose")
    common(p)
    p.add_argument("--fn", required=True)
    p.add_argument("--witnesses", nargs="+", required=True)
    p.add_argument("--lam", type=int, default=1)

    p = sub.add_parser("verify")
    common(p)
    p.add_argument("--family", required=True)
    p.add_argument("--pair", nargs=2)
    p.add_argument("--xi", type=int, default=1)

    p = sub.add_parser("phi")
    common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--lam", type=int, default=1)

    p = sub.add_parser("reproduce")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--json", action="store_true")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.verb == "reproduce":
            return cmd_reproduce(args)
        with open(args.fixture, encoding="utf-8") as fh:
            fx = load_fixture(fh.read())
        if args.verb == "rank":
            return cmd_rank(fx, args)
        if args.verb == "decompose":
            return cmd_decompose(fx, args)
        if args.verb == "verify":
            return cmd_verify(fx, args)
        if args.verb == "phi":
            return cmd_phi(fx, args)
        return 1
    except _PARSE_ERRORS as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 1
    except _VERIFY_ERRORS as e:
        print("verification failure: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 2
    except _BUDGET_ERRORS as e:
        print("budget/undecidable: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 3
    except OSError as e:
        print("cannot read fixture: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
