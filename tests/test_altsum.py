"""Alternating sums, DUSB verification, decomposition builders, certificates."""
import random
from fractions import Fraction

import pytest

from ordrank.altsum import (ComboSeq, DUSBSeq, LazyDUSB, altsum_eval,
                            altsum_unrolled, build_char_decomposition,
                            build_step_decomposition,
                            build_uniform_decomposition, char_seq,
                            eval_to_precision, exit_parity_eval,
                            length_upper_certificate, verify_dusb)
from ordrank.errors import (ExitNotFound, PrecisionUnreachable,
                            VerificationError, WitnessMismatch)
from ordrank.family import (TransfiniteFamily, even_diff_union,
                            explicit_family, from_segments, pad_with_empty,
                            tails_family, validate_set_family)
from ordrank.functions import UniformPresentation, char_fn, constant, fn_scale, make_stepfn
from ordrank.ordinal import (W, ZERO, add, even_floor, from_int,
                             fundamental_sequence, is_even, mul, omega_power)
from ordrank.patterns import (FALSE, TRUE, POrdGeEta, and_, digit_mod, not_,
                              or_, ord_ge, ord_lt)
from ordrank.space import SpaceDesc, base_topology, sample_points, sem_eq

SW = SpaceDesc(W)
TW = base_topology(SW)
S2 = SpaceDesc(omega_power(2))
T2 = base_topology(S2)
EVENS = digit_mod(0, 2, 0)


def test_verify_dusb_examples():
    zero_fam = from_segments(W, [(ZERO, from_int(1), TRUE), (from_int(1), W, FALSE)])
    d = verify_dusb(ComboSeq(((Fraction(0), zero_fam),), W, SW), 1, TW)
    assert d.certs

    d = build_char_decomposition(tails_family(W), TW)
    assert d.xi == 1

    increasing = explicit_family([TRUE, ord_ge(2), ord_ge(1), FALSE])
    with pytest.raises(VerificationError):
        validate_set_family(increasing, TW)


def test_altsum_eval_examples():
    d = build_char_decomposition(tails_family(W), TW)
    assert altsum_eval(d, from_int(3), ZERO) == 0
    assert altsum_eval(d, from_int(3), W) == 0
    assert altsum_eval(d, from_int(4), W) == 1
    sums = altsum_unrolled(d, from_int(3), 6)
    assert sums == [0, 1, 0, 1, 0, 0, 0][:7]


def test_altsum_matches_unrolled_random():
    rng = random.Random(2024)
    fam = tails_family(W)
    d = build_char_decomposition(fam, TW)
    for _ in range(50):
        x = from_int(rng.randint(0, 20))
        for theta in range(0, 12):
            assert (altsum_eval(d, x, from_int(theta))
                    == altsum_unrolled(d, x, theta)[-1])


def test_altsum_limit_via_even_fundamental_sequence():
    fam = tails_family(omega_power(2))
    d = build_char_decomposition(fam, T2)
    for x in (from_int(5), W, add(mul(W, 2), 4), add(W, 1)):
        target = altsum_eval(d, x, omega_power(2))
        tail = [altsum_eval(d, x, fundamental_sequence(omega_power(2), n, True))
                for n in range(3, 8)]
        assert all(v == target for v in tail[-2:])


def test_exit_parity_examples():
    fam2 = explicit_family([TRUE, ord_ge(W)])  # differences: [0, w)
    assert exit_parity_eval(fam2, from_int(0)) == 1
    fam = tails_family(W)
    assert exit_parity_eval(fam, from_int(3)) == 0
    big = tails_family(omega_power(2))
    assert exit_parity_eval(big, W) == 1  # exits at w+1, zeta = w even


def test_monotone_even_partial_sums():
    rng = random.Random(7)
    fam = tails_family(omega_power(2))
    d = build_char_decomposition(fam, T2)
    pts = sample_points(TRUE, S2, 6)
    evens = [ZERO, from_int(2), from_int(6), W, add(W, 4), mul(W, 3),
             omega_power(2)]
    for x in pts[:12]:
        vals = [altsum_eval(d, x, th) for th in evens]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_sandwich_property():
    fam = tails_family(omega_power(2))
    d = build_char_decomposition(fam, T2)
    pts = sample_points(TRUE, S2, 5)
    evens = [ZERO, from_int(2), W, add(W, 2), mul(W, 2), omega_power(2)]
    for x in pts[:10]:
        for i, th in enumerate(evens):
            for ze in evens[i:]:
                diff = altsum_eval(d, x, ze) - altsum_eval(d, x, th)
                cap = d.seq.value(th, x) - d.seq.value(ze, x)
                assert 0 <= diff <= cap


def test_oracle_equivalence_char_decompositions():
    fam = tails_family(omega_power(2))
    d = build_char_decomposition(fam, T2)
    for x in sample_points(TRUE, S2, 8)[:24]:
        assert altsum_eval(d, x, fam.length) == exit_parity_eval(fam, x)


def test_padding_invariance():
    fam = tails_family(W)
    d = build_char_decomposition(fam, TW)
    padded = pad_with_empty(fam, add(W, 4))
    dp = verify_dusb(char_seq(padded, SW), 1, TW)
    for x in (from_int(2), from_int(3), from_int(9)):
        assert altsum_eval(dp, x, padded.length) == altsum_eval(d, x, fam.length)


def test_build_char_length2():
    fam = explicit_family([TRUE, ord_ge(W)])
    s1 = SpaceDesc(add(W, 1))
    d = build_char_decomposition(fam, base_topology(s1))
    assert altsum_eval(d, from_int(5), fam.length) == 1
    assert altsum_eval(d, W, fam.length) == 0


def test_build_step_decomposition():
    s1 = SpaceDesc(add(W, 1))
    t1 = base_topology(s1)
    f = make_stepfn([(2, ord_lt(W)), (1, ord_ge(W))], s1)
    # levels: {f >= 2} = [0, w) and {f >= 1} = X
    w2 = explicit_family([TRUE, ord_ge(W), FALSE, FALSE])
    w1 = explicit_family([TRUE, FALSE])
    d = build_step_decomposition(f, [w2, w1], t1)
    assert d.seq.norm_bound() <= f.norm()
    assert altsum_eval(d, W, d.length) == 1
    assert altsum_eval(d, from_int(5), d.length) == 2


def test_build_step_constant():
    c = constant(3, SW)
    w = explicit_family([TRUE, FALSE])
    d = build_step_decomposition(c, [w], TW)
    assert altsum_eval(d, from_int(4), d.length) == 3


def test_build_step_norm_violation():
    s1 = SpaceDesc(add(W, 1))
    t1 = base_topology(s1)
    f = make_stepfn([(2, ord_lt(W)), (1, ord_ge(W))], s1)
    bad = explicit_family([TRUE, FALSE])  # realizes X, not [0,w)
    with pytest.raises(WitnessMismatch):
        build_step_decomposition(f, [bad, explicit_family([TRUE, FALSE])], t1)


def test_uniform_decomposition_and_precision():
    f = char_fn(EVENS, SW)
    half = fn_scale(f, Fraction(1, 2))
    pres = UniformPresentation(Fraction(0), (f, half))
    wf = tails_family(W)
    d_full = build_char_decomposition(wf, TW)
    d_half = DUSBSeq(ComboSeq(((Fraction(1, 2), wf),), W, SW), 1, ())
    lazy = build_uniform_decomposition(pres, [d_full, d_half])
    lo, hi = eval_to_precision(lazy, from_int(4), W, Fraction(1, 4))
    exact = Fraction(3, 2)
    assert lo <= exact <= hi and hi - lo <= Fraction(1, 4)

    truncated = build_uniform_decomposition(
        UniformPresentation(Fraction(0), (f, half), truncated=True),
        [d_full, d_half])
    with pytest.raises(PrecisionUnreachable):
        eval_to_precision(truncated, from_int(4), W, Fraction(1, 4))

    single = build_uniform_decomposition(
        UniformPresentation(Fraction(0), (f,)), [d_full])
    lo, hi = eval_to_precision(single, from_int(4), W, Fraction(3))
    assert lo == hi == 1


def test_length_upper_certificate():
    s1 = SpaceDesc(add(W, 1))
    t1 = base_topology(s1)
    c = constant(3, s1)
    # the lam = 0 route: empty witness, the constant carries everything
    empty = DUSBSeq(ComboSeq((), ZERO, s1), 1, ())
    cert = length_upper_certificate(c, empty, 0, t1, const=Fraction(3))
    assert cert.kind == "length_upper"

    # on the compact space the witness must empty out at a successor stage
    evens_fn = char_fn(and_(EVENS, ord_lt(W)), s1)
    odds_top = or_(and_(digit_mod(0, 2, 1), ord_lt(W)), ord_ge(W))
    fam = explicit_family([TRUE, odds_top, FALSE, FALSE])
    d2 = build_step_decomposition(evens_fn, [fam], t1)
    cert2 = length_upper_certificate(evens_fn, d2, 1, t1)
    assert "sandwich" in " ".join(cert2.claims)

    # on the half-open space the length-w tails witness is the real thing
    dw = build_step_decomposition(char_fn(EVENS, SW), [tails_family(W)], TW)
    certw = length_upper_certificate(char_fn(EVENS, SW), dw, 1, TW)
    assert certw.lam == 1


def test_length_certificate_residual_violation():
    # an invalid sequence (one component grows back) can reproduce the target
    # at the full length while overshooting at an intermediate even stage
    from ordrank.errors import ResidualViolation
    famA = explicit_family([TRUE, TRUE, FALSE, FALSE])
    famB = explicit_family([FALSE, FALSE, FALSE, TRUE])
    seq = ComboSeq(((Fraction(1), famA), (Fraction(4), famB)), from_int(4), SW)
    bogus = DUSBSeq(seq, 1, ())
    target = constant(-4, SW)
    with pytest.raises(ResidualViolation):
        length_upper_certificate(target, bogus, 1, TW, const=Fraction(0))


# ---------------------------------------------------------------------------
# Value traces against the per-mark definition, and certificate negatives.

def _reference_trace(seq, x):
    """The value trace built mark by mark with seq.value: cuts at every
    truth-interval start and at every shorter family's length."""
    cuts = {ZERO}
    for _, fam in seq.terms:
        cuts.update(start for start, _end, _val in fam.truth_intervals(x))
        if fam.length.terms < seq.length.terms:
            cuts.add(fam.length)
    out = []
    for m in sorted(cuts, key=lambda a: a.terms):
        val = seq.value(m, x)
        if not out or out[-1][1] != val:
            out.append((m, val))
    return tuple(out)


def _trace_value(trace, eta):
    """The value of the last mark at or below eta."""
    val = None
    for start, v in trace:
        if start.terms > eta.terms:
            break
        val = v
    return val


def _random_family(rng, length):
    """A decreasing family of the given length from one of the builders."""
    kind = rng.randrange(3)
    if kind == 0 or length.is_finite:
        n = length.fin() if length.is_finite else rng.randint(2, 5)
        cuts = sorted(rng.sample(range(1, 30), n - 1))
        pats = [TRUE] + [or_(ord_ge(from_int(c)), and_(EVENS, ord_ge(W)))
                         if rng.random() < 0.3 else ord_ge(from_int(c))
                         for c in cuts]
        return explicit_family(pats)
    if kind == 1:
        return tails_family(length, base=from_int(rng.randint(0, 3)),
                            coeff=rng.randint(1, 2))
    k = rng.randint(1, 4)
    a = from_int(2 * rng.randint(1, 5))
    segs = [(ZERO, from_int(k), TRUE), (from_int(k), W, ord_ge(a))]
    if length != W:
        segs.append((W, length, POrdGeEta(a, W, 1)))
    return from_segments(length, segs)


def _random_combo(rng):
    length = rng.choice([W, add(mul(W, 3), 2), mul(W, 4), omega_power(2)])
    n = rng.randint(2, 4)
    lengths = [length] + [rng.choice([from_int(rng.randint(1, 6)), W, length])
                          for _ in range(n - 1)]
    lengths[1] = from_int(rng.randint(1, 6))  # one family shorter than the sequence
    fams = [_random_family(rng, ln) for ln in lengths]
    weights = [Fraction(rng.randint(1, 2), 2) for _ in fams]
    weights[-1] = weights[0]  # tied weights
    return ComboSeq(tuple(zip(weights, fams)), length, S2)


def test_value_trace_matches_reference_random():
    rng = random.Random(515)
    pts = [add(mul(W, a), b) for a in range(7) for b in range(9)]
    for _ in range(25):
        seq = _random_combo(rng)
        etas = [from_int(n) for n in range(40) if from_int(n).terms < seq.length.terms]
        lim = seq.length.limit_part()
        etas += [fundamental_sequence(lim, n) for n in range(6)]
        etas += [add(lim, k) for k in range(seq.length.fin())]
        unrolled_steps = min(12, len(etas))
        for x in rng.sample(pts, 12) + [from_int(rng.randint(9, 30))]:
            trace = seq.value_trace(x)
            assert trace == _reference_trace(seq, x)
            for eta in etas:
                assert seq.value(eta, x) == _trace_value(trace, eta)
            sums = altsum_unrolled(seq, x, unrolled_steps)
            for n in range(unrolled_steps + 1):
                assert altsum_eval(seq, x, from_int(n)) == sums[n]


def _valid_decompositions():
    """(f, decomposition, lam, topology) for nested-level step functions on
    three spaces."""
    out = []
    s1 = SpaceDesc(add(W, 1))
    t1 = base_topology(s1)
    evens_fn = char_fn(and_(EVENS, ord_lt(W)), s1)
    odds_top = or_(and_(digit_mod(0, 2, 1), ord_lt(W)), ord_ge(W))
    out.append((evens_fn, build_step_decomposition(
        evens_fn, [explicit_family([TRUE, odds_top, FALSE, FALSE])], t1), 1, t1))
    for a in (4, 7):
        f = make_stepfn([(3, ord_ge(from_int(a))), (1, ord_lt(from_int(a)))], SW)
        wit = explicit_family([TRUE, ord_lt(from_int(a)), FALSE, FALSE])
        out.append((f, build_step_decomposition(
            f, [wit, explicit_family([TRUE, FALSE])], TW), 1, TW))
    for a in (2, 6):
        f = make_stepfn([(Fraction(5, 2), and_(EVENS, ord_ge(from_int(a)))),
                         (Fraction(3, 2), and_(EVENS, ord_lt(from_int(a)))),
                         (Fraction(1, 2), not_(EVENS))], S2)
        top = from_segments(omega_power(2), [
            (ZERO, from_int(2), TRUE),
            (from_int(2), omega_power(2), POrdGeEta(from_int(a), from_int(2), 1))])
        d = build_step_decomposition(
            f, [top, tails_family(omega_power(2)), explicit_family([TRUE, FALSE])], T2)
        out.append((f, d, 2, T2))
    return out


def test_length_certificate_rejects_perturbations():
    from ordrank.errors import ResidualViolation
    rng = random.Random(4242)
    for f, d, lam, t in _valid_decompositions():
        length_upper_certificate(f, d, lam, t)
        terms = list(d.seq.terms)
        for _ in range(4):
            i = rng.randrange(len(terms))
            how = rng.choice(["weight", "const", "witness"])
            const = Fraction(0)
            bad = list(terms)
            if how == "weight":
                w, fam = bad[i]
                bad[i] = (w + rng.choice([Fraction(1, 2), Fraction(1)]), fam)
            elif how == "const":
                const = rng.choice([Fraction(-1, 2), Fraction(1, 3)])
            else:
                w, fam = bad[i]
                other = ord_ge(from_int(rng.randint(1, 3)))
                bad[i] = (w, explicit_family([TRUE, and_(fam.at(from_int(1)), other)]
                                             if fam.length.terms > from_int(1).terms
                                             else [TRUE, other]))
            seq = ComboSeq(tuple(bad), d.seq.length, d.seq.space)
            # a shifted const or weight moves the full sum at sampled points
            expected = ((WitnessMismatch, ResidualViolation) if how == "witness"
                        else WitnessMismatch)
            with pytest.raises(expected):
                length_upper_certificate(f, DUSBSeq(seq, d.xi, ()), lam, t,
                                         const=const)


def test_length_certificate_rejects_regrowth():
    # a component that empties and comes back adds 2w to every full sum; with
    # the const lowered by 2w the identity holds, but the residual at stage 0
    # exceeds f_0 wherever f is at its norm
    from ordrank.errors import ResidualViolation
    regrow = explicit_family([TRUE, FALSE, TRUE, FALSE])
    for f, d, lam, t in _valid_decompositions():
        w = Fraction(1, 2)
        seq = ComboSeq(d.seq.terms + ((w, regrow),), d.seq.length, d.seq.space)
        with pytest.raises(ResidualViolation):
            length_upper_certificate(f, DUSBSeq(seq, d.xi, ()), lam, t,
                                     const=-2 * w)


def test_length_certificate_samples_infinite_points():
    # the empty witness gives 0 everywhere, but chi{x >= w} is 1 at every
    # infinite point of w*2+1: the certificate must look past the naturals
    s = SpaceDesc(add(mul(W, 2), 1))
    f = char_fn(ord_ge(W), s)
    empty = DUSBSeq(ComboSeq((), W, s), 1, ())
    with pytest.raises(WitnessMismatch):
        length_upper_certificate(f, empty, 1, base_topology(s))
