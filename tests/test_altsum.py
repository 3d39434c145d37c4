"""Alternating sums, DUSB verification, decomposition builders, certificates."""
import dataclasses
import random
from fractions import Fraction

import pytest

from ordrank.altsum import (ComboSeq, DUSBSeq, LazyDUSB, _even_stage_samples,
                            _stage_readings, _trace_sum, altsum_eval,
                            altsum_unrolled, build_char_decomposition,
                            build_step_decomposition,
                            build_uniform_decomposition, char_seq,
                            eval_to_precision, exit_parity_eval,
                            length_upper_certificate, verify_dusb)
from ordrank.errors import (ExitNotFound, PrecisionUnreachable,
                            UnsupportedProgression, VerificationError,
                            WitnessMismatch)
from ordrank.family import (Segment, TransfiniteFamily, even_diff_union,
                            explicit_family, from_segments, pad_with_empty,
                            tails_family, validate_set_family)
from ordrank.functions import UniformPresentation, char_fn, constant, fn_scale, make_stepfn
from ordrank.ordinal import (Ordinal, W, ZERO, add, even_floor, from_int,
                             fundamental_sequence, is_even, mul, omega_power)
from ordrank.patterns import (FALSE, TRUE, POrdGeEta, POrdLtEta, and_, digit_in,
                              digit_mod, divpow, ds_mod, ds_window, holds_at,
                              min_digit_in, not_, or_, ord_ge, ord_lt)
from ordrank.space import SpaceDesc, base_topology, sample_points, sem_eq

SW = SpaceDesc(W)
TW = base_topology(SW)
S2 = SpaceDesc(omega_power(2))
T2 = base_topology(S2)
EVENS = digit_mod(0, 2, 0)


@pytest.mark.parametrize("length, bound, check", [
    # x >= n*2 for n < w: the intersection is [w, w*2), not empty
    (W, mul(W, 2), "vanishing"),
    # F_w = {x >= w*2}, but the intersection below w is {x >= w}
    (mul(W, 2), mul(W, 3), "continuity"),
])
def test_validate_coeff2_tails_family_fails(length, bound, check):
    t = base_topology(SpaceDesc(bound))
    with pytest.raises(VerificationError) as err:
        validate_set_family(tails_family(length, coeff=2), t)
    assert err.value.args[0] == check


W2 = omega_power(2)


@pytest.mark.parametrize("length, bound, verdict", [
    # theta = w^2 + w is the least limit of [w^2 + 1, ...): (w^2 + w)*2 is
    # the sup of eta*2 below it, and no limit lies further inside
    (add(add(W2, W), 1), omega_power(3), "certified"),
    # w^2 + w*2 lies inside too, and F_theta = [w^2*2 + w, w^3) is nonempty
    (add(W2, mul(W, 3)), omega_power(3), "unsupported"),
    # F_theta is empty on this space, so every later limit agrees
    (add(W2, mul(W, 3)), add(mul(W2, 2), W), "certified"),
])
def test_validate_coeff2_past_the_first_interior_limit(length, bound, verdict):
    one = add(W2, 1)
    fam = from_segments(length, [(ZERO, one, TRUE), (one, length, POrdGeEta(ZERO, ZERO, 2))])
    t = base_topology(SpaceDesc(bound))
    if verdict == "certified":
        assert validate_set_family(fam, t)
    else:
        with pytest.raises(UnsupportedProgression, match="continuity"):
            validate_set_family(fam, t)


def test_validate_mixed_directions_on_an_infinite_segment_unsupported():
    # x >= eta or x < eta is the whole space at every eta, but the body
    # mixes directions, and the segment has no last index to walk to
    body = or_(POrdGeEta(ZERO, ZERO, 1), POrdLtEta(ZERO, ZERO, 1))
    with pytest.raises(UnsupportedProgression, match="decreases"):
        validate_set_family(from_segments(W, [(ZERO, W, body)]), TW, xi=2)
    # a negated lt-param shrinks, so this body decreases, and with coeff 1
    # it is continuous at w inside its segment
    body, length = not_(POrdLtEta(ZERO, ZERO, 1)), add(W, 1)
    assert validate_set_family(from_segments(length, [(ZERO, length, body)]), TW, xi=2)


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


def test_even_diff_union_on_infinite_segments():
    """Infinite segments of even_diff_union: a concrete one, which adds no
    interior difference, ending at a limit or at a successor, and a tails
    segment ending at a successor, whose last index (even or odd) crosses
    into the next segment.  Checked against exit_parity_eval at every point
    of w*3 + 2: each set here is, inside a block w*b + j, periodic in j with
    period 2 from j = 2 on, so j < 16 decides every point."""
    space = SpaceDesc(add(mul(W, 3), 2))
    a = or_(EVENS, ord_ge(mul(W, 2)))
    b = and_(a, ord_ge(W))
    w1, w2, w3 = add(W, 1), add(W, 2), add(W, 3)
    one = from_int(1)
    fams = [from_segments(w2, [(ZERO, one, TRUE), (one, W, a), (W, w1, a), (w1, w2, b)]),
            from_segments(w2, [(ZERO, one, TRUE), (one, w1, a), (w1, w2, b)]),
            from_segments(w3, [(ZERO, one, TRUE), (one, w2, a), (w2, w3, b)]),
            tails_family(w1), tails_family(w2)]
    points = [add(mul(W, k), j) for k in range(3) for j in range(16)] + [mul(W, 3), add(mul(W, 3), 1)]
    for fam in fams:
        validate_set_family(fam, base_topology(space), xi=2)
        union = even_diff_union(fam)
        assert [holds_at(union, x) for x in points] == [
            exit_parity_eval(fam, x) == 1 for x in points], fam


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


def _random_concrete(rng, depth=2):
    """A concrete body: and/or/not over digit, divpow and mindigit atoms."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return digit_mod(rng.randrange(2), rng.randint(2, 3), rng.randrange(2))
        if kind == 1:
            a = rng.randrange(4)
            return digit_in(rng.randrange(2), ds_window(a, a + rng.randint(1, 4)))
        if kind == 2:
            return divpow(rng.randint(1, 2))
        return min_digit_in(ds_mod(2, rng.randrange(2)))
    op = rng.randrange(3)
    if op == 0:
        return not_(_random_concrete(rng, depth - 1))
    parts = [_random_concrete(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    return and_(*parts) if op == 1 else or_(*parts)


def _random_index_body(rng, lo):
    """A body with an index atom whose shift lies at or below lo, alone or
    combined with a concrete body."""
    atom = rng.choice((POrdGeEta, POrdLtEta))(
        from_int(rng.randint(0, 6)), rng.choice((ZERO, lo)), rng.randint(1, 2))
    kind = rng.randrange(3)
    if kind == 0:
        return atom
    if kind == 1:
        return and_(atom, _random_concrete(rng, 1))
    return or_(atom, not_(_random_concrete(rng, 1)))


def _random_family(rng, length):
    """A family of the given length from one of the builders, with compound
    concrete bodies and, from `from_segments`, concrete segments next to
    segments with index atoms.  Value traces need no decreasing family."""
    kind = rng.randrange(4)
    if kind == 0 or length.is_finite:
        n = length.fin() if length.is_finite else rng.randint(2, 5)
        cuts = sorted(rng.sample(range(1, 30), n - 1))
        pats = [TRUE] + [or_(ord_ge(from_int(c)), and_(EVENS, ord_ge(W)))
                         if rng.random() < 0.3 else
                         and_(ord_ge(from_int(c)), _random_concrete(rng))
                         if rng.random() < 0.3 else ord_ge(from_int(c))
                         for c in cuts]
        return explicit_family(pats)
    if kind == 1:
        return tails_family(length, base=from_int(rng.randint(0, 3)),
                            coeff=rng.randint(1, 2))
    k = rng.randint(1, 4)
    if kind == 2:
        a = from_int(2 * rng.randint(1, 5))
        segs = [(ZERO, from_int(k), TRUE), (from_int(k), W, ord_ge(a))]
        if length != W:
            segs.append((W, length, POrdGeEta(a, W, 1)))
        return from_segments(length, segs)
    # mixed: every segment concrete or with index atoms, at random
    bounds = [ZERO, from_int(k)] + [b for b in (W, add(W, 3), mul(W, 2), mul(W, 3))
                                    if b.terms < length.terms] + [length]
    segs = []
    for lo, hi in zip(bounds, bounds[1:]):
        body = (TRUE if lo.is_zero and rng.random() < 0.5 else
                _random_concrete(rng) if rng.random() < 0.5 else
                _random_index_body(rng, lo))
        segs.append((lo, hi, body))
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


def test_value_trace_reads_concrete_segments_directly():
    """The generator above reaches both kinds of segment, and a concrete
    segment is one truth interval valued by its body."""
    rng = random.Random(516)
    kinds = {True: 0, False: 0}
    for _ in range(40):
        for _, fam in _random_combo(rng).terms:
            for s in fam.segments:
                kinds[s.concrete] += 1
    assert min(kinds.values()) >= 20, kinds
    body = or_(and_(digit_mod(0, 2, 0), not_(divpow(1))), min_digit_in(ds_mod(2, 1)))
    fam = from_segments(mul(W, 2), [(ZERO, from_int(3), TRUE), (from_int(3), W, body),
                                    (W, mul(W, 2), POrdGeEta(from_int(2), W, 1))])
    assert [s.concrete for s in fam.segments] == [True, True, False]
    three, seen = from_int(3), set()
    for x in (from_int(4), from_int(5), mul(W, 2), add(W, 3), mul(W, 4)):
        ivs = fam.truth_intervals(x)
        # no cut inside the concrete segment [3, w)
        assert not [iv for iv in ivs if three.terms < iv[0].terms < W.terms], ivs
        (val,) = [v for a, b, v in ivs if a.terms <= three.terms < b.terms]
        assert val == fam.member(three, x)
        assert val == all(fam.member(from_int(n), x) for n in range(3, 9))
        seen.add(val)
    assert seen == {True, False}


def _reference_readings(trace, theta):
    """(_trace_sum, value of the last mark at or below theta, 0 before the
    first), stage by stage."""
    val = Fraction(0)
    for start, v in trace:
        if start.terms > theta.terms:
            break
        val = v
    return _trace_sum(trace, theta), val


def _random_trace(rng):
    """A value trace with marks at finite, successor and limit stages, its
    first mark at 0 or at an odd stage, and a length past the last mark."""
    pool = ([from_int(n) for n in range(1, 9)]
            + [add(mul(W, a), b) for a in range(1, 4) for b in range(4)]
            + [omega_power(2), add(omega_power(2), 1), add(omega_power(2), W)])
    marks = sorted(rng.sample(pool, rng.randint(0, 6)), key=lambda a: a.terms)
    if rng.random() < 0.25:  # first mark odd: the trace starts after 0
        first = rng.choice([from_int(1), from_int(3), add(W, 1)])
        marks = [first] + [m for m in marks if first.terms < m.terms]
    else:
        marks = [ZERO] + marks
    vals = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in marks]
    trace = tuple(zip(marks, vals))
    last = marks[-1]
    length = rng.choice([add(last, rng.randint(1, 3)), add(last, W),
                         add(last, omega_power(2)), mul(add(last, 1), 2)])
    return trace, length


def test_stage_readings_match_per_stage_reference():
    rng = random.Random(5151)
    odd_first = past_last = 0
    for _ in range(400):
        trace, length = _random_trace(rng)
        cands = set(_even_stage_samples(length)) | {length, ZERO}
        for m, _ in trace:  # at, just after and a limit past every mark
            cands.update((m, add(m, 1), add(m, 2), add(m, W)))
        thetas = sorted((c for c in cands if c.terms <= length.terms),
                        key=lambda a: a.terms)
        thetas = sorted(rng.sample(thetas, rng.randint(1, len(thetas))),
                        key=lambda a: a.terms)
        if rng.random() < 0.5:
            thetas = sorted(set(thetas) | {length}, key=lambda a: a.terms)
        got = _stage_readings(trace, thetas)
        assert len(got) == len(thetas)
        for theta, reading in zip(thetas, got):
            assert reading == _reference_readings(trace, theta), (trace, theta)
        odd_first += not trace[0][0].is_zero
        past_last += any(trace[-1][0].terms < t.terms for t in thetas)
    assert odd_first >= 50 and past_last >= 200, (odd_first, past_last)


def test_combo_seq_and_segment_hash_contract():
    rng = random.Random(5252)
    for _ in range(30):
        seq = _random_combo(rng)
        twin = ComboSeq(
            tuple((Fraction(w.numerator, w.denominator),
                   TransfiniteFamily(Ordinal(f.length.terms),
                                     tuple(Segment(Ordinal(s.lo.terms), Ordinal(s.hi.terms),
                                                   s.body) for s in f.segments)))
                  for w, f in seq.terms),
            Ordinal(seq.length.terms), SpaceDesc(S2.bound))
        assert twin == seq and hash(twin) == hash(seq)
        assert twin is not seq
        for x in (from_int(rng.randint(0, 20)), add(mul(W, rng.randint(1, 5)), 2)):
            assert twin.value_trace(x) == seq.value_trace(x)
        ComboSeq._num_trace.cache_clear()
        assert twin.value_trace(from_int(5)) == _reference_trace(seq, from_int(5))
    seq = _random_combo(rng)
    assert repr(seq) == "ComboSeq(terms=%r, length=%r, space=%r)" % (
        seq.terms, seq.length, seq.space)
    with pytest.raises(dataclasses.FrozenInstanceError):
        seq._hash = 0
    # a segment's concreteness is derived, outside equality, hash and repr
    seg = Segment(ZERO, W, ord_ge(3))
    idx = Segment(ZERO, W, POrdGeEta(from_int(3), ZERO, 1))
    assert seg.concrete and not idx.concrete
    for s in (seg, idx):
        assert hash(s) == hash((s.lo, s.hi, s.body))
        assert repr(s) == "Segment(lo=%r, hi=%r, body=%r)" % (s.lo, s.hi, s.body)
        assert s == Segment(Ordinal(s.lo.terms), Ordinal(s.hi.terms), s.body)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.concrete = not s.concrete
    assert [f.name for f in dataclasses.fields(Segment) if f.compare] == ["lo", "hi", "body"]


def test_xi_below_one_raises():
    from ordrank.ranks import alpha_xi_verify
    from ordrank.space import refine
    fam = explicit_family([TRUE, FALSE])
    for xi in (0, -3):
        with pytest.raises(ValueError, match="xi must be at least 1, got %d" % xi):
            alpha_xi_verify(TRUE, FALSE, fam, xi, TW)
        with pytest.raises(ValueError, match="at least 1"):
            validate_set_family(fam, TW, xi=xi)
        with pytest.raises(ValueError, match="at least 1"):
            verify_dusb(char_seq(fam, SW), xi, TW)
        with pytest.raises(ValueError, match="at least 1"):
            build_char_decomposition(fam, TW, xi=xi)
        with pytest.raises(ValueError, match="at least 1"):  # no terms at all
            build_step_decomposition(constant(0, SW), [], TW, xi=xi)
        with pytest.raises(ValueError, match="at least 1"):
            refine(TW, [ord_lt(3)], xi)
    assert alpha_xi_verify(TRUE, FALSE, fam, 1, TW).xi == 1


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


# ---------------------------------------------------------------------------
# The integer path against a copy of the Fraction code it replaced: value
# traces and sums with Fraction deltas, and the certificate's identity and
# residual sandwich on Fractions.

def _frac_trace(seq, x):
    delta = {ZERO: Fraction(0)}
    for w, fam in seq.terms:
        for start, end, val in fam.truth_intervals(x):
            if val:
                delta[start] = delta.get(start, 0) + w
                delta[end] = delta.get(end, 0) - w
    total = Fraction(0)
    out = []
    for m in sorted(delta, key=lambda a: a.terms):
        if out and m.terms >= seq.length.terms:
            break
        total += delta[m]
        if not out or out[-1][1] != total:
            out.append((m, total))
    return tuple(out)


def _frac_cross(sum0, a, b, v):
    if v == 0:
        return sum0
    if is_even(a):
        return sum0 + (v if not is_even(b) else 0)
    return sum0 - (v if is_even(b) else 0)


def _frac_sum(trace, theta):
    total = Fraction(0)
    for i, (start, val) in enumerate(trace):
        if start.terms >= theta.terms:
            break
        end = trace[i + 1][0] if i + 1 < len(trace) else theta
        if end.terms > theta.terms:
            end = theta
        total = _frac_cross(total, start, end, val)
    return total


def _frac_eval(seq, x, theta):
    if theta.is_zero:
        return Fraction(0)
    return _frac_sum(_frac_trace(seq, x), theta)


def _frac_certificate(f, witness, lam, t, const=Fraction(0)):
    """length_upper_certificate on Fraction traces, stage by stage."""
    from itertools import chain, zip_longest

    from ordrank.altsum import _SAMPLE_CAP, Certificate
    from ordrank.errors import ResidualViolation
    from ordrank.patterns import iter_cell, to_cells
    space = t.space
    bound_len = omega_power(lam) if lam else from_int(1)
    if witness.length.terms > bound_len.terms:
        raise WitnessMismatch("witness length %s exceeds w^%d" % (witness.length, lam))
    turns = zip_longest(*(iter_cell(c, _SAMPLE_CAP) for _, p in f.pieces
                          for c in to_cells(p, space.bound)))
    pts, seen = [], set()
    for x in chain.from_iterable(turns):
        if len(pts) == _SAMPLE_CAP:
            break
        if x is not None and x not in seen:
            seen.add(x)
            pts.append(x)
    claims = []
    for x in pts:
        got = const + _frac_sum(_frac_trace(witness.seq, x), witness.length)
        want = f.eval(x)
        if got != want:
            raise WitnessMismatch("identity fails at %s: %s != %s" % (x, got, want))
    claims.append("f = const + alternating sum at %d sampled points" % len(pts))
    thetas = _even_stage_samples(witness.length)
    for theta in thetas:
        inside = theta.terms < witness.length.terms
        for x in pts[: max(6, len(pts) // 4)]:
            trace = _frac_trace(witness.seq, x)
            val = _trace_value(trace, theta) or Fraction(0)
            resid = f.eval(x) - (const + _frac_sum(trace, theta))
            if resid < 0 or resid > (val if inside else Fraction(0)):
                raise ResidualViolation(x, theta)
    claims.append("residual sandwich at %d even stages" % len(thetas))
    return Certificate("length_upper", lam, witness.xi, tuple(claims))


# weights with coprime denominators, zero, an int and a negative weight
_MIXED_WEIGHTS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(0), 1,
                  Fraction(-1, 3))


def test_integer_traces_and_sums_match_fraction_code():
    rng = random.Random(2020)
    pts = [add(mul(W, a), b) for a in range(5) for b in range(7)]
    # no terms, and terms true at index 0 only from x = 3 on
    late = explicit_family([ord_ge(from_int(3)), ord_ge(from_int(7))])
    seqs = [ComboSeq((), W, S2),
            ComboSeq(((Fraction(1, 3), late), (Fraction(2, 5), late)), W, S2)]
    for _ in range(30):
        base = _random_combo(rng)
        weights = [rng.choice(_MIXED_WEIGHTS) for _ in base.terms]
        seqs.append(ComboSeq(tuple(zip(weights, (fam for _, fam in base.terms))),
                             base.length, base.space))
    dens = set()
    for seq in seqs:
        dens.add(seq._den)
        for x in rng.sample(pts, 8) + [from_int(1)]:
            trace, ref = seq.value_trace(x), _frac_trace(seq, x)
            assert trace == ref and [m for m, _ in trace] == [m for m, _ in ref]
            assert all(type(v) is Fraction for _, v in trace)
            thetas = sorted({ZERO, seq.length, *_even_stage_samples(seq.length),
                             *(m for m, _ in trace), *(add(m, 1) for m, _ in trace)},
                            key=lambda a: a.terms)
            thetas = [th for th in thetas if th.terms <= seq.length.terms]
            for th in thetas:
                got = altsum_eval(seq, x, th)
                assert type(got) is Fraction and got == _frac_eval(seq, x, th)
            readings = _stage_readings(seq._num_trace(x), thetas)
            for th, (partial, val) in zip(thetas, readings):
                assert Fraction(partial, seq._den) == _frac_sum(ref, th)
                assert Fraction(val, seq._den) == (_trace_value(ref, th) or 0)
    assert {6, 10, 15, 30} & dens and 1 in dens, dens


def _coprime_decompositions():
    """Nested-level step functions whose level weights are 2/5, 1/3, 1/2."""
    out = []
    for a1, a2 in ((2, 5), (3, 4)):
        f = make_stepfn([(Fraction(37, 30), ord_ge(from_int(a2))),
                         (Fraction(5, 6), and_(ord_ge(from_int(a1)), ord_lt(from_int(a2)))),
                         (Fraction(1, 2), ord_lt(from_int(a1)))], SW)
        wits = [explicit_family([TRUE, ord_lt(from_int(a)), FALSE, FALSE]) for a in (a2, a1)]
        out.append((f, build_step_decomposition(
            f, wits + [explicit_family([TRUE, FALSE])], TW), 1, TW))
    a = 4
    f = make_stepfn([(Fraction(37, 30), and_(EVENS, ord_ge(from_int(a)))),
                     (Fraction(5, 6), and_(EVENS, ord_lt(from_int(a)))),
                     (Fraction(1, 2), not_(EVENS))], S2)
    top = from_segments(omega_power(2), [
        (ZERO, from_int(2), TRUE),
        (from_int(2), omega_power(2), POrdGeEta(from_int(a), from_int(2), 1))])
    out.append((f, build_step_decomposition(
        f, [top, tails_family(omega_power(2)), explicit_family([TRUE, FALSE])], T2), 2, T2))
    return out


def _outcome(cert, *args, **kw):
    try:
        return "ok", cert(*args, **kw)
    except Exception as exc:  # compared by type and arguments
        return type(exc), exc.args


def test_integer_certificate_matches_fraction_code():
    rng = random.Random(2021)
    both = _coprime_decompositions() + _valid_decompositions()
    assert {d.seq._den for _, d, _, _ in both} >= {1, 2, 30}
    seen = set()
    for f, d, lam, t in both:
        terms = list(d.seq.terms)
        two = explicit_family([TRUE, FALSE])  # adds its weight at every point
        cases = [(terms, 0), (terms, Fraction(-1, 2)), (terms, Fraction(1, 3)),
                 (terms + [(Fraction(0), two)], 0), (terms + [(1, two)], -1),
                 (terms + [(Fraction(-1, 3), two)], Fraction(1, 3))]
        regrow = explicit_family([TRUE, FALSE, TRUE, FALSE])
        for w in (Fraction(1, 3), Fraction(2, 5), 1):
            cases.append((terms + [(w, regrow)], -2 * w))
        for _ in range(6):  # as in test_length_certificate_rejects_perturbations
            i = rng.randrange(len(terms))
            bad = list(terms)
            w, fam = bad[i]
            if rng.random() < 0.5:
                bad[i] = (w + rng.choice(_MIXED_WEIGHTS[:3]), fam)
            else:
                other = ord_ge(from_int(rng.randint(1, 3)))
                bad[i] = (w, explicit_family([TRUE, and_(fam.at(from_int(1)), other)]
                                             if fam.length.terms > from_int(1).terms
                                             else [TRUE, other]))
            cases.append((bad, rng.choice((0, Fraction(-1, 2), Fraction(1, 3)))))
        for bad, const in cases:
            seq = ComboSeq(tuple(bad), d.seq.length, d.seq.space)
            wit = DUSBSeq(seq, d.xi, ())
            got = _outcome(length_upper_certificate, f, wit, lam, t, const=const)
            want = _outcome(_frac_certificate, f, wit, lam, t, const=const)
            assert got == want, (bad, const)
            seen.add(got[0] if got[0] != "ok" else "ok")
            if got[0] == "ok":
                for x in sample_points(TRUE, t.space, 12):
                    assert type(altsum_eval(wit, x, seq.length)) is Fraction
    from ordrank.errors import ResidualViolation
    assert seen == {"ok", WitnessMismatch, ResidualViolation}, seen
