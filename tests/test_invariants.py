"""Cross-cutting invariants: oracle iteration agreement, presentation
consistency, refinement monotonicity, CLI budget handling."""
import random
from fractions import Fraction

from ordrank import oracle as orc
from ordrank.derivative import (Budget, CantorBendixson, DerivativeOp,
                                OscDeriv, SeparationDeriv, apply, iterate)
from ordrank.functions import (UniformPresentation, char_fn, fn_scale,
                               monotonize_and_diff, sup_dist)
from ordrank.ordinal import W, add, from_int, mul, omega_power
from ordrank.patterns import (TRUE, and_, cells_pattern, digit_mod, not_,
                              ord_ge, ord_lt)
from ordrank.ranks import gamma_seq, is_pseudouniform
from ordrank.space import (SpaceDesc, base_topology, closure, difference_chain,
                           refine, sample_points, sem_eq)

from test_space import rand_pattern


def _oracle_rank(step, start):
    cur = start
    n = 0
    while not cur.is_empty:
        nxt = step(cur)
        if orc.o_eq(nxt, cur):
            return None
        cur = nxt
        n += 1
        if n > 40:
            return None
    return n


def test_iterate_agrees_with_oracle_iteration():
    rng = random.Random(777)
    s = SpaceDesc(add(mul(W, 5), 3))
    t = base_topology(s)
    full = orc.oracle_full(s)
    for _ in range(40):
        a, b = rand_pattern(rng), rand_pattern(rng)
        tr = iterate(DerivativeOp(SeparationDeriv(a, b), t), TRUE, Budget(50, 2))
        oa, ob = orc.from_pattern(a, s), orc.from_pattern(b, s)
        brute = _oracle_rank(lambda f: orc.oracle_sep(oa, ob, f), full)
        if brute is None:
            assert tr.rank is None and tr.fixpoint
        else:
            assert tr.rank == from_int(brute)
        # stagewise agreement too
        cur = full
        for st, cells in tr.events:
            assert orc.o_eq(orc.from_pattern(cells_pattern(cells, s.bound), s), cur)
            cur = orc.oracle_sep(oa, ob, cur)

    tr = iterate(DerivativeOp(CantorBendixson(), t), TRUE, Budget(50, 2))
    brute = _oracle_rank(orc.oracle_cb, full)
    assert tr.rank == from_int(brute)

    for _ in range(25):
        fn = char_fn(rand_pattern(rng), s)
        eps = Fraction(1, 2)
        tr = iterate(DerivativeOp(OscDeriv(fn, eps), t), TRUE, Budget(50, 2))
        pieces = [(v, orc.from_pattern(p, s)) for v, p in fn.pieces]
        brute = _oracle_rank(lambda f: orc.oracle_osc(pieces, eps, f), full)
        if brute is None:
            assert tr.rank is None and tr.fixpoint
        else:
            assert tr.rank == from_int(brute)


def test_limit_stage_vs_ten_predecessors():
    sc = SpaceDesc(None)
    tc = base_topology(sc)
    tr = iterate(DerivativeOp(CantorBendixson(), tc), TRUE, Budget(40, 4))
    from ordrank.space import subset
    lim_events = [(st, cells_pattern(c, sc.bound)) for st, c in tr.events if not st.is_finite]
    assert lim_events
    for st, p in lim_events:
        for n in range(1, 11):
            assert subset(p, tr.stage_at(from_int(n)), sc)


def test_two_presentations_agree_within_tail_bounds():
    space = SpaceDesc(add(mul(W, 3), 1))
    f = char_fn(digit_mod(0, 2, 0), space)
    p1 = monotonize_and_diff([f, f, f, f], f)
    half = fn_scale(f, Fraction(1, 2))
    p2 = UniformPresentation(Fraction(0), (half, half), truncated=True)
    bound = p1.tail_bound + p2.tail_bound
    pts = sample_points(TRUE, space, 1100)[:1000]
    assert len(pts) >= 1000
    for x in pts:
        v1, _ = p1.eval_approx(x)
        v2, _ = p2.eval_approx(x)
        assert abs(v1 - v2) <= bound


def test_refining_never_increases_gamma():
    from ordrank.functions import FnFamily
    from ordrank.patterns import PDigitGeN, PDigitLtN
    s = SpaceDesc(omega_power(2))
    t = base_topology(s)
    fam = FnFamily(((Fraction(1), PDigitLtN(0, 1, 1)),
                    (Fraction(0), PDigitGeN(0, 1, 1))), s)
    base_rank = gamma_seq(fam, t).ordinal
    r = refine(t, [ord_lt(W), ord_lt(mul(W, 3))], 2)
    refined_rank = gamma_seq(fam, r).ordinal
    from ordrank.ordinal import compare
    assert compare(refined_rank, base_rank) <= 0


def test_cli_budget_env(tmp_path, monkeypatch, capsys):
    from ordrank.cli import main
    fx = """
(fixture
  (space (bound "ceiling"))
  (set dense (mindigit-mod 2 0))
  (set codense (not (ref dense)))
  (fn chi (stepfn (piece 1 (ref dense)) (piece 0 (ref codense))))
)
"""
    p = tmp_path / "fx.sexp"
    p.write_text(fx, encoding="utf-8")
    monkeypatch.setenv("TRANSFINITE_BUDGET", "2")
    rc = main(["rank", str(p), "--fn", "chi"])
    assert rc == 3
    monkeypatch.delenv("TRANSFINITE_BUDGET")
    rc = main(["rank", str(p), "--fn", "chi"])
    assert rc == 0
    assert "alpha = w*1" in capsys.readouterr().out
