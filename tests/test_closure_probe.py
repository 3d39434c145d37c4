"""Closure soundness beyond the oracle subclass: membership in cl(S) at a
limit point is equivalent to cofinality of S below it, which can be probed
directly because cofinal approach happens inside the final w^e-segment."""
import random

from ordrank import ordinal as o
from ordrank.ordinal import W, ZERO, add, from_int, mul, omega_power
from ordrank.patterns import holds_at
from ordrank.space import SpaceDesc, base_topology, closure, member

from test_space import rich_pattern


def probe_cofinal(p, x, probes=220) -> bool:
    """Does p accumulate at the limit x?  Approach through the final
    w^e-segment: x = prefix + w^e, tails prefix + z for z < w^e."""
    e = x.min_exp()
    prefix_terms = list(x.terms)
    le, lc = prefix_terms[-1]
    prefix = o.Ordinal(tuple(prefix_terms[:-1] + ([(le, lc - 1)] if lc > 1 else [])))
    rng = random.Random(hash(x.terms) & 0xFFFF)
    # sample tails z < w^e high in every stratum: z = w^(e-1)*c + lower
    found_beyond = 0
    for trial in range(probes):
        c = rng.randint(trial, trial + 60)  # march upward to force cofinality
        lower = ZERO
        if e >= 2 and rng.random() < 0.5:
            lower = o.Ordinal(((rng.randint(0, e - 2), rng.randint(1, 6)),)) \
                if rng.random() < 0.7 else from_int(rng.randint(0, 8))
        z = o.add(o.omega_power(e - 1, c) if c else ZERO, lower)
        y = o.add(prefix, z)
        if o.compare(y, x) < 0 and holds_at(p, y) and c >= trial:
            found_beyond += 1
    return found_beyond >= 6


def test_closure_matches_cofinality_probing():
    rng = random.Random(31415)
    spaces = [SpaceDesc(omega_power(3)), SpaceDesc(add(omega_power(2), 1)),
              SpaceDesc(mul(omega_power(2), 3)), SpaceDesc(None)]
    limit_points = [W, mul(W, 2), add(mul(W, 5), 0), omega_power(2),
                    add(omega_power(2), W), mul(omega_power(2), 2),
                    add(mul(omega_power(2), 2), mul(W, 3))]
    checked = 0
    for i in range(160):
        space = spaces[i % len(spaces)]
        t = base_topology(space)
        p = rich_pattern(rng)
        cl = closure(p, t)
        for x in limit_points:
            if not space.contains(x):
                continue
            sym = member(cl, x, t)
            if holds_at(p, x):
                assert sym
                continue
            probed = probe_cofinal(p, x)
            if probed:
                assert sym, (p, x)
            # probing is one-sided: a miss does not prove non-accumulation,
            # but a symbolic "no" with a probed "yes" is a genuine bug
            if not sym:
                assert not probed, (p, x)
            checked += 1
    assert checked > 300
