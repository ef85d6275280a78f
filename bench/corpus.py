"""Seeded problem and spec files for the benchmark workloads.

Every input is drawn from ``random.Random(f"{workload}/{seed}")``, so one
seed gives one corpus.  A corpus is a list of *blocks*; every block of a
workload has the same make-up (the same list of shapes: branch counts,
ramification indices, pole orders, coefficient orders), and only the
coefficient values and the positions of the lower-order terms are drawn at
random; term counts, multiplicities and ranks are fixed by the shape.  A
run executes whole blocks, so the share of each shape in a run does not
depend on the seed or on how many blocks fit in the run.

A cyclotomic value is written as ``(order, {exponent: Fraction})``, the sum
of ``c * zeta_order^exponent``; exponents need not be reduced, the program
reduces them.  The checker evaluates the same tuples numerically.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

WORKLOADS = ("report-oracle", "report-no-oracle", "roundtrip")

TRUNCATION = 8


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cyclo_json(v) -> dict:
    order, coeffs = v
    return {"order": order,
            "coeffs": {str(k): _rat(c) for k, c in sorted(coeffs.items()) if c}}


def laurent_json(terms: dict) -> dict:
    return {"terms": {str(e): cyclo_json(v) for e, v in sorted(terms.items())}}


def _root(rng: random.Random, n: int) -> int:
    """Exponent of a random primitive n-th root of unity."""
    return rng.choice([k for k in range(n) if gcd(k, n) == 1])


def _unit(rng: random.Random, n: int, hi: int = 2):
    """A nonzero integer of size at most ``hi`` times a random primitive n-th
    root of unity."""
    return (n, {_root(rng, n): Fraction(rng.choice((-1, 1)) * rng.randint(1, hi))})


def _polar(rng: random.Random, q: int, n: int) -> dict:
    """Purely polar part of pole order exactly q, coefficients in Q(zeta_n),
    with (q - 1) // 2 terms besides the leading one.  The leading coefficient
    is a root of unity up to sign, so the series the oracle inverts keep
    coefficients of bounded height."""
    terms = {-q: _unit(rng, n, 1)}
    for e in rng.sample(range(-q + 1, 0), (q - 1) // 2):
        terms[e] = _unit(rng, n)
    return terms


def _holomorphic(rng: random.Random, const: int) -> dict:
    """Holomorphic part with the given constant term and two more terms."""
    terms = {0: (1, {0: Fraction(const)})} if const else {}
    for e in rng.sample(range(1, TRUNCATION + 1), 2):
        terms[e] = (1, {0: Fraction(rng.choice((-2, -1, 1, 2)))})
    return terms


def _monic(rng: random.Random, degree: int, n: int) -> list:
    """Monic polynomial, constant term first; even-degree coefficients are
    in Q(zeta_n), odd-degree ones are nonzero integers."""
    coeffs = []
    for j in range(degree):
        if n > 1 and j % 2 == 0:
            coeffs.append(_unit(rng, n))
        else:
            coeffs.append((1, {0: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))}))
    return coeffs + [(1, {0: Fraction(1)})]


def report_problem(rng: random.Random, shape) -> dict:
    """One point with branches of the given (p_l, q_l) list.

    ``shape`` is ``(pairs, n, repeat)``: the (p, q) of every branch, the
    order of the roots of unity in the polar coefficients, and whether the
    last branch repeats the first branch's polar part with another
    holomorphic part (the two then have the same (p, q)).
    """
    pairs, n, repeat = shape
    consts = rng.sample(range(-6, 7), len(pairs))
    branches = []
    for idx, (p, q) in enumerate(pairs):
        m = 1 + idx % 3
        alpha = branches[0]["alpha"] if repeat and idx == len(pairs) - 1 \
            else laurent_json(_polar(rng, q, n))
        branches.append({"label": f"l{idx + 1}", "p": p, "q": q, "m": m,
                         "alpha": alpha,
                         "delta": laurent_json(_holomorphic(rng, consts[idx])),
                         "zeta": [cyclo_json(c) for c in _monic(rng, m, n)]})
    return {"points": [{"c": "0", "k": 0, "branches": branches}],
            "options": {"truncation": TRUNCATION}}


def roundtrip_spec(rng: random.Random, shape) -> dict:
    """An orbit-closed formal spec: every twist of every orbit is listed.

    ``shape`` is ``(p, [(q, d), ...], n)``: ramification p, and per orbit
    the pole order q and a divisor d of p such that all exponents are
    multiples of d (a non-primitive orbit, of size at most p/d).  Orbits have
    leading coefficients of pairwise distinct absolute value, so no two
    orbits meet.
    """
    p, orbits, n = shape
    magnitudes = rng.sample(range(1, 9), len(orbits))
    summands = []
    order = lcm(n, p)
    for j, ((q, d), mag) in enumerate(zip(orbits, magnitudes)):
        base = {-q * d: (n, {_root(rng, n): Fraction(mag)})}
        for e in rng.sample(range(-q + 1, 0), (q - 1) // 2):
            base[e * d] = _unit(rng, n)
        rank = 1 + j % 3
        charpoly = [cyclo_json(c) for c in _monic(rng, rank, n)]
        g = p
        for e in base:
            g = gcd(g, e)
        for i in range(p // g):
            # alpha(xi^i t) with xi = zeta_p: c*zeta_n^k becomes
            # c*zeta_n^k*zeta_p^(i*e), written at order lcm(n, p).
            twisted = {}
            for e, (_, cs) in base.items():
                (k, c), = cs.items()
                twisted[e] = (order, {k * (order // n) + i * e * (order // p): c})
            summands.append({"alpha": laurent_json(twisted), "rank": rank,
                             "charpoly": charpoly})
    rng.shuffle(summands)
    return {"p": p, "summands": summands, "regular_rank": rng.randint(0, 2)}


# Block make-up per workload: one entry per problem of a block.
# report-oracle: 1-5 branches, p_l <= 3 with lcm(p_l) <= 6, roots of unity
# of order 3, 4 or 6; 4 problems in 21 repeat a polar part.  Costs spread
# from a few ms to about half a second; five shapes cost within about 20% of
# the median and the 90th percentile falls between two shapes of like cost,
# so neither percentile sits in a gap between shapes.  Shapes whose cost
# swings widely with the seed are left out.
ORACLE_BLOCK = [
    ([(1, 2)], 4, False),
    ([(2, 2)], 3, False),
    ([(1, 2), (1, 2)], 4, True),
    ([(1, 1), (2, 3)], 3, False),
    ([(2, 1), (1, 3)], 6, False),
    ([(2, 3), (3, 2)], 4, False),
    ([(1, 1), (2, 2), (1, 1)], 4, False),
    ([(2, 2), (1, 1), (2, 2)], 3, True),
    ([(3, 2), (1, 3)], 4, False),
    ([(2, 2), (3, 1), (1, 2)], 4, False),
    ([(3, 3), (2, 2), (1, 1)], 6, False),
    ([(1, 2), (1, 1), (2, 1), (1, 3)], 3, False),
    ([(2, 3), (1, 2), (3, 1), (2, 3)], 4, True),
    ([(1, 1), (1, 2), (1, 3), (1, 1), (1, 2)], 6, False),
    ([(1, 4), (2, 3), (3, 2), (1, 1), (2, 1)], 3, False),
    ([(2, 1), (3, 2), (1, 3)], 4, False),
    ([(3, 2), (2, 1), (1, 2), (3, 2)], 4, True),
    ([(2, 1), (3, 1), (1, 1), (2, 2), (1, 1)], 6, False),
    ([(1, 2), (1, 1), (2, 1), (1, 3)], 4, False),
    ([(1, 2), (2, 1), (1, 3)], 4, False),
    ([(2, 3), (1, 1), (2, 2)], 6, False),
]

# report-no-oracle: up to 12 branches, p_l up to 6 (lcm up to 60).
NO_ORACLE_BLOCK = [
    ([(1, 3), (2, 5)], 4, False),
    ([(2, 3), (3, 2), (1, 4)], 3, False),
    ([(4, 3), (6, 5), (1, 2), (4, 3)], 4, True),
    ([(5, 2), (3, 4), (1, 1), (2, 3), (1, 5)], 3, False),
    ([(6, 1), (4, 5), (3, 2), (2, 3), (1, 1), (6, 5)], 4, False),
    ([(1, 2), (2, 2), (3, 1), (1, 4), (2, 5), (3, 3), (6, 1), (1, 2)], 6, True),
    ([(5, 3), (2, 1), (3, 2), (1, 4), (4, 1), (1, 2), (2, 5), (6, 5), (3, 4),
      (1, 1)], 3, False),
    ([(2, 3), (3, 1), (1, 2), (6, 1), (2, 5), (1, 3), (3, 5), (2, 1), (1, 1),
      (4, 3), (1, 4), (2, 3)], 4, True),
]

# roundtrip: p <= 6, one to three orbits, pole order <= 6.
ROUNDTRIP_BLOCK = [
    (1, [(3, 1)], 4),
    (2, [(3, 1)], 3),
    (3, [(2, 1), (4, 3)], 4),
    (4, [(3, 1), (1, 2)], 3),
    (5, [(6, 1)], 4),
    (6, [(5, 1), (2, 3), (1, 6)], 3),
    (6, [(1, 1), (3, 2)], 4),
    (4, [(5, 1), (3, 2), (2, 4)], 6),
]

BLOCKS = {
    "report-oracle": ORACLE_BLOCK,
    "report-no-oracle": NO_ORACLE_BLOCK,
    "roundtrip": ROUNDTRIP_BLOCK,
}


SUBCOMMANDS = {
    "report-oracle": ["report", "--oracle", "on"],
    "report-no-oracle": ["report", "--oracle", "off"],
    "roundtrip": ["roundtrip"],
}


def make_problem(workload: str, rng: random.Random, shape) -> dict:
    if workload == "roundtrip":
        return roundtrip_spec(rng, shape)
    return report_problem(rng, shape)


def write_corpus(workload: str, seed: int, blocks: int, directory: Path,
                 block=None) -> list[list[Path]]:
    """Write ``blocks`` blocks of input files; returns their paths by block."""
    rng = random.Random(f"{workload}/{seed}")
    shapes = BLOCKS[workload] if block is None else block
    out = []
    for b in range(blocks):
        paths = []
        for i, shape in enumerate(shapes):
            path = directory / f"in-{b:03d}-{i:02d}.json"
            path.write_text(json.dumps(make_problem(workload, rng, shape)))
            paths.append(path)
        out.append(paths)
    return out
