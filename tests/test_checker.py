"""``report`` and ``roundtrip`` outputs, checked by the benchmark's
independent checker on shapes its corpora never draw.

``bench/check.py`` evaluates every value numerically with ``fractions`` and
``mpmath`` and never imports the program; it is loaded here by path and
only read.  The seeded draws have dense coefficients (two or three terms)
at orders 5, 7, 8, 9 and 12, ramification indices p_l up to 12, pole
orders up to 8 and zero constant terms, with three kinds of coinciding
copies: an exact twin branch, which breaks separation; a branch that
repeats a polar part with another constant term, so one factor spans two
branches; and a branch whose polar exponents share a factor d with p_l, so
its own copies share factors.
"""

import cmath
import importlib.util
import json
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from expdirect.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "bench_check", Path(__file__).resolve().parent.parent / "bench" / "check.py")
check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check)

# The point at which the checker evaluates charpolys.
Z0 = 0.6 + 0.35j
TRUNCATION = 8


def _value(rng: random.Random, n: int, dense: bool) -> dict:
    """A nonzero value of Q(zeta_n): two or three terms when ``dense``,
    else one term."""
    while True:
        coeffs = {e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
                  for e in rng.sample(range(n), rng.choice((2, 3)) if dense else 1)}
        if abs(sum(float(c) * cmath.exp(2j * cmath.pi * e / n)
                   for e, c in coeffs.items())) > 1e-9:
            return {"order": n, "coeffs": {str(e): str(c) for e, c in coeffs.items()}}


def _terms(terms: dict) -> dict:
    return {"terms": {str(e): v for e, v in sorted(terms.items())}}


def _monic(rng: random.Random, degree: int, n: int) -> list:
    return [_value(rng, n, False) if rng.random() < 0.5 else str(rng.randint(-2, 2))
            for _ in range(degree)] + ["1"]


# One problem per draw: its branches as (p_l, q, d), with pole order q*d and
# polar exponents divisible by d, the order of its coefficients, and the
# twin: "exact" appends a copy of the first branch, "repeat" one with the
# first branch's polar part and another constant term.
REPORT_SHAPES = [
    ([(12, 1, 1)], 5, None),
    ([(5, 2, 1), (1, 1, 1)], 7, None),
    ([(4, 2, 2), (1, 3, 1)], 8, None),
    ([(3, 2, 1)], 9, "exact"),
    ([(2, 3, 1), (1, 2, 1)], 12, "repeat"),
    ([(1, 8, 1)], 5, "repeat"),
    ([(6, 1, 3), (2, 2, 1)], 12, None),
    ([(8, 1, 1), (1, 1, 1)], 8, "exact"),
    ([(1, 7, 1), (7, 1, 1)], 7, None),
    ([(9, 1, 1), (3, 1, 3)], 9, None),
    ([(12, 1, 2), (4, 2, 1)], 5, "repeat"),
    ([(2, 4, 2), (1, 5, 1)], 9, "exact"),
]


def _problem(rng: random.Random, shape, n: int, twin) -> dict:
    branches = []
    for idx, (p, q, d) in enumerate(shape):
        alpha = {-q * d: _value(rng, n, True)}
        for e in rng.sample(range(1, q), (q - 1) // 2):
            alpha[-e * d] = _value(rng, n, rng.random() < 0.7)
        delta = {e: str(rng.choice((-2, -1, 1, 2)))
                 for e in rng.sample(range(1, TRUNCATION + 1), 2)}
        const = rng.choice((0, 0, -2, -1, 1, 2))
        if const:
            delta[0] = str(const)
        m = 1 + idx % 2
        branches.append({"label": f"l{idx + 1}", "p": p, "q": q * d, "m": m,
                         "alpha": _terms(alpha), "delta": _terms(delta),
                         "zeta": _monic(rng, m, n)})
    first = branches[0]
    if twin == "exact":
        branches.append({**first, "label": "twin"})
    elif twin == "repeat":
        delta = dict(first["delta"]["terms"])
        delta["0"] = str(Fraction(delta.get("0", "0")) + 1)
        branches.append({**first, "label": "twin", "m": 3, "zeta": _monic(rng, 3, n),
                         "delta": {"terms": delta}})
    return {"points": [{"c": "0", "k": 0, "branches": branches}],
            "options": {"truncation": TRUNCATION}}


def _spec(rng: random.Random, p: int, orbits, n: int) -> dict:
    """An orbit-closed spec at ramification p: per orbit (q, d), a polar
    part of pole order q*d with exponents divisible by d, d | p, and every
    distinct twist of it.  The leading coefficients are one term each, of
    pairwise distinct absolute value, so no two orbits meet; the others
    are dense."""
    order = lcm(n, p)
    summands = []
    for j, ((q, d), mag) in enumerate(zip(orbits, rng.sample(range(1, 9), len(orbits)))):
        base = {-q * d: {rng.randrange(n): Fraction(mag)}}
        for e in rng.sample(range(1, q), (q - 1) // 2 + 1 if q > 1 else 0):
            base[-e * d] = {int(k): Fraction(c) for k, c in
                            _value(rng, n, True)["coeffs"].items()}
        rank = 1 + j % 3
        charpoly = _monic(rng, rank, n)
        g = p
        for e in base:
            g = gcd(g, e)
        for i in range(p // g):
            # alpha(zeta_p^i t): each term c*zeta_n^k gains zeta_p^(i*e).
            summands.append({"alpha": _terms({e: {"order": order, "coeffs": {
                str(k * (order // n) + i * e * (order // p)): str(c)
                for k, c in cs.items()}} for e, cs in base.items()}),
                "rank": rank, "charpoly": charpoly})
    rng.shuffle(summands)
    return {"p": p, "summands": summands, "regular_rank": rng.randint(0, 2)}


ROUNDTRIP_SHAPES = [
    (12, [(1, 1)], 5),
    (7, [(2, 1)], 7),
    (8, [(3, 1), (1, 2)], 8),
    (9, [(2, 3)], 9),
    (12, [(2, 2), (1, 3)], 12),
    (6, [(4, 1), (2, 3)], 8),
    (10, [(1, 5), (3, 1)], 5),
    (1, [(8, 1)], 12),
]


def _run(tmp_path, command: str, doc: dict):
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))
    code = main([command, "--input", str(src), "--output", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("index", range(len(REPORT_SHAPES)))
def test_report_passes_the_independent_checker(tmp_path, index):
    shape, n, twin = REPORT_SHAPES[index]
    rng = random.Random(f"report/{index}")
    for _ in range(4):
        problem = _problem(rng, shape, n, twin)
        code, report = _run(tmp_path, "report", problem)
        assert check.check_report(problem, report, code, True, Z0) == []
        # The draw has the shape it was drawn for; copies of one branch that
        # share a polar part share its constant term, so break separation.
        dec = report["points"][0]["decomposition"]
        shared = any(d > 1 for _, _, d in shape)
        assert dec["star"] is (twin != "exact" and not shared)
        assert any(f["rank_diverges"] for f in dec["factors"]) is shared
        spans = [{label for label, _ in f["members"]} for f in dec["factors"]]
        assert ({"l1", "twin"} in spans) is (twin is not None)


@pytest.mark.parametrize("index", range(len(ROUNDTRIP_SHAPES)))
def test_roundtrip_passes_the_independent_checker(tmp_path, index):
    rng = random.Random(f"roundtrip/{index}")
    for _ in range(4):
        spec = _spec(rng, *ROUNDTRIP_SHAPES[index])
        code, out = _run(tmp_path, "roundtrip", spec)
        assert check.check_roundtrip(spec, out, code) == []
