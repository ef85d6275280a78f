"""Independent checks of the program's outputs.

Only ``fractions`` and ``mpmath`` are used: every cyclotomic value, of the
generated inputs and of the parsed reports alike, is evaluated as a complex
number at 40 digits, and two values agree when they differ by at most
1e-30 (relative to their size when that exceeds 1).  Nothing here imports
the program, so no check rests on its equality of cyclotomic numbers.

Each ``check_*`` function returns a list of messages; an empty list means
the output is correct.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

import mpmath

DPS = 40
TOL = mpmath.mpf("1e-30")


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


class Numeric:
    """Numeric values of exact data, with the roots of unity cached."""

    def __init__(self):
        self._roots = {}

    def root(self, n: int, k: int):
        k %= n
        z = self._roots.get((n, k))
        if z is None:
            z = self._roots[(n, k)] = mpmath.expjpi(mpmath.mpf(2 * k) / n)
        return z

    def cyclo(self, data):
        """``{"order", "coeffs"}``, ``[order, coeffs]`` or a bare rational."""
        if isinstance(data, (int, str)):
            return mpmath.mpc(_mpf(Fraction(data)))
        order, coeffs = (data["order"], data["coeffs"]) if isinstance(data, dict) \
            else data
        return mpmath.fsum(_mpf(Fraction(c)) * self.root(order, int(k))
                           for k, c in coeffs.items()) if coeffs else mpmath.mpc(0)

    def laurent(self, data) -> dict:
        return {int(e): self.cyclo(c) for e, c in data["terms"].items()}

    def poly(self, coeffs, z):
        acc = mpmath.mpc(0)
        for c in reversed(coeffs):
            acc = acc * z + self.cyclo(c)
        return acc


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def close(a, b) -> bool:
    return abs(a - b) <= TOL * max(1, abs(a), abs(b))


def same_terms(f: dict, g: dict) -> bool:
    f = {e: c for e, c in f.items() if abs(c) > TOL}
    g = {e: c for e, c in g.items() if abs(c) > TOL}
    return f.keys() == g.keys() and all(close(c, g[e]) for e, c in f.items())


def _expected_edges(branches):
    merged = {}
    for b in branches:
        s = Fraction(b["q"], b["p"])
        w, h = merged.get(s, (0, 0))
        merged[s] = (w + b["m"] * b["p"], h + b["m"] * b["q"])
    return [(Fraction(w), Fraction(h)) for _, (w, h) in sorted(merged.items())]


def check_report(problem: dict, report: dict, code: int, oracle: bool,
                 z0: complex) -> list[str]:
    with mpmath.workdps(DPS):
        try:
            return _check_report(problem, report, code, oracle, mpmath.mpc(z0))
        except (KeyError, TypeError, ValueError, IndexError) as err:
            return [f"malformed report: {err!r}"]


def _check_report(problem, report, code, oracle, z0) -> list[str]:
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    (point,) = problem["points"]
    (rpt,) = report["points"]
    branches = point["branches"]
    if (rpt["c"], rpt["k"]) != (point["c"], point["k"]):
        errors.append("point label mismatch")

    # Newton polygon, slopes, irregularity.
    edges = [(Fraction(wn, wd), Fraction(hn, hd))
             for wn, wd, hn, hd in rpt["newton_polygon"]["edges"]]
    if edges != _expected_edges(branches):
        errors.append(f"polygon edges {edges}")
    slopes = sorted({Fraction(b["q"], b["p"]) for b in branches})
    if [Fraction(s) for s in rpt["slopes"]] != slopes:
        errors.append(f"slopes {rpt['slopes']}")
    irr = sum(b["m"] * b["q"] for b in branches)
    if Fraction(rpt["irregularity"]) != irr:
        errors.append(f"irregularity {rpt['irregularity']} != {irr}")

    # Decomposition.
    num = Numeric()
    dec = rpt["decomposition"]
    p = 1
    for b in branches:
        p = _lcm(p, b["p"])
    if dec["p"] != p:
        errors.append(f"ramification {dec['p']} != {p}")
    copies, shifted, zetas, mult = {}, {}, {}, {}
    for b in branches:
        alpha = num.laurent(b["alpha"])
        delta0 = num.laurent(b["delta"]).get(0, mpmath.mpc(0))
        k = p // b["p"]
        zetas[b["label"]] = num.poly(b["zeta"], z0)
        mult[b["label"]] = b["m"]
        for i in range(1, b["p"] + 1):
            terms = {e * k: c * num.root(b["p"], i * e) for e, c in alpha.items()}
            copies[(b["label"], i)] = terms
            shifted[(b["label"], i)] = {**terms, 0: delta0}
    factors = dec["factors"]
    seen = [tuple(m) for f in factors for m in f["members"]]
    if sorted(seen) != sorted(copies) or len(seen) != len(set(seen)):
        errors.append("factor members do not partition the unramified copies")
        return errors
    alphas = [num.laurent(f["alpha"]) for f in factors]
    for f, fa in zip(factors, alphas):
        members = [tuple(m) for m in f["members"]]
        for m in members:
            if not same_terms(fa, copies[m]):
                errors.append(f"factor polar part differs from copy {m}")
        labels = {m[0] for m in members}
        if f["rank_branchwise"] != sum(mult[m[0]] for m in members):
            errors.append(f"rank_branchwise {f['rank_branchwise']}")
        if f["rank_distinct"] != sum(mult[lbl] for lbl in labels):
            errors.append(f"rank_distinct {f['rank_distinct']}")
        if f["rank_diverges"] != (len(labels) != len(members)):
            errors.append("rank_diverges flag")
        if f["pole_order"] != -min(fa):
            errors.append(f"pole order {f['pole_order']}")
    for i in range(len(alphas)):
        for j in range(i + 1, len(alphas)):
            if same_terms(alphas[i], alphas[j]):
                errors.append(f"factors {i} and {j} have equal polar parts")
    if sum(f["rank_branchwise"] * f["pole_order"] for f in factors) != p * irr:
        errors.append("sum of rank * pole order != p * irregularity")
    if sum(f["rank_branchwise"] for f in factors) != \
            sum(b["p"] * b["m"] for b in branches):
        errors.append("sum of ranks != sum of p_l * m_l")

    # Separation condition and monodromy.
    keys = list(shifted)
    star = not any(same_terms(shifted[keys[i]], shifted[keys[j]])
                   for i in range(len(keys)) for j in range(i + 1, len(keys)))
    if dec["star"] != star:
        errors.append(f"star {dec['star']} != {star}")
    for f in factors:
        members = [tuple(m) for m in f["members"]]
        if not star:
            if "charpoly" in f:
                errors.append("charpoly given without the separation condition")
            continue
        cp = f.get("charpoly")
        if cp is None or len(cp) - 1 != f["rank_branchwise"]:
            errors.append("charpoly missing or of the wrong degree")
            continue
        want = mpmath.fprod(zetas[m[0]] for m in members)
        if not close(num.poly(cp, z0), want):
            errors.append(f"charpoly value at the check point, factor {members}")
        distinct = f.get("charpoly_distinct")
        if f["rank_diverges"]:
            want = mpmath.fprod(zetas[lbl] for lbl in {m[0] for m in members})
            if distinct is None or not close(num.poly(distinct, z0), want):
                errors.append("charpoly_distinct missing or wrong")
        elif distinct is not None:
            errors.append("charpoly_distinct given without divergence")

    # Blow-up oracle.
    if not oracle:
        if "oracle" in rpt:
            errors.append("oracle section with the oracle off")
        return errors
    if rpt.get("consistent") is not True:
        errors.append("report not consistent")
    reports = rpt.get("oracle", [])
    if len(reports) != len(factors):
        errors.append("oracle reports do not match the factors")
        return errors
    for f, o in zip(factors, reports):
        members = sorted(f"{lbl}#{i}" for lbl, i in f["members"])
        if not (o["consistent"] and o["membership_agrees"] and o["star_agrees"]):
            errors.append(f"oracle disagrees on factor {members}")
        if o["alpha"] != f["alpha"]:
            errors.append("oracle factor order differs")
        if sorted(o["members_by_blowup"]) != members:
            errors.append(f"blow-up members {o['members_by_blowup']} != {members}")
        if sorted(o["members_by_polar"]) != members:
            errors.append(f"polar members {o['members_by_polar']} != {members}")
        pts = [num.cyclo(pt["point"]) for pt in o["points"]]
        distinct_pts = not any(close(pts[i], pts[j]) for i in range(len(pts))
                               for j in range(i + 1, len(pts)))
        if o["star_by_blowup"] != distinct_pts:
            errors.append("star_by_blowup does not match the meeting points")
    return errors


def check_roundtrip(spec: dict, out: dict, code: int) -> list[str]:
    with mpmath.workdps(DPS):
        try:
            return _check_roundtrip(spec, out, code)
        except (KeyError, TypeError, ValueError, IndexError) as err:
            return [f"malformed round trip: {err!r}"]


def _check_roundtrip(spec, out, code) -> list[str]:
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    if out["ok"] is not True or out["missing"] or out["extra"] or out["conflicts"]:
        errors.append("round trip not ok")
    num = Numeric()
    p = spec["p"]
    summands = [(num.laurent(s["alpha"]), s["rank"]) for s in spec["summands"]]
    orbit_union = []
    for alpha, _ in summands:
        for i in range(p):
            twist = {e: c * num.root(p, i * e) for e, c in alpha.items()}
            if not any(same_terms(twist, t) for t in orbit_union):
                orbit_union.append(twist)
    dec = out["decomposition"]
    factors = dec["factors"]
    if len(factors) != len(orbit_union):
        errors.append(f"{len(factors)} factors, orbit closure has {len(orbit_union)}")
    if len(out["matched"]) != len(orbit_union):
        errors.append(f"{len(out['matched'])} matched of {len(orbit_union)}")
    if p % dec["p"]:
        errors.append(f"computed ramification {dec['p']} does not divide {p}")
        return errors
    scale = p // dec["p"]
    used = set()
    for f in factors:
        fa = {e * scale: c for e, c in num.laurent(f["alpha"]).items()}
        hit = [i for i, (alpha, _) in enumerate(summands) if same_terms(fa, alpha)]
        if len(hit) != 1 or hit[0] in used:
            errors.append("factor does not match exactly one summand")
            continue
        used.add(hit[0])
        if f["rank_branchwise"] != summands[hit[0]][1]:
            errors.append("factor rank differs from its summand")
    return errors


def check_kernel(entry: dict) -> list[str]:
    """Kernel results against numeric sums, products and inverses."""
    num = Numeric()
    kind = entry["kind"]
    with mpmath.workdps(DPS + _digits(entry)):
        if kind == "cyclo":
            a, b = num.cyclo(entry["a"]), num.cyclo(entry["b"])
            bad = [name for name, got, want in (
                ("sum", num.cyclo(entry["sum"]), a + b),
                ("prod", num.cyclo(entry["prod"]), a * b),
                ("a*inv(a)", a * num.cyclo(entry["inv"]), 1))
                if not close(got, want)]
            return [f"order {entry['order']}: {name}" for name in bad]
        f = {k: num.cyclo(c) for k, c in entry["f"].items()}
        g = {k: num.cyclo(c) for k, c in entry["g"].items()}
        got = {k: num.cyclo(c) for k, c in entry["prod"].items()}
        want = {}
        for kf, cf in f.items():
            for kg, cg in g.items():
                k = _add_keys(kf, kg)
                want[k] = want.get(k, 0) + cf * cg
        return [] if same_terms(got, want) else [f"{kind} product"]


def _add_keys(a: str, b: str) -> str:
    return ",".join(str(int(x) + int(y)) for x, y in zip(a.split(","), b.split(",")))


def _digits(entry: dict) -> int:
    """Working digits to add for power-basis coordinates of large height."""
    return 10 + max(len(run) for run in re.findall(r"\d+", json.dumps(entry)))
