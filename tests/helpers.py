"""Shared generators and independent numeric oracles for the test suite."""

import random
from fractions import Fraction
from math import comb, gcd

import mpmath

from expdirect.branch import Branch
from expdirect.cyclotomic import CycloNum, CycloPoly, totient
from expdirect.laurent import LaurentPoly
from expdirect.serialize import cyclopoly_to_json, laurent_to_json


def root(n: int, k: int) -> CycloNum:
    """zeta_n^k."""
    return CycloNum(n, {k: 1})


def unipotent(m: int) -> CycloPoly:
    """(x - 1)^m, the charpoly of a unipotent monodromy of rank m."""
    return CycloPoly([(-1) ** (m - k) * comb(m, k) for k in range(m + 1)])


def numeric(a: CycloNum, dps: int = 40) -> mpmath.mpc:
    """Numeric value of a cyclotomic number, independent of the package."""
    with mpmath.workdps(dps):
        if not a.coeffs:
            return mpmath.mpc(0)
        zeta = mpmath.exp(2j * mpmath.pi / a.order)
        return mpmath.fsum(
            [mpmath.mpf(c.numerator) / c.denominator * zeta**e
             for e, c in sorted(a.coeffs.items())],
            absolute=False,
        )


def numeric_laurent(f: LaurentPoly, t: complex, dps: int = 40):
    with mpmath.workdps(dps):
        tt = mpmath.mpc(t)
        return mpmath.fsum([numeric(c, dps) * tt**e
                            for e, c in sorted(f.terms.items())]) \
            if f.terms else mpmath.mpc(0)


def rand_cyclo(rng: random.Random, max_order: int = 12, max_num: int = 9) -> CycloNum:
    order = rng.randint(1, max_order)
    coeffs = {}
    for e in range(totient(order)):
        if rng.random() < 0.5:
            coeffs[e] = Fraction(rng.randint(-max_num, max_num),
                                 rng.randint(1, max_num))
    return CycloNum(order, coeffs)


def laurent_sum(*fs: LaurentPoly) -> LaurentPoly:
    """The sum of Laurent polynomials, term by term."""
    out = {}
    for f in fs:
        for e, c in f.terms.items():
            out[e] = out[e] + c if e in out else c
    return LaurentPoly(out)


def rand_root(rng: random.Random, max_order: int = 8) -> CycloNum:
    n = rng.randint(1, max_order)
    return root(n, rng.randint(0, n - 1))


def rand_laurent(rng: random.Random, lo=-6, hi=4) -> LaurentPoly:
    terms = {}
    for e in range(lo, hi + 1):
        if rng.random() < 0.4:
            terms[e] = Fraction(rng.randint(-5, 5))
    return LaurentPoly(terms)


def rand_monic(rng: random.Random, degree: int, max_order: int = 6) -> CycloPoly:
    """Random monic polynomial with small cyclotomic coefficients."""
    coeffs = []
    for _ in range(degree):
        if rng.random() < 0.5:
            n = rng.randint(1, max_order)
            coeffs.append(CycloNum(n, {rng.randint(0, n - 1): rng.randint(-2, 2)}))
        else:
            coeffs.append(CycloNum.from_rational(rng.randint(-3, 3)))
    return CycloPoly(coeffs + [1])


def mk(label="l", p=1, q=1, alpha=None, delta=None, m=1, zeta=None):
    """Small hand-built branch with sane defaults."""
    alpha = alpha if alpha is not None else LaurentPoly({-q: 1})
    delta = delta if delta is not None else LaurentPoly.zero()
    zeta = zeta if zeta is not None else unipotent(m)
    return Branch(label, p, q, alpha, delta, m, zeta)


def rand_polar(rng: random.Random, q: int, max_order: int = 8,
               cyclo_coeffs: bool = False) -> LaurentPoly:
    """Random purely polar part with pole order exactly q."""
    def coeff(nonzero=False):
        if cyclo_coeffs and rng.random() < 0.5:
            c = rand_root(rng, max_order) * Fraction(rng.randint(1, 3))
            return c
        lo = 1 if nonzero else -4
        n = rng.randint(lo, 4) if not nonzero else rng.randint(1, 4)
        return Fraction(n)

    terms = {-q: coeff(nonzero=True)}
    for e in range(-q + 1, 0):
        if rng.random() < 0.35:
            c = coeff()
            if not (isinstance(c, Fraction) and c == 0):
                terms[e] = c
    return LaurentPoly(terms)


def rand_branch(rng: random.Random, label: str, max_p=4, max_q=6, max_m=3,
                trunc=8, cyclo_coeffs=False) -> Branch:
    p = rng.randint(1, max_p)
    q = rng.randint(1, max_q)
    m = rng.randint(1, max_m)
    alpha = rand_polar(rng, q, cyclo_coeffs=cyclo_coeffs)
    delta = {}
    for e in range(0, trunc + 1):
        if rng.random() < 0.2:
            delta[e] = Fraction(rng.randint(-3, 3))
    zeta = rand_monic(rng, m)
    return Branch(label, p, q, alpha, LaurentPoly(delta), m, zeta)


def worked_example_branches():
    """The frozen two-branch golden instance used across the suite."""
    return [
        Branch("l1", 1, 1, LaurentPoly({-1: 1}), LaurentPoly.zero(), 2,
               CycloPoly([1, -2, 1])),
        Branch("l2", 2, 3, LaurentPoly({-3: 1}), LaurentPoly.zero(), 1,
               CycloPoly([1, 1])),
    ]


def spec_doc(spec) -> dict:
    """The ``roundtrip`` input document of a FormalModuleSpec."""
    return {"p": spec.p, "regular_rank": spec.regular_rank, "summands": [
        {"alpha": laurent_to_json(s.alpha), "rank": s.rank,
         "charpoly": cyclopoly_to_json(s.charpoly)} for s in spec.summands]}


def map_values(doc, leaf):
    """The JSON document with each cyclotomic value ``{"order", "coeffs"}``
    replaced by ``leaf(order, {exponent: coefficient})``."""
    if isinstance(doc, dict):
        if set(doc) == {"order", "coeffs"}:
            return leaf(doc["order"], {int(e): c for e, c in doc["coeffs"].items()})
        return {key: map_values(v, leaf) for key, v in doc.items()}
    if isinstance(doc, list):
        return [map_values(v, leaf) for v in doc]
    return doc


def value_orders(doc) -> list[int]:
    """The order of each cyclotomic value in the JSON document."""
    orders = []
    map_values(doc, lambda n, coeffs: orders.append(n))
    return orders


def conjugated_input(doc, k):
    """The input document with sigma_k applied by multiplying every exponent
    by k, which the parsers accept at any order."""
    return map_values(doc, lambda n, coeffs: {
        "order": n, "coeffs": {str(k * e): c for e, c in coeffs.items()}})


def conjugated_values(doc, k):
    """The document with sigma_k: zeta_N -> zeta_N^k applied to each value,
    read through the public constructor."""
    return map_values(doc, lambda n, coeffs: CycloNum(
        n, {k * e: Fraction(c) for e, c in coeffs.items()}))


def galois_ks(n):
    """Every k below 2n coprime to n: sigma_k and sigma_(k+n) agree on
    Q(zeta_n), so the second lap checks that exponents past n reduce."""
    return [k for k in range(1, 2 * n) if gcd(k, n) == 1]
