"""Field arithmetic in Q(zeta_N): examples, axioms, numeric agreement."""

import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from expdirect.cyclotomic import (
    CycloNum,
    CycloPoly,
    IncompatibleOrderError,
    PolyFraction,
    cyclotomic_polynomial,
    root_of_unity,
    totient,
)


def numeric(a: CycloNum, dps: int = 40) -> mpmath.mpc:
    """Independent numeric value of a cyclotomic number."""
    with mpmath.workdps(dps):
        zeta = mpmath.exp(2j * mpmath.pi / a.order)
        return mpmath.fsum(
            [mpmath.mpf(c.numerator) / c.denominator * zeta**e
             for e, c in sorted(a.coeffs.items())],
            absolute=False,
        ) if a.coeffs else mpmath.mpc(0)


def rand_cyclo(rng: random.Random, max_order: int = 12, max_num: int = 9) -> CycloNum:
    order = rng.randint(1, max_order)
    coeffs = {}
    for e in range(totient(order)):
        if rng.random() < 0.5:
            coeffs[e] = Fraction(rng.randint(-max_num, max_num),
                                 rng.randint(1, max_num))
    return CycloNum(order, coeffs)


def test_cyclotomic_polynomial_small():
    x = CycloPoly.variable()
    assert cyclotomic_polynomial(1) == x - CycloPoly.one()
    assert cyclotomic_polynomial(2) == x + CycloPoly.one()


def test_cyclotomic_polynomial_6_by_division():
    # Independent derivation: divide x^6 - 1 by the product of the proper
    # divisors' cyclotomic polynomials using exact polynomial division.
    x6_minus_1 = CycloPoly([-1, 0, 0, 0, 0, 0, 1])
    prod = CycloPoly.one()
    for d in (1, 2, 3):
        prod = prod * cyclotomic_polynomial(d)
    quot, rem = divmod(x6_minus_1, prod)
    assert rem.is_zero()
    assert cyclotomic_polynomial(6) == quot == CycloPoly([1, -1, 1])


@pytest.mark.parametrize("n", range(1, 25))
def test_cyclotomic_polynomial_divides_xn_minus_1(n):
    xn = [0] * (n + 1)
    xn[0], xn[n] = -1, 1
    rem = divmod(CycloPoly(xn), cyclotomic_polynomial(n))[1]
    assert rem.is_zero()
    assert cyclotomic_polynomial(n).degree == totient(n)
    assert cyclotomic_polynomial(n).is_monic()


def test_root_of_unity_examples():
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(6, 3) == -1
    assert root_of_unity(5, 7) == root_of_unity(5, 2)


@pytest.mark.parametrize("n", range(1, 25))
def test_root_powers(n):
    for k in range(n):
        assert root_of_unity(n, k) ** n == 1


def test_lift_examples():
    minus1 = CycloNum(2, {1: 1})
    assert minus1 == -1
    lifted = minus1.lift(4)
    assert lifted.order == 4 and lifted == -1

    z3 = root_of_unity(3, 1)
    z6 = root_of_unity(6, 1)
    assert z3.lift(6) == z6 * z6
    # 6th-order representation of zeta_3 cubes to 1.
    assert z3.lift(6) ** 3 == 1

    zero = CycloNum.zero(1)
    assert zero.lift(12).is_zero()

    with pytest.raises(IncompatibleOrderError):
        root_of_unity(4, 1).lift(6)


def test_arithmetic_examples():
    z4 = root_of_unity(4, 1)
    assert z4 * z4 == -1
    z6 = root_of_unity(6, 1)
    assert (z6 + (-z6)).is_zero()
    z8 = root_of_unity(8, 1)
    assert z8.inv() == root_of_unity(8, 7)
    assert z8 * root_of_unity(8, 7) == 1
    with pytest.raises(ZeroDivisionError):
        CycloNum.zero(3).inv()


def test_eq_examples():
    assert root_of_unity(6, 3) == CycloNum.from_rational(-1)
    assert not (root_of_unity(3, 1) == root_of_unity(6, 1))
    assert CycloNum.zero(3) == CycloNum.zero(8)


@settings(deadline=None)
@given(st.integers(1, 16), st.integers(1, 16))
def test_lift_is_ring_homomorphism(seed, m):
    rng = random.Random(seed * 1000 + m)
    a = rand_cyclo(rng, max_order=8)
    b = rand_cyclo(rng, max_order=8)
    target = a.order * b.order * m
    if target > 2000:
        target = a.order * b.order
    assert (a * b).lift(target) == a.lift(target) * b.lift(target)
    assert (a + b).lift(target) == a.lift(target) + b.lift(target)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_field_axioms(seed):
    rng = random.Random(seed)
    a, b, c = (rand_cyclo(rng) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CycloNum.zero() == a
    assert a * CycloNum.one() == a
    if not a.is_zero():
        assert a * a.inv() == 1


def test_eq_matches_numeric_on_random_pairs():
    rng = random.Random(20240817)
    agree = 0
    for _ in range(250):
        a = rand_cyclo(rng)
        if rng.random() < 0.3:
            b = a.lift(a.order * rng.randint(1, 4))
        else:
            b = rand_cyclo(rng)
        symbolic = a == b
        diff = abs(numeric(a, 45) - numeric(b, 45))
        numeric_eq = diff < mpmath.mpf("1e-30")
        # Interval safety: nothing may sit near the threshold.
        assert diff < mpmath.mpf("1e-35") or diff > mpmath.mpf("1e-25")
        assert symbolic == numeric_eq
        agree += 1
    assert agree == 250


def test_cyclopoly_division_and_gcd():
    x = CycloPoly.variable()
    one = CycloPoly.one()
    p = (x + one) * (x - one)
    q, r = divmod(p, x + one)
    assert r.is_zero() and q == x - one
    assert p.gcd((x + one) ** 2) == x + one


def test_polyfraction_reduction():
    x = CycloPoly.variable()
    one = CycloPoly.one()
    f = PolyFraction((x + one) * (x - one), (x + one) ** 2)
    assert f == PolyFraction(x - one, x + one)
    assert f * f.inv() == PolyFraction.one()


# -- fast paths against the public constructor ------------------------------
#
# Arithmetic results skip the constructor's validation and reduction.  Each one
# must equal, in order and coeffs, the public constructor applied to the raw
# (unreduced, unfolded) sum or product, and hold only basis exponents with
# nonzero values.

_ORDERS = list(range(1, 13)) + [60]


@st.composite
def cyclo_nums(draw, orders=_ORDERS):
    order = draw(st.sampled_from(orders))
    exps = st.integers(0, totient(order) - 1)
    if draw(st.booleans()):
        exps = st.just(0)  # a rational value at this order
    coeffs = draw(st.dictionaries(
        exps, st.fractions(min_value=-9, max_value=9, max_denominator=9),
        max_size=4))
    return CycloNum(order, coeffs)


def assert_canonical(x: CycloNum, ref: CycloNum) -> None:
    assert (x.order, x.coeffs) == (ref.order, ref.coeffs)
    phi = totient(x.order)
    assert all(0 <= e < phi and type(c) is Fraction and c
               for e, c in x.coeffs.items())


def _lcm(m: int, n: int) -> int:
    return m * n // gcd(m, n)


def _raw_at(a: CycloNum, order: int) -> dict:
    step = order // a.order
    return {e * step: c for e, c in a.coeffs.items()}


def _raw_sum(*terms) -> dict:
    out = {}
    for raw in terms:
        for e, c in raw.items():
            out[e] = out.get(e, Fraction(0)) + c
    return out


@settings(max_examples=150, deadline=None)
@given(cyclo_nums(), cyclo_nums())
def test_add_neg_sub_match_the_constructor(a, b):
    n = _lcm(a.order, b.order)
    ra, rb = _raw_at(a, n), _raw_at(b, n)
    neg_rb = {e: -c for e, c in rb.items()}
    assert_canonical(a + b, CycloNum(n, _raw_sum(ra, rb)))
    assert_canonical(a - b, CycloNum(n, _raw_sum(ra, neg_rb)))
    assert_canonical(-a, CycloNum(a.order, {e: -c for e, c in a.coeffs.items()}))
    assert_canonical(a + 0, a)


@settings(max_examples=150, deadline=None)
@given(cyclo_nums(), cyclo_nums())
def test_mul_matches_the_constructor(a, b):
    if b.is_rational():
        r = b.as_rational()
        ref = CycloNum(a.order, {e: c * r for e, c in a.coeffs.items()})
    elif a.is_rational():
        r = a.as_rational()
        ref = CycloNum(b.order, {e: c * r for e, c in b.coeffs.items()})
    else:
        n = _lcm(a.order, b.order)
        raw = {}
        for i, ca in _raw_at(a, n).items():
            for j, cb in _raw_at(b, n).items():
                raw[i + j] = raw.get(i + j, Fraction(0)) + ca * cb
        ref = CycloNum(n, raw)
    assert_canonical(a * b, ref)
    assert_canonical(a * 3, CycloNum(a.order, {e: 3 * c for e, c in a.coeffs.items()}))


@settings(max_examples=100, deadline=None)
@given(cyclo_nums(), st.integers(1, 5))
def test_inv_and_lift_match_the_constructor(a, m):
    order = a.order * m
    assert_canonical(a.lift(order), CycloNum(order, _raw_at(a, order)))
    if a.is_zero():
        return
    inv = a.inv()
    assert_canonical(inv, CycloNum(a.order, inv.coeffs))
    assert a * inv == 1


def _twist_order(c: CycloNum, n: int, k: int) -> int:
    if 2 * k % n == 0:  # zeta_n^k = +-1
        return c.order
    return n if c.is_rational() else _lcm(c.order, n)


def _check_twist(c: CycloNum, n: int, k: int) -> None:
    got = c.times_root(n, k)
    product = c * root_of_unity(n, k)
    assert (got.order, got.coeffs) == (product.order, product.coeffs)
    order = _twist_order(c, n, k)
    if 2 * k % n == 0:
        sign = 1 if k % n == 0 else -1
        raw = {e: sign * v for e, v in c.coeffs.items()}
    else:
        raw = {e + k * (order // n): v for e, v in _raw_at(c, order).items()}
    assert_canonical(got, CycloNum(order, raw))


@settings(max_examples=150, deadline=None)
@given(cyclo_nums(), st.sampled_from(_ORDERS), st.integers(-130, 130))
def test_twist_matches_mul_by_root_of_unity(c, n, k):
    _check_twist(c, n, k)


@pytest.mark.parametrize("c", [
    CycloNum.from_rational(Fraction(3, 2), 5),  # rational, order divides no n
    CycloNum.from_rational(-2),
    CycloNum.zero(7),
    root_of_unity(3, 1) - Fraction(1, 2),
    CycloNum(60, {1: 1, 7: Fraction(-2, 3)}),
])
@pytest.mark.parametrize("n", [1, 2, 4, 6, 12])
def test_twist_examples_include_plus_minus_one(c, n):
    for k in range(-n, 2 * n):  # k = 0 and k = n/2 give zeta = +-1
        _check_twist(c, n, k)


# -- constant constructors against the public constructor --------------------
#
# zero, one and from_rational skip the public constructor's reduction; each
# must build what CycloNum(order, {0: v}) builds, or raise what it raises.

def _built(make):
    try:
        x = make()
    except Exception as err:  # the error itself is what is compared
        return type(err), str(err)
    return x.order, x.coeffs, [type(c) for c in x.coeffs.values()]


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 70), st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.integers(-10**20, 10**20), st.booleans(), st.just(0),
    st.floats(allow_nan=False), st.text(max_size=2), st.none()))
def test_constant_constructors_match_the_constructor(order, v):
    assert _built(lambda: CycloNum.from_rational(v, order)) \
        == _built(lambda: CycloNum(order, {0: v}))
    assert _built(lambda: CycloNum.zero(order)) == _built(lambda: CycloNum(order, {}))
    assert _built(lambda: CycloNum.one(order)) == _built(lambda: CycloNum(order, {0: 1}))
    if order >= 1:
        assert _built(lambda: CycloNum.from_rational(v)) \
            == _built(lambda: CycloNum(1, {0: v}))
