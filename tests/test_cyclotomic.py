"""Field arithmetic in Q(zeta_N): examples, axioms, numeric agreement."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import expdirect.cyclotomic as cyclotomic
from expdirect.cyclotomic import CycloNum, CycloPoly, totient
from expdirect.decomposition import laurent_sort_key
from expdirect.laurent import LaurentPoly
from tests.helpers import root


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


def _poly_mul(f, g) -> list:
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_cyclotomic_polynomial_small():
    assert cyclotomic._cyclotomic_int_coeffs(1) == (-1, 1)
    assert cyclotomic._cyclotomic_int_coeffs(2) == (1, 1)


def test_cyclotomic_polynomial_6_by_division():
    # Independent derivation: divide x^6 - 1 by the product of the proper
    # divisors' cyclotomic polynomials using exact polynomial division.
    x6_minus_1 = [-1, 0, 0, 0, 0, 0, 1]
    prod = [1]
    for d in (1, 2, 3):
        prod = _poly_mul(prod, cyclotomic._cyclotomic_int_coeffs(d))
    quot, rem = cyclotomic._divmod(x6_minus_1, prod)
    assert not any(rem)
    assert cyclotomic._cyclotomic_int_coeffs(6) == tuple(quot) == (1, -1, 1)


@pytest.mark.parametrize("n", range(1, 25))
def test_cyclotomic_polynomial_divides_xn_minus_1(n):
    xn = [0] * (n + 1)
    xn[0], xn[n] = -1, 1
    phi = cyclotomic._cyclotomic_int_coeffs(n)
    rem = cyclotomic._divmod(xn, list(phi))[1]
    assert not any(rem)
    assert len(phi) - 1 == totient(n)
    assert phi[-1] == 1 and all(type(c) is int for c in phi)
    # zeta_n is a root, which x^n - 1's other factors of degree phi(n) lack.
    assert CycloNum(n, dict(enumerate(phi))) == 0


def test_root_of_unity_examples():
    assert root(4, 2) == -1
    assert root(6, 3) == -1
    assert root(5, 7) == root(5, 2)


@pytest.mark.parametrize("n", range(1, 25))
def test_root_powers(n):
    for k in range(n):
        assert root(n, k) ** n == 1


def test_lift_examples():
    # lift embeds the stored coefficients at a multiple order; the
    # constructor brings them back to the canonical form.
    minus1 = CycloNum(2, {1: 1})
    assert minus1 == -1 and (minus1.order, minus1.coeffs) == (1, {0: -1})
    assert minus1.lift(4) == {0: -1}
    assert CycloNum(4, minus1.lift(4)) == -1

    z3 = root(3, 1)
    z6 = root(6, 1)
    assert z3.lift(6) == {2: 1}
    assert CycloNum(6, z3.lift(6)) == z6 * z6 == z3
    assert CycloNum(6, z3.lift(6)) ** 3 == 1

    assert CycloNum(3, {}).lift(12) == {}

    with pytest.raises(ValueError):
        root(4, 1).lift(6)


def test_arithmetic_examples():
    z4 = root(4, 1)
    assert z4 * z4 == -1
    z6 = root(6, 1)
    assert (z6 + (-z6)).is_zero()
    z8 = root(8, 1)
    assert z8.inv() == root(8, 7)
    assert z8 * root(8, 7) == 1
    with pytest.raises(ZeroDivisionError):
        CycloNum(3, {}).inv()


def test_eq_examples():
    assert root(6, 3) == CycloNum.from_rational(-1)
    assert not (root(3, 1) == root(6, 1))
    assert CycloNum(3, {}) == CycloNum(8, {}) == CycloNum.zero()


def _conv(a: dict, b: dict) -> dict:
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            out[i + j] = out.get(i + j, Fraction(0)) + ca * cb
    return out


@settings(deadline=None)
@given(st.integers(1, 16), st.integers(1, 16))
def test_lift_is_ring_homomorphism(seed, m):
    # Sums and products of the embedded coefficients, read at the target
    # order, are the canonical sum and product.
    rng = random.Random(seed * 1000 + m)
    a = rand_cyclo(rng, max_order=8)
    b = rand_cyclo(rng, max_order=8)
    target = a.order * b.order * m
    if target > 2000:
        target = a.order * b.order
    la, lb = a.lift(target), b.lift(target)
    assert CycloNum(target, la) == a
    assert CycloNum(target, _conv(la, lb)) == a * b
    assert CycloNum(target, _raw_sum(la, lb)) == a + b


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
            order = a.order * rng.randint(1, 4)
            b = CycloNum(order, a.lift(order))
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


def test_cyclopoly_product():
    # The charpoly product: (x + 1)(x - 1) = x^2 - 1, and over Q(zeta_3)
    # (x - zeta_3)(x - zeta_3^2) = Phi_3 = x^2 + x + 1.
    assert CycloPoly([1, 1]) * CycloPoly([-1, 1]) == CycloPoly([-1, 0, 1])
    assert CycloPoly([-root(3, 1), 1]) * CycloPoly([-root(3, 2), 1]) \
        == CycloPoly([1, 1, 1])
    assert (CycloPoly([1, 1]) * CycloPoly()).is_zero()


# -- fast paths against the public constructor ------------------------------
#
# Arithmetic results skip the constructor's validation.  Each one must equal,
# in order and coeffs, the public constructor applied to the raw (unreduced,
# unfolded) sum or product, and be canonical: basis exponents only, nonzero
# Fraction values, the minimal conductor as order.

_ORDERS = list(range(1, 13)) + [60]


@st.composite
def cyclo_nums(draw, orders=_ORDERS):
    order = draw(st.sampled_from(orders))
    exps = st.integers(0, totient(order) - 1)
    if draw(st.booleans()):
        exps = st.just(0)  # a rational value written at this order
    coeffs = draw(st.dictionaries(
        exps, st.fractions(min_value=-9, max_value=9, max_denominator=9),
        max_size=4))
    return CycloNum(order, coeffs)


def _prime_powers(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while n > 1:
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        if q > 1:
            out.append((p, q))
        p += 1
    return out


def in_basis(n: int, e: int) -> bool:
    """The Zumbroich basis test: for each p^v exactly dividing n, the top
    base-p digit of e * (n/p^v)^-1 mod p^v is 0 for p = 2, nonzero for odd p."""
    if not 0 <= e < n:
        return False
    for p, q in _prime_powers(n):
        top = e * pow(n // q, -1, q) % q // (q // p)
        if (top != 0) if p == 2 else (top == 0):
            return False
    return True


def assert_canonical(x: CycloNum, ref: CycloNum) -> None:
    assert (x.order, x.coeffs) == (ref.order, ref.coeffs)
    assert x.order % 4 != 2
    assert all(in_basis(x.order, e) and type(c) is Fraction and c
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
    assert_canonical(a + (-b), CycloNum(n, _raw_sum(ra, neg_rb)))
    assert_canonical(-a, CycloNum(a.order, {e: -c for e, c in a.coeffs.items()}))
    assert_canonical(a + 0, a)


@settings(max_examples=150, deadline=None)
@given(cyclo_nums(), cyclo_nums())
def test_mul_matches_the_constructor(a, b):
    n = _lcm(a.order, b.order)
    assert_canonical(a * b, CycloNum(n, _conv(_raw_at(a, n), _raw_at(b, n))))
    assert_canonical(a * 3, CycloNum(a.order, {e: 3 * c for e, c in a.coeffs.items()}))


@settings(max_examples=100, deadline=None)
@given(cyclo_nums(), st.integers(1, 5))
def test_inv_and_lift_match_the_constructor(a, m):
    order = a.order * m
    assert a.lift(order) == _raw_at(a, order)
    assert_canonical(CycloNum(order, a.lift(order)), a)
    if a.is_zero():
        return
    inv = a.inv()
    assert_canonical(inv, CycloNum(a.order, inv.coeffs))
    assert a * inv == 1


def _check_twist(c: CycloNum, n: int, k: int) -> None:
    got = c.times_root(n, k)
    product = c * root(n, k)
    assert (got.order, got.coeffs) == (product.order, product.coeffs)
    order = _lcm(c.order, n)
    raw = {e + k * (order // n): v for e, v in _raw_at(c, order).items()}
    assert_canonical(got, CycloNum(order, raw))


@settings(max_examples=150, deadline=None)
@given(cyclo_nums(), st.sampled_from(_ORDERS), st.integers(-130, 130))
def test_twist_matches_mul_by_root_of_unity(c, n, k):
    _check_twist(c, n, k)


@pytest.mark.parametrize("c", [
    CycloNum(5, {0: Fraction(3, 2)}),  # rational, written at an order dividing no n
    CycloNum.from_rational(-2),
    CycloNum(7, {}),
    CycloNum(3, {1: 1, 0: Fraction(-1, 2)}),
    CycloNum(60, {1: 1, 7: Fraction(-2, 3)}),
])
@pytest.mark.parametrize("n", [1, 2, 4, 6, 12])
def test_twist_examples_include_plus_minus_one(c, n):
    for k in range(-n, 2 * n):  # k = 0 and k = n/2 give zeta = +-1
        _check_twist(c, n, k)


# -- constant constructors against the public constructor --------------------
#
# zero, one and from_rational build order-1 values without the public
# constructor's normalisation; each must build what CycloNum(order, {0: v})
# builds at any order, or raise what it raises.

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
    if order < 1:
        with pytest.raises(ValueError, match="order must be a positive integer"):
            CycloNum(order, {0: v})
        return
    assert _built(lambda: CycloNum.from_rational(v)) \
        == _built(lambda: CycloNum(order, {0: v}))
    assert _built(CycloNum.zero) == _built(lambda: CycloNum(order, {}))
    assert _built(CycloNum.one) == _built(lambda: CycloNum(order, {0: 1}))


# -- canonical form ------------------------------------------------------------
#
# Values are written at orders 1..60, 105 and 210 with any integer exponents.
# Every result must equal the mpmath value of its inputs to 50 digits, sit at
# its minimal conductor (checked through the Galois action, numerically) on
# the Zumbroich basis, and so be identical, hash included, to the same value
# written at any other order.

_WRITTEN_ORDERS = list(range(1, 61)) + [105, 210]
_DPS = 60
_TOL = mpmath.mpf(10) ** -50


@st.composite
def written(draw, orders=_WRITTEN_ORDERS):
    """(order, raw coefficients) as an input may write them."""
    order = draw(st.sampled_from(orders))
    raw = draw(st.dictionaries(
        st.integers(-2 * order, 2 * order),
        st.fractions(min_value=-9, max_value=9, max_denominator=9),
        max_size=4 if order <= 60 else 2))
    return order, raw


@lru_cache(maxsize=None)
def _roots(order: int) -> tuple:
    with mpmath.workdps(_DPS + 10):
        return tuple(mpmath.expjpi(mpmath.mpf(2 * j) / order) for j in range(order))


def _value(order: int, raw: dict, k: int = 1):
    """mpmath value of sum c * zeta_order^(k*e)."""
    roots = _roots(order)
    with mpmath.workdps(_DPS):
        return mpmath.fsum([mpmath.mpf(c.numerator) / c.denominator * roots[k * e % order]
                            for e, c in raw.items()]) if raw else mpmath.mpc(0)


def _close(x, y) -> bool:
    return abs(x - y) <= _TOL * max(1, abs(x), abs(y))


def assert_minimal(x: CycloNum) -> None:
    """Canonical, and not fixed by the Galois group of Q(zeta_N) over
    Q(zeta_(N/p)) for any prime p dividing N: N is the conductor."""
    n = x.order
    assert n % 4 != 2
    assert all(in_basis(n, e) and type(c) is Fraction and c for e, c in x.coeffs.items())
    if not x.coeffs:
        assert n == 1
    here = _value(n, x.coeffs)
    for p, _ in _prime_powers(n):
        sub = n // p
        moved = [k for k in range(1, n, sub) if gcd(k, n) == 1
                 and not _close(_value(n, x.coeffs, k), here)]
        assert moved, (x, p)


def _invertible_fast(x: CycloNum) -> bool:
    # Dense values at orders 105 and 210 take seconds to invert.
    return x.order <= 60 or len(x.coeffs) == 1


@settings(max_examples=150, deadline=None)
@given(written(), written(), st.sampled_from(_WRITTEN_ORDERS),
       st.integers(-300, 300), st.integers(-2, 4))
def test_operations_equal_mpmath_at_the_minimal_conductor(wa, wb, n, k, power):
    a, b = CycloNum(*wa), CycloNum(*wb)
    va, vb = _value(*wa), _value(*wb)
    with mpmath.workdps(_DPS):
        results = [(a, va), (b, vb), (a + b, va + vb), (a + (-b), va - vb),
                   (-a, -va), (a * b, va * vb),
                   (a.times_root(n, k), va * _value(n, {k: Fraction(1)}))]
        if a and _invertible_fast(a):
            results.append((a.inv(), 1 / va))
        if power >= 0 or (a and _invertible_fast(a)):
            results.append((a ** power, va ** power))
        for got, want in results:
            assert _close(_value(got.order, got.coeffs), want), (wa, wb, got)
            assert_minimal(got)


@settings(max_examples=150, deadline=None)
@given(written(), st.integers(1, 6), st.integers(0, 10))
def test_one_value_written_at_two_orders_is_identical(w, m, e):
    order, raw = w
    a = CycloNum(order, raw)
    # The same value at a multiple order, with a cancelling pair of terms.
    big = order * m
    raw_big = {x * m: c for x, c in raw.items()}
    raw_big[e] = raw_big.get(e, Fraction(0)) + 1
    b = CycloNum(big, raw_big) + CycloNum(big, {e: -1})
    assert (a.order, a.coeffs) == (b.order, b.coeffs)
    assert hash(a) == hash(b) and a == b
    if a.order == 1:
        r = a.coeffs.get(0, Fraction(0))
        assert hash(a) == hash(r) and a == r


# Each group holds one value written at several orders.
_ALIASES = [
    [root(3, 1), CycloNum(6, {2: 1}), CycloNum(12, {4: 1}), CycloNum(15, {5: 1})],
    [Fraction(1, 2), CycloNum(4, {0: Fraction(1, 2)}),
     CycloNum(3, {1: Fraction(-1, 2), 2: Fraction(-1, 2)})],
    [root(4, 1), CycloNum(8, {2: 1}), CycloNum(12, {3: 1}), CycloNum(20, {5: 1})],
    [-1, CycloNum(2, {1: 1}), CycloNum(12, {4: 1, 8: 1}), CycloNum(5, {1: 1, 2: 1, 3: 1, 4: 1})],
]
_term_specs = st.lists(st.tuples(st.integers(-3, -1), st.integers(0, len(_ALIASES) - 1),
                                 st.integers(1, 3)), max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sort_keys_are_equal_exactly_for_equal_polynomials(data):
    # g is written from f's terms with other aliases half of the time, so
    # equal polynomials arise often and are written at different orders.
    f_spec = data.draw(_term_specs)
    g_spec = f_spec if data.draw(st.booleans()) else data.draw(_term_specs)

    def poly(spec):
        terms = {}
        for e, group, scale in spec:
            value = data.draw(st.sampled_from(_ALIASES[group])) * scale
            terms[e] = terms[e] + value if e in terms else value
        return LaurentPoly(terms)

    f, g = poly(f_spec), poly(g_spec)
    same = all(_close(_value(c.order, c.coeffs), _value(d.order, d.coeffs))
               for c, d in ((f.coeff(e), g.coeff(e)) for e in range(-3, 0)))
    assert (f == g) == same
    assert (laurent_sort_key(f) == laurent_sort_key(g)) == same


def _power_basis_inverse(a: CycloNum) -> CycloNum:
    """a.inv() through the power basis and ``_poly_invert_mod``."""
    n = a.order
    dense = [Fraction(0)] * n
    for e, c in a.coeffs.items():
        dense[e] = c
    modulus = [Fraction(c) for c in cyclotomic._cyclotomic_int_coeffs(n)]
    vec = cyclotomic._divmod(dense, modulus)[1]
    assert len(vec) == totient(n)
    return CycloNum(n, dict(enumerate(cyclotomic._poly_invert_mod(vec, modulus))))


@settings(max_examples=100, deadline=None)
@given(written(list(range(1, 61))))
def test_inv_matches_the_euclidean_reference(w):
    a = CycloNum(*w)
    if not a:
        return
    inv = a.inv()
    ref = _power_basis_inverse(a)
    assert (inv.order, inv.coeffs) == (ref.order, ref.coeffs)
    assert a * inv == 1


def test_single_term_values_never_reach_euclid(monkeypatch):
    calls = []
    euclid = cyclotomic._poly_invert_mod

    def counted(a, modulus):
        calls.append(len(modulus))
        return euclid(a, modulus)

    monkeypatch.setattr(cyclotomic, "_poly_invert_mod", counted)
    rng = random.Random(97)
    for n in [*range(1, 61), 97, 105, 210, 6000]:
        for _ in range(3):
            a = CycloNum(n, {rng.randrange(n): Fraction(rng.randint(1, 9), rng.randint(1, 9))})
            if len(a.coeffs) == 1:
                assert a * a.inv() == 1
    assert calls == []
    (root(5, 1) + 2).inv()
    assert calls == [5]


# -- the one polynomial division ---------------------------------------------

_COEFFICIENTS = {
    "int": st.integers(-9, 9),
    "fraction": st.fractions(min_value=-9, max_value=9, max_denominator=9),
}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(sorted(_COEFFICIENTS)))
def test_divmod_quotient_times_divisor_plus_remainder_is_the_dividend(data, kind):
    coeff = _COEFFICIENTS[kind]
    num = data.draw(st.lists(coeff, max_size=7))
    lead = data.draw(st.one_of(st.just(1), coeff.filter(bool)))
    den = data.draw(st.lists(coeff, max_size=4)) + [lead]
    quot, rem = cyclotomic._divmod(num, den)
    assert len(rem) < len(den)
    back = _poly_mul(quot, den)
    back += [0] * (len(num) - len(back))
    for i, r in enumerate(rem):
        back[i] += r
    assert all(x == y for x, y in zip_longest(back, num, fillvalue=0))
    if kind == "int" and lead == 1:
        assert all(type(c) is int for c in quot + rem)


@settings(max_examples=100, deadline=None)
@given(written())
def test_euclid_on_the_stored_vector_equals_euclid_on_the_reduced_one(w):
    # CycloNum.inv hands Euclid its stored coefficients, a vector of length
    # n; reducing it modulo Phi_n first must not change the inverse.
    a = CycloNum(*w)
    if not a:
        return
    n = a.order
    stored = [Fraction(0)] * n
    for e, c in a.coeffs.items():
        stored[e] = c
    modulus = [Fraction(c) for c in cyclotomic._cyclotomic_int_coeffs(n)]
    reduced = cyclotomic._divmod(stored, modulus)[1]
    got, want = (
        {i: c for i, c in enumerate(cyclotomic._poly_invert_mod(v, modulus)) if c}
        for v in (stored, reduced))
    assert got == want
    assert a * CycloNum(n, got) == 1
