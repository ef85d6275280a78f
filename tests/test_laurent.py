"""Laurent polynomial arithmetic, substitutions, and bivariate local forms."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from expdirect.cyclotomic import CycloNum, root_of_unity
from expdirect.laurent import (
    BiPoly,
    BiRational,
    CHART_FIRST,
    CHART_SECOND,
    ClassificationError,
    LaurentPoly,
    NormalFormKind,
    subst_root_power,
    support_gcd,
)


def L(terms):
    return LaurentPoly(terms)


def rand_root_index(rng: random.Random, max_order: int = 8) -> tuple[int, int]:
    """A root of unity zeta_n^i, as its (n, i)."""
    n = rng.randint(1, max_order)
    return n, rng.randint(0, n - 1)


def laurent_at(f: LaurentPoly, x: CycloNum) -> CycloNum:
    """Value of f at a nonzero point: the reference substitutions are checked
    against."""
    acc = CycloNum.zero()
    for e, c in f.terms.items():
        acc = acc + c * x**e
    return acc


def bi_at(p: BiPoly, u: CycloNum, v: CycloNum) -> CycloNum:
    """Value of p at any (u, v); the library reads only the origin."""
    acc = CycloNum.zero()
    for (i, j), c in p.terms.items():
        acc = acc + c * u**i * v**j
    return acc


def rational_at(g: BiRational, u: CycloNum, v: CycloNum) -> CycloNum:
    return bi_at(g.num, u, v) / bi_at(g.den, u, v)


def rand_laurent(rng: random.Random, lo=-6, hi=4) -> LaurentPoly:
    terms = {}
    for e in range(lo, hi + 1):
        if rng.random() < 0.4:
            terms[e] = Fraction(rng.randint(-5, 5))
    return LaurentPoly(terms)


def test_add_mul_examples():
    assert (L({-1: 1}) + L({-1: -1})).is_zero()
    assert L({-1: 1}) * L({-2: 1}) == L({-3: 1})
    assert L({0: 1, 1: 1}) * L({0: 1, 1: -1}) == L({0: 1, 2: -1})


def test_subst_examples():
    assert subst_root_power(L({-3: 1}), 2, 1, 1) == L({-3: -1})
    assert subst_root_power(L({-1: 1}), 1, 0, 2) == L({-2: 1})

    got = subst_root_power(L({-2: 1, -1: 1}), 4, 1, 3)
    assert got == LaurentPoly({-6: -1, -3: root_of_unity(4, 3)})


def test_subst_exact_evaluation_cross_check():
    # f(xi * t^k) evaluated at a rational point must equal the substituted
    # polynomial evaluated at the same point; exact arithmetic throughout.
    rng = random.Random(7)
    t = CycloNum.from_rational(Fraction(7, 10))
    for _ in range(25):
        f = rand_laurent(rng)
        n, i = rand_root_index(rng)
        k = rng.randint(1, 3)
        sub = subst_root_power(f, n, i, k)
        assert laurent_at(sub, t) == laurent_at(f, root_of_unity(n, i) * t**k)


def test_subst_rejects_bad_exponent():
    with pytest.raises(ValueError):
        subst_root_power(L({-1: 1}), 1, 0, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3))
def test_subst_composition_law(seed, k, kp):
    # Composing t -> xi t^k then t -> xi' t^k' twists by xi * xi'^k.
    rng = random.Random(seed)
    f = rand_laurent(rng)
    (n, i), (np_, ip) = rand_root_index(rng), rand_root_index(rng)
    lhs = subst_root_power(subst_root_power(f, n, i, k), np_, ip, kp)
    order = n * np_ // gcd(n, np_)
    rhs = subst_root_power(f, order, i * (order // n) + ip * k * (order // np_),
                           k * kp)
    assert lhs == rhs


def test_subst_identity():
    rng = random.Random(11)
    f = rand_laurent(rng)
    assert subst_root_power(f, 1, 0, 1) == f


def test_polar_const_split_examples():
    f = L({-2: 1, 0: 3, 1: 1})
    assert f.polar_part() == L({-2: 1})
    assert f.const_term() == 3
    z = LaurentPoly.zero()
    assert z.polar_part().is_zero() and z.const_term().is_zero()
    g = L({-1: 2})
    assert g.polar_part() == g and g.const_term().is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_split_is_exact(seed):
    rng = random.Random(seed)
    f = rand_laurent(rng)
    const = LaurentPoly({0: f.const_term()}) if not f.const_term().is_zero() \
        else LaurentPoly.zero()
    polar = f.polar_part()
    assert all(e < 0 for e in polar.terms)
    assert all(e > 0 for e in (f - polar - const).terms)


def test_support_gcd_examples():
    assert support_gcd(L({-3: 1, -1: 1}), 2) == 1
    assert support_gcd(L({-4: 1}), 2) == 2
    assert support_gcd(LaurentPoly.zero(), 5) == 5


def test_bipoly_translate_and_eval():
    rng = random.Random(3)
    p = BiPoly({(2, 1): 1, (0, 3): Fraction(1, 2), (1, 0): -2})
    b = root_of_unity(4, 1)
    q = p.translate(b)
    for _ in range(5):
        u = CycloNum.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        v = CycloNum.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        assert bi_at(q, u, v) == bi_at(p, u, v + b)
    assert p.translate(0) is p


def rand_bipoly(rng: random.Random) -> BiPoly:
    terms = {}
    for i in range(4):
        for j in range(4):
            if rng.random() < 0.4:
                n = rng.choice([1, 3, 4, 6])
                terms[(i, j)] = root_of_unity(n, rng.randrange(n)) * rng.randint(-3, 3)
    return BiPoly(terms)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_origin_reads_equal_general_evaluation(seed):
    # The restriction to u = 0 is the column sums at u = 0.
    rng = random.Random(seed)
    p = rand_bipoly(rng)
    zero = CycloNum.zero()
    columns: dict[int, CycloNum] = {}
    for (i, j), c in p.terms.items():
        term = c * zero**i
        columns[j] = term if j not in columns else columns[j] + term
    restricted = p.restrict_first_to_zero()
    assert restricted == LaurentPoly(columns)


def test_compose_monomial_map_preserves_value():
    # Pulling back through either chart must not change the function: check
    # exact values at 20 points off the exceptional locus.
    num = BiPoly({(2, 0): 1, (0, 1): -1, (1, 1): -1})
    den = BiPoly({(2, 1): 1})
    g = BiRational(num, den)
    rng = random.Random(5)
    first = g.compose_monomial_map(CHART_FIRST)
    second = g.compose_monomial_map(CHART_SECOND)
    for _ in range(20):
        u = CycloNum.from_rational(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        v = CycloNum.from_rational(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        assert rational_at(first, u, v) == rational_at(g, u, u * v)
        assert rational_at(second, u, v) == rational_at(g, u * v, v)


def test_classify_pole_one_var_at_exceptional():
    g = BiRational(BiPoly({(0, 0): 1}), BiPoly.monomial(0, 1))  # 1/v
    tag = g.classify_at_point()
    assert tag.kind is NormalFormKind.POLE_ONE_VAR
    assert (tag.pole_u, tag.pole_v) == (0, 1)


def test_classify_holomorphic_coordinate():
    # A unit plus a coordinate has no pole: not a tag the chain can meet.
    c = Fraction(5, 2)
    num = BiPoly({(0, 0): c, (0, 1): 1}) * BiPoly({(0, 0): 1, (1, 0): 1})
    g = BiRational(num, BiPoly({(0, 0): 1}))
    with pytest.raises(ClassificationError, match="no pole"):
        g.classify_at_point()


def test_classify_after_blowup_of_plane_curve():
    # g = (x^2 - y(1+x)) / (x^2 y) pulled through x -> u, y -> u v.
    num = BiPoly({(2, 0): 1, (0, 1): -1, (1, 1): -1})
    den = BiPoly({(2, 1): 1})
    g = BiRational(num, den).compose_monomial_map(CHART_FIRST)
    # One factor of u cancels: residual (u - v(1+u)) / (u^2 v).
    assert g.den == BiPoly({(2, 1): 1})

    # At a generic exceptional point (0, v0), v0 != 0, the v-factor is a unit:
    # the local form, recentered there, is unit / u^2.
    v0 = CycloNum.from_rational(Fraction(3, 2))
    tag = g.translate(v0).classify_at_point()
    assert tag.kind is NormalFormKind.POLE_ONE_VAR
    assert (tag.pole_u, tag.pole_v) == (2, 0)
    # Exact series check of the pole order: u^2 * g is finite and nonzero
    # along u -> 0 at that point.
    u = CycloNum.from_rational(Fraction(1, 1000))
    scaled = bi_at(g.num, u, v0) / bi_at(g.den.divide_monomial(2, 0), u, v0)
    assert not scaled.is_zero()

    # At the crossing (0, 0) the numerator's strict transform passes through:
    # not one of the monomial normal forms.
    with pytest.raises(ClassificationError, match="numerator vanishes"):
        g.classify_at_point()


def test_classify_two_var_pole():
    g = BiRational(BiPoly({(0, 0): 1, (1, 1): 1}), BiPoly.monomial(3, 2))
    tag = g.classify_at_point()
    assert tag.kind is NormalFormKind.POLE_TWO_VAR
    assert (tag.pole_u, tag.pole_v) == (3, 2)


def test_classify_rejects_non_unit_denominator():
    g = BiRational(BiPoly({(0, 0): 1}), BiPoly({(1, 0): 1, (0, 1): 1}))
    with pytest.raises(ClassificationError):
        g.classify_at_point()


def _bi_coeff(rng: random.Random) -> CycloNum:
    # Small multiples of roots of low order, so that sums often cancel
    # (1 + zeta_3 + zeta_3^2 = 0, zeta_4 + zeta_4^3 = 0, ...).
    n = rng.choice([1, 2, 3, 4, 6])
    return root_of_unity(n, rng.randrange(n)) * rng.choice([-2, -1, 1, 2])


def _rand_terms(rng: random.Random, size: int = 4) -> dict:
    return {(rng.randrange(size), rng.randrange(size)): _bi_coeff(rng)
            for _ in range(rng.randint(0, 8))}


def _raw_add(*polys: BiPoly) -> dict:
    out: dict = {}
    for poly in polys:
        for k, c in poly.terms.items():
            out[k] = out[k] + c if k in out else c
    return out


def _raw_translate(p: BiPoly, b: CycloNum) -> dict:
    # The defining formula, every factor multiplied in: c * C(j, t) * b^t.
    if b.is_zero():
        return dict(p.terms)
    powers = [CycloNum.one()]
    for _ in range(max((j for _, j in p.terms), default=0)):
        powers.append(powers[-1] * b)
    out: dict = {}
    for (i, j), c in p.terms.items():
        for t in range(j + 1):
            cj = c * comb(j, t) * powers[t]
            k = (i, j - t)
            out[k] = out[k] + cj if k in out else cj
    return out


def _assert_built_clean(got: BiPoly, raw: dict) -> None:
    want = BiPoly(raw)
    assert got == want
    # The same element at the same order, term by term: no result may
    # differ from what the validating constructor makes of the raw terms.
    assert {k: (c.order, c.coeffs) for k, c in got.terms.items()} == \
        {k: (c.order, c.coeffs) for k, c in want.terms.items()}
    for (i, j), c in got.terms.items():
        assert type(i) is int and type(j) is int and i >= 0 and j >= 0
        assert isinstance(c, CycloNum) and not c.is_zero()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_bipoly_results_equal_the_validated_raw_terms(seed):
    rng = random.Random(seed)
    p = BiPoly(_rand_terms(rng))
    # Half of r cancels against p, term by term.
    r = BiPoly({**_rand_terms(rng),
                **{k: -c for k, c in p.terms.items() if rng.random() < 0.5}})
    neg_r = {k: -c for k, c in r.terms.items()}
    _assert_built_clean(p + r, _raw_add(p, r))
    _assert_built_clean(-r, neg_r)
    _assert_built_clean(p - r, _raw_add(p, BiPoly(neg_r)))
    prod: dict = {}
    for (i1, j1), c1 in p.terms.items():
        for (i2, j2), c2 in r.terms.items():
            k = (i1 + i2, j1 + j2)
            prod[k] = prod[k] + c1 * c2 if k in prod else c1 * c2
    _assert_built_clean(p * r, prod)
    scale = _bi_coeff(rng)
    _assert_built_clean(p * scale, {k: c * scale for k, c in p.terms.items()})
    _assert_built_clean(p * 0, {})

    # Translation by zero and by a nonzero cyclotomic b; a factor (v - b)
    # makes every v^0 term of the translate cancel.
    b = _bi_coeff(rng) + (_bi_coeff(rng) if rng.random() < 0.5 else 0)
    for base in (p, p * BiPoly({(0, 1): 1, (0, 0): -b})):
        _assert_built_clean(base.translate(0), _raw_translate(base, CycloNum.zero()))
        if not b.is_zero():
            _assert_built_clean(base.translate(b), _raw_translate(base, b))

    a, c = p.content()
    _assert_built_clean(p.divide_monomial(a, c),
                        {(i - a, j - c): x for (i, j), x in p.terms.items()})
    _assert_built_clean(p.subst_second_by_product(),
                        {(i + j, j): x for (i, j), x in p.terms.items()})
    _assert_built_clean(p.subst_first_by_product(),
                        {(i, i + j): x for (i, j), x in p.terms.items()})


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_birational_carries_the_contents_of_its_parts(seed):
    rng = random.Random(seed)
    num = BiPoly(_rand_terms(rng))
    den = BiPoly(_rand_terms(rng))
    if den.is_zero():
        den = BiPoly({(0, 0): _bi_coeff(rng)})
    g = BiRational(num * BiPoly.monomial(rng.randrange(3), rng.randrange(3)),
                   den * BiPoly.monomial(rng.randrange(3), rng.randrange(3)))
    for h in (g, g.translate(_bi_coeff(rng)), g.compose_monomial_map(CHART_FIRST),
              g.compose_monomial_map(CHART_SECOND)):
        assert h.num_content == h.num.content()
        assert h.den_content == h.den.content()
