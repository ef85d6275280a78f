"""Laurent polynomial arithmetic, substitutions, and bivariate local forms."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from expdirect.cyclotomic import CycloNum
from expdirect.laurent import (
    BiPoly,
    BiRational,
    ClassificationError,
    LaurentPoly,
    NormalFormKind,
    NormalFormTag,
    _corner,
    subst_root_power,
    support_gcd,
)
from tests.helpers import rand_laurent, root


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


def cols_at(cols, u: CycloNum, v: CycloNum) -> CycloNum:
    """Value of c0 + c1*v, given as its columns, at any (u, v); the library
    reads only the origin."""
    acc = CycloNum.zero()
    for j, col in enumerate(cols):
        for i, c in col.items():
            acc = acc + c * u**i * v**j
    return acc


def rational_at(g: BiRational, u: CycloNum, v: CycloNum) -> CycloNum:
    return cols_at(g.num, u, v) * cols_at(g.den, u, v).inv()


def test_add_mul_examples():
    assert L({-1: 1}) * L({-2: 1}) == L({-3: 1})
    assert L({0: 1, 1: 1}) * L({0: 1, 1: -1}) == L({0: 1, 2: -1})


def test_subst_examples():
    assert subst_root_power(L({-3: 1}), 2, 1, 1) == L({-3: -1})
    assert subst_root_power(L({-1: 1}), 1, 0, 2) == L({-2: 1})

    got = subst_root_power(L({-2: 1, -1: 1}), 4, 1, 3)
    assert got == LaurentPoly({-6: -1, -3: root(4, 3)})


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
        assert laurent_at(sub, t) == laurent_at(f, root(n, i) * t**k)


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
    # A polar part is nonzero with only negative exponents.
    assert L({-2: 1}).is_polar() and L({-3: 1, -1: root(3, 1)}).is_polar()
    assert not LaurentPoly.zero().is_polar()
    assert not L({-2: 1, 0: 3}).is_polar() and not L({-2: 1, 1: 1}).is_polar()
    assert not L({-2: 1, 0: 3, 1: 1}).is_polar() and not L({0: 3}).is_polar()
    # Cancelling terms leave no zero coefficient behind.
    assert L({-1: 1, 0: root(3, 0) + root(3, 1) + root(3, 2)}).is_polar()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_split_is_exact(seed):
    # is_polar holds exactly when the value is nonzero and equals its
    # truncation to negative exponents; the truncation itself is polar
    # unless it is zero.
    rng = random.Random(seed)
    for f in (rand_laurent(rng), rand_laurent(rng, hi=-1), rand_laurent(rng, lo=0)):
        polar = LaurentPoly({e: c for e, c in f.terms.items() if e < 0})
        assert f.is_polar() == (not f.is_zero() and f == polar)
        assert polar.is_polar() == (not polar.is_zero())
        assert f.is_polar() == (f.pole_order() > 0 and all(
            f.coeff(e).is_zero() for e in range(0, 5)))


def test_support_gcd_examples():
    assert support_gcd(L({-3: 1, -1: 1}), 2) == 1
    assert support_gcd(L({-4: 1}), 2) == 2
    assert support_gcd(LaurentPoly.zero(), 5) == 5


def _bi_coeff(rng: random.Random) -> CycloNum:
    # Small multiples of roots of low order, so that sums often cancel
    # (1 + zeta_3 + zeta_3^2 = 0, zeta_4 + zeta_4^3 = 0, ...).
    n = rng.choice([1, 2, 3, 4, 6])
    return root(n, rng.randrange(n)) * rng.choice([-2, -1, 1, 2])


def _rand_column(rng: random.Random, size: int = 4) -> dict:
    return {rng.randrange(size): _bi_coeff(rng) for _ in range(rng.randint(0, 3))}


def _rand_form(rng: random.Random, size: int = 4) -> BiRational:
    num = (_rand_column(rng, size), _rand_column(rng, size))
    den = (_rand_column(rng, size), _rand_column(rng, size))
    if not (den[0] or den[1]):
        den = ({rng.randrange(size): _bi_coeff(rng)}, {})
    return BiRational(num, den)


def _cancelling_shift(rng: random.Random, g: BiRational) -> CycloNum:
    """A shift b that often cancels a term of a0 + b*a1 or d0 + b*d1."""
    pairs = [(c0[i], c1[i]) for c0, c1 in (g.num, g.den) for i in c0 if i in c1]
    if pairs and rng.random() < 0.5:
        c0, c1 = rng.choice(pairs)
        return -c0 * c1.inv()
    return _bi_coeff(rng) + (_bi_coeff(rng) if rng.random() < 0.5 else 0)


def _points(rng: random.Random, count: int):
    for _ in range(count):
        yield tuple(CycloNum.from_rational(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
                    for _ in range(2))


def test_translate_preserves_value():
    # g.translate(b) at (u, v) is g at (u, v + b): exact values at 20 points
    # for each of 10 random forms and shifts.
    rng = random.Random(3)
    checked = 0
    for _ in range(10):
        g = _rand_form(rng)
        b = _cancelling_shift(rng, g)
        h = g.translate(b)
        for u, v in _points(rng, 20):
            if cols_at(g.den, u, v + b).is_zero():
                continue
            assert rational_at(h, u, v) == rational_at(g, u, v + b)
            checked += 1
        assert g.translate(0) is g
    assert checked >= 180


def test_compose_monomial_map_preserves_value():
    # Pulling back through the chart x = u, y = u*v must not change the
    # function: exact values at 20 points off the exceptional locus for
    # each of 10 random forms.
    rng = random.Random(5)
    checked = 0
    for _ in range(10):
        g = _rand_form(rng)
        h = g.compose_monomial_map()
        for u, v in _points(rng, 20):
            if cols_at(g.den, u, u * v).is_zero():
                continue
            assert rational_at(h, u, v) == rational_at(g, u, u * v)
            checked += 1
    assert checked >= 180


def _terms(g: BiRational, second: bool) -> tuple[dict, dict]:
    """The explicit term dicts {(i, j): c} of the numerator and the
    denominator, or of their pull-backs under u -> u*v."""
    def of(cols):
        return {(i, i + j if second else j): c
                for j, col in enumerate(cols) for i, c in col.items()}
    return of(g.num), of(g.den)


def _reference_classify(num: dict, den: dict) -> NormalFormTag:
    """The normal form from explicit term dicts: contents are the least
    exponents, and a residual is a unit when its value at the origin,
    evaluated term by term, is nonzero."""
    zero = CycloNum.zero()

    def content(terms):
        if not terms:
            return 0, 0
        return min(i for i, _ in terms), min(j for _, j in terms)

    def residual_at_origin(terms, a, b):
        acc = CycloNum.zero()
        for (i, j), c in terms.items():
            acc = acc + c * zero**(i - a) * zero**(j - b)
        return acc

    na, nb = content(num)
    da, db = content(den)
    if residual_at_origin(den, da, db).is_zero():
        raise ClassificationError(
            "denominator is not monomial-times-unit at the origin")
    pu, pv = da - na, db - nb
    if pu <= 0 and pv <= 0:
        raise ClassificationError("no pole at the origin")
    if pu < 0 or pv < 0 or residual_at_origin(num, na, nb).is_zero():
        raise ClassificationError("numerator vanishes against a pole")
    return NormalFormTag(pu, pv)


def _outcome(classify):
    try:
        return classify()
    except ClassificationError as err:
        return str(err)


def test_origin_reads_equal_general_evaluation():
    # classify_at_point reads contents and corners from exponents alone; the
    # reference evaluates the residuals at the origin.  Both readings, on
    # 2000 random forms, give the same tag or the same error.
    rng = random.Random(41)
    seen = Counter()
    for _ in range(1000):
        g = _rand_form(rng, size=3)
        for second in (False, True):
            got = _outcome(lambda: g.classify_at_point(second=second))
            want = _outcome(lambda: _reference_classify(*_terms(g, second)))
            assert got == want, (g, second)
            seen[got if isinstance(got, str) else got.kind] += 1
    assert set(seen) == {
        "denominator is not monomial-times-unit at the origin",
        "no pole at the origin",
        "numerator vanishes against a pole",
        NormalFormKind.POLE_ONE_VAR,
        NormalFormKind.POLE_TWO_VAR,
    }
    assert min(seen.values()) >= 50


def _set_corner(cols, second: bool):
    """The corner as first written: the content is the least exponent of
    each variable over every term, and the corner is attained when a term
    sits there."""
    exps = {(i, i + j if second else j) for j, col in enumerate(cols) for i in col}
    if not exps:
        return (0, 0), False
    corner = min(i for i, _ in exps), min(j for _, j in exps)
    return corner, corner in exps


def test_corner_equals_the_set_definition():
    # 3000 seeded column pairs, empty columns included, in both readings;
    # without ``second`` the corner's first part is the content too.
    rng = random.Random(29)
    one = CycloNum.one()
    for _ in range(3000):
        cols = tuple({i: one for i in rng.sample(range(-2, 6), rng.randint(0, 3))}
                     for _ in range(2))
        for second in (False, True):
            assert _corner(cols, second) == _set_corner(cols, second), (cols, second)


def test_classify_pole_one_var_at_exceptional():
    one = CycloNum.one()
    g = BiRational(({0: one}, {}), ({}, {0: one}))  # 1/v
    tag = g.classify_at_point()
    assert tag.kind is NormalFormKind.POLE_ONE_VAR
    assert (tag.pole_u, tag.pole_v) == (0, 1)
    # The second chart is a keyword flag: a chart name passed by position
    # is refused, not read as true.
    with pytest.raises(TypeError):
        g.classify_at_point("x=u*v, y=v")


def test_classify_holomorphic_coordinate():
    # A unit plus a coordinate has no pole: not a tag the chain can meet.
    # (5/2 + v)(1 + u) = 5/2 + 5/2*u + v + u*v.
    one, c = CycloNum.one(), CycloNum.from_rational(Fraction(5, 2))
    g = BiRational(({0: c, 1: c}, {0: one, 1: one}), ({0: one}, {}))
    with pytest.raises(ClassificationError, match="no pole"):
        g.classify_at_point()


def test_classify_after_blowup_of_plane_curve():
    # g = (x^2 - y(1+x)) / (x^2 y) pulled through x -> u, y -> u v.
    one = CycloNum.one()
    g = BiRational(({2: one}, {0: -one, 1: -one}), ({}, {2: one}))
    g = g.compose_monomial_map()
    # One factor of u cancels: residual (u - v(1+u)) / (u^2 v).
    assert g.num == ({1: one}, {0: -one, 1: -one})
    assert g.den == ({}, {2: one})

    # At a generic exceptional point (0, v0), v0 != 0, the v-factor is a unit:
    # the local form, recentered there, is unit / u^2.
    v0 = CycloNum.from_rational(Fraction(3, 2))
    tag = g.translate(v0).classify_at_point()
    assert tag.kind is NormalFormKind.POLE_ONE_VAR
    assert (tag.pole_u, tag.pole_v) == (2, 0)
    # Exact series check of the pole order: u^2 * g is finite and nonzero
    # along u -> 0 at that point.
    u = CycloNum.from_rational(Fraction(1, 1000))
    assert not (u**2 * rational_at(g, u, v0)).is_zero()

    # At the crossing (0, 0) the numerator's strict transform passes through:
    # not one of the monomial normal forms.
    with pytest.raises(ClassificationError, match="numerator vanishes"):
        g.classify_at_point()


def test_classify_two_var_pole():
    one = CycloNum.one()
    g = BiRational(({0: one}, {1: one}), ({}, {3: one}))  # (1 + u*v)/(u^3*v)
    tag = g.classify_at_point()
    assert tag.kind is NormalFormKind.POLE_TWO_VAR
    assert (tag.pole_u, tag.pole_v) == (3, 1)


def test_classify_rejects_non_unit_denominator():
    one = CycloNum.one()
    g = BiRational(({0: one}, {}), ({1: one}, {0: one}))  # 1/(u + v)
    with pytest.raises(ClassificationError, match="denominator"):
        g.classify_at_point()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_bipoly_results_equal_the_validated_raw_terms(seed):
    # The product is the raw convolution, cleaned as the validating
    # constructor cleans it.
    rng = random.Random(seed)
    p = BiPoly({(rng.randrange(4), rng.randrange(4)): _bi_coeff(rng)
                for _ in range(rng.randint(0, 8))})
    r = BiPoly({(rng.randrange(4), rng.randrange(4)): _bi_coeff(rng)
                for _ in range(rng.randint(0, 8))})
    raw: dict = {}
    for (i1, j1), c1 in p.terms.items():
        for (i2, j2), c2 in r.terms.items():
            k = (i1 + i2, j1 + j2)
            raw[k] = raw[k] + c1 * c2 if k in raw else c1 * c2
    got, want = p * r, BiPoly(raw)
    # The same element at the same order, term by term.
    assert {k: (c.order, c.coeffs) for k, c in got.terms.items()} == \
        {k: (c.order, c.coeffs) for k, c in want.terms.items()}
    assert all(not c.is_zero() for c in got.terms.values())


def _content(cols) -> tuple[int, int]:
    exps = [(i, j) for j, col in enumerate(cols) for i in col]
    if not exps:
        return 0, 0
    return min(i for i, _ in exps), min(j for _, j in exps)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_birational_carries_the_contents_of_its_parts(seed):
    rng = random.Random(seed)
    g = _rand_form(rng)
    # Multiply through by a common monomial u^a (and v, where a1 and d1 are
    # empty) that the constructor must cancel.
    a = rng.randrange(3)
    num, den = g.num, g.den
    if not (num[1] or den[1]) and rng.random() < 0.5:
        num, den = ({}, num[0]), ({}, den[0])
    g = BiRational(tuple({i + a: c for i, c in col.items()} for col in num),
                   tuple({i + a: c for i, c in col.items()} for col in den))
    for h in (g, g.translate(_cancelling_shift(rng, g)), g.compose_monomial_map()):
        assert h.num_content == _content(h.num)
        assert h.den_content == _content(h.den)
        if h.num[0] or h.num[1]:
            assert min(h.num_content[0], h.den_content[0]) == 0
            assert min(h.num_content[1], h.den_content[1]) == 0
