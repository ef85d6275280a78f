"""Realization of formal descriptions and the decompose round trip."""

import random
from fractions import Fraction
from math import gcd

import pytest

from expdirect.branch import validate
from expdirect.cyclotomic import CycloNum, CycloPoly
from expdirect.decomposition import laurent_sort_key
from expdirect.laurent import LaurentPoly, subst_root_power
from expdirect.newton import irregularity, polygon_from_branches
from expdirect.realization import (
    FormalModuleSpec,
    FormalSummand,
    NormalizationConflictError,
    _orbit_key,
    canonicalize,
    orbit_closure,
    realize,
    roundtrip_check,
)
from tests.helpers import rand_monic, rand_polar, root


def test_canonicalize_examples():
    assert canonicalize(2, LaurentPoly({-2: 1})) == (1, LaurentPoly({-1: 1}))
    assert canonicalize(2, LaurentPoly({-3: 1})) == (2, LaurentPoly({-3: 1}))
    got = canonicalize(6, LaurentPoly({-4: 1, -2: 1}))
    assert got == (3, LaurentPoly({-2: 1, -1: 1}))


def test_realize_examples():
    spec = FormalModuleSpec(2, (FormalSummand(LaurentPoly({-3: 1}), 1, CycloPoly([1, 1])),))
    (b,) = realize(spec)
    assert (b.p, b.q, b.m) == (2, 3, 1)
    assert b.alpha == LaurentPoly({-3: 1}) and b.delta.is_zero()
    assert b.zeta == CycloPoly([1, 1])

    spec = FormalModuleSpec(1, (FormalSummand(LaurentPoly({-1: 1}), 2,
                                              CycloPoly([1, -2, 1])),))
    (b,) = realize(spec)
    assert (b.p, b.q, b.m) == (1, 1, 2)

    assert realize(FormalModuleSpec(3, (), regular_rank=4)) == []


def test_realize_canonicalizes_summands():
    spec = FormalModuleSpec(2, (FormalSummand(LaurentPoly({-2: 1}), 1, CycloPoly([-1, 1])),))
    (b,) = realize(spec)
    assert (b.p, b.q) == (1, 1) and b.alpha == LaurentPoly({-1: 1})


def test_realize_merges_orbit_closed_summands():
    spec = FormalModuleSpec(2, (
        FormalSummand(LaurentPoly({-3: 1}), 1, CycloPoly([1, 1])),
        FormalSummand(LaurentPoly({-3: -1}), 1, CycloPoly([1, 1])),
    ))
    branches = realize(spec)
    assert len(branches) == 1
    assert branches[0].m == 1


def test_realize_conflicting_orbit_is_an_error():
    spec = FormalModuleSpec(2, (
        FormalSummand(LaurentPoly({-3: 1}), 1, CycloPoly([1, 1])),
        FormalSummand(LaurentPoly({-3: -1}), 2, CycloPoly([1, 2, 1])),
    ))
    with pytest.raises(NormalizationConflictError):
        realize(spec)


def test_realize_output_validates_without_warnings():
    rng = random.Random(404)
    for _ in range(40):
        spec = rand_spec(rng)
        for b in realize(spec):
            report = validate(b)
            assert report.valid and not report.warnings


def test_roundtrip_examples():
    r = roundtrip_check(FormalModuleSpec(
        1, (FormalSummand(LaurentPoly({-1: 1}), 1, CycloPoly([-1, 1])),)))
    assert r.ok and not r.missing and not r.extra

    r = roundtrip_check(FormalModuleSpec(
        2, (FormalSummand(LaurentPoly({-3: 1}), 1, CycloPoly([1, 1])),)))
    assert r.ok
    assert r.computed_ramification == 2
    assert len(r.decomposition.factors) == 2  # both orbit elements show up

    r = roundtrip_check(FormalModuleSpec(2, (
        FormalSummand(LaurentPoly({-3: 1}), 1, CycloPoly([1, 1])),
        FormalSummand(LaurentPoly({-3: -1}), 1, CycloPoly([1, 1])),
    )))
    assert r.ok and len(r.matched) == 2


def test_roundtrip_matched_names_the_computed_factors():
    # One entry per orbit element, each naming the factor it matched.
    r = roundtrip_check(FormalModuleSpec(
        2, (FormalSummand(LaurentPoly({-3: 1}), 1, CycloPoly([1, 1])),)))
    assert r.ok
    got = sorted(((p0, laurent_sort_key(a), rank) for p0, a, rank in r.matched))
    want = sorted((2, laurent_sort_key(f.alpha), f.rank_branchwise)
                  for f in r.decomposition.factors)
    assert got == want
    assert {laurent_sort_key(a) for _, a, _ in r.matched} == {
        laurent_sort_key(LaurentPoly({-3: 1})), laurent_sort_key(LaurentPoly({-3: -1}))}


# One case per rule a FormalModuleSpec checks on construction:
# (id, p, summands as (alpha terms, rank, charpoly coefficients),
# regular rank, message).
INVALID_SPECS = [
    ("p_below_1", 0, [({-1: 1}, 1, [-1, 1])], 0,
     "ramification order must be positive"),
    ("negative_regular_rank", 1, [({-1: 1}, 1, [-1, 1])], -1,
     "regular rank must be nonnegative"),
    ("non_polar_alpha", 1, [({-1: 1, 1: 1}, 1, [-1, 1])], 0,
     "summand polar parts must be nonzero with only negative exponents"),
    ("zero_alpha", 1, [({}, 1, [-1, 1])], 0,
     "summand polar parts must be nonzero with only negative exponents"),
    ("rank_below_1", 1, [({-1: 1}, 0, [1])], 0,
     "summand rank must be positive"),
    ("charpoly_not_monic", 1, [({-1: 1}, 1, [1, 2])], 0,
     "summand charpoly must be monic of degree rank"),
    ("charpoly_degree_not_rank", 1, [({-1: 1}, 1, [1, 0, 1])], 0,
     "summand charpoly must be monic of degree rank"),
    ("repeated_alpha", 2, [({-3: 1}, 1, [1, 1]), ({-3: 1}, 1, [1, 1])], 0,
     "summand polar parts must be pairwise distinct"),
    ("repeated_alpha_at_two_orders", 1,
     [({-1: 1}, 1, [-1, 1]), ({-1: CycloNum(4, {0: 1})}, 1, [-1, 1])], 0,
     "summand polar parts must be pairwise distinct"),
]


@pytest.mark.parametrize("case", INVALID_SPECS, ids=[c[0] for c in INVALID_SPECS])
def test_invalid_spec_is_refused_on_construction(case):
    _, p, summands, regular, message = case
    with pytest.raises(ValueError) as exc:
        FormalModuleSpec(p, tuple(FormalSummand(LaurentPoly(a), rank, CycloPoly(cp))
                                  for a, rank, cp in summands),
                         regular_rank=regular)
    assert str(exc.value) == message


def test_roundtrip_reports_conflicts():
    r = roundtrip_check(FormalModuleSpec(2, (
        FormalSummand(LaurentPoly({-3: 1}), 1, CycloPoly([1, 1])),
        FormalSummand(LaurentPoly({-3: -1}), 2, CycloPoly([1, 2, 1])),
    )))
    assert not r.ok and r.conflicts


def test_roundtrip_with_reduced_ramification():
    # Spec at p = 4 whose single summand lives at primitive order 2: the
    # computed decomposition runs at ramification 2 but classes still match.
    spec = FormalModuleSpec(4, (FormalSummand(LaurentPoly({-6: 1}), 1, CycloPoly([-1, 1])),))
    r = roundtrip_check(spec)
    assert r.ok
    assert r.spec_ramification == 4 and r.computed_ramification == 2


def rand_spec(rng: random.Random, orbit_closed: bool = True) -> FormalModuleSpec:
    p = rng.randint(1, 6)
    n_orbits = rng.randint(0, 2)
    summands: list[FormalSummand] = []
    for _ in range(n_orbits):
        pole = rng.randint(1, 6)
        alpha = rand_polar(rng, pole, cyclo_coeffs=True)
        rank = rng.randint(1, 3)
        cp = rand_monic(rng, rank)
        orbit = orbit_closure(p, alpha)
        if orbit_closed:
            for a in orbit:
                if all(not (a == s.alpha) for s in summands):
                    summands.append(FormalSummand(a, rank, cp))
        else:
            if all(not (alpha == s.alpha) for s in summands):
                summands.append(FormalSummand(alpha, rank, cp))
    return FormalModuleSpec(p, tuple(summands), regular_rank=rng.randint(0, 2))


def test_roundtrip_random_orbit_closed():
    rng = random.Random(777)
    for _ in range(60):
        spec = rand_spec(rng)
        r = roundtrip_check(spec)
        assert r.ok, (spec, r)


def test_roundtrip_random_single_representatives():
    rng = random.Random(778)
    for _ in range(40):
        spec = rand_spec(rng, orbit_closed=False)
        r = roundtrip_check(spec)
        assert r.ok, (spec, r)


def test_each_polar_part_is_put_in_primitive_form_once(monkeypatch):
    # realize: once per summand.  roundtrip_check: once per summand at the
    # declared ramification, into the orbit table it makes the branches
    # from, then once per computed factor at the computed one.
    import expdirect.realization as realization

    calls = []
    real = realization.canonicalize

    def spy(p, alpha):
        calls.append(p)
        return real(p, alpha)

    monkeypatch.setattr(realization, "canonicalize", spy)
    rng = random.Random(780)
    nonempty = 0
    for _ in range(30):
        spec = rand_spec(rng)
        n = len(spec.summands)
        nonempty += n > 0
        calls.clear()
        realize(spec)
        assert calls == [spec.p] * n
        calls.clear()
        r = roundtrip_check(spec)
        assert r.ok
        assert calls == [spec.p] * n + \
            [r.computed_ramification] * len(r.decomposition.factors)
    assert nonempty > 15


def _reference_orbit_class_keys(p: int, alphas) -> list[tuple]:
    """Test-only reference: one orbit closure per polar part."""
    keys = []
    for alpha in alphas:
        p0, a0 = canonicalize(p, alpha)
        keys.append((p0, tuple(sorted(laurent_sort_key(f)
                                      for f in orbit_closure(p0, a0)))))
    return keys


def test_orbit_class_keys_match_one_closure_per_polar_part():
    # Orbits listed whole or by one member, shuffled.  Coefficients are
    # rationals, p-th roots of unity (some twist makes them rational) and
    # other roots; rational coefficients of some members are written at an
    # order not dividing p, which stores them at order 1 as any rational,
    # and those members are listed last, so most of them follow an
    # orbit-mate whose orbit was already built.  The pairs of a case are
    # keyed one at a time over one shared table.
    rng = random.Random(4711)
    after_mate = twisted_rational = 0
    for _ in range(300):
        p = rng.randint(1, 6)
        listed, rewritten = [], []
        for orbit_idx in range(rng.randint(1, 3)):
            terms = {}
            for e in range(-rng.randint(1, 4), 0):
                kind = rng.random()
                r = Fraction(rng.choice([-2, -1, 1, 2, 3]))
                if kind < 0.3:
                    terms[e] = r
                elif kind < 0.7:
                    terms[e] = root(p, rng.randrange(p)) * r
                elif kind < 0.85:
                    terms[e] = root(rng.randint(1, 6), 1) * r
            if not terms:
                terms[-1] = Fraction(1)
            orbit = orbit_closure(p, LaurentPoly(terms))
            members = orbit if rng.random() < 0.5 else [rng.choice(orbit)]
            for a in members:
                if any(a == b for _, b in listed + rewritten):
                    continue
                twisted_rational += any(
                    c.order == 1 and isinstance(terms[e], CycloNum)
                    and terms[e].order != 1 for e, c in a.terms.items())
                if rng.random() < 0.4 and any(
                        c.order == 1 for c in a.terms.values()):
                    orders = [n for n in range(2, 9) if p % n]
                    a = LaurentPoly({
                        e: CycloNum(rng.choice(orders), c.coeffs)
                        if c.order == 1 else c for e, c in a.terms.items()})
                    rewritten.append((orbit_idx, a))
                else:
                    listed.append((orbit_idx, a))
        rng.shuffle(listed)
        rng.shuffle(rewritten)
        after_mate += sum(any(j == i for j, _ in listed) for i, _ in rewritten)
        alphas = [a for _, a in listed + rewritten]
        orbit_of = {}
        assert [_orbit_key(orbit_of, *canonicalize(p, a)) for a in alphas] == \
            _reference_orbit_class_keys(p, alphas), (p, alphas)
    assert after_mate > 50 and twisted_rational > 50, (after_mate, twisted_rational)


def test_irregularity_consistency():
    rng = random.Random(779)
    for _ in range(40):
        spec = rand_spec(rng)
        branches = realize(spec)
        poly = polygon_from_branches(branches)
        expect = Fraction(0)
        seen = []
        for s in spec.summands:
            expect += Fraction(s.rank * s.alpha.pole_order(), spec.p)
        assert irregularity(poly) == expect
