"""Acceptance gate: every criterion at its stated size and tolerance.

All checks are exact (zero tolerance) except the numeric agreement check,
whose threshold is 1e-30 at 45 working digits with an interval-safety margin.
Each test prints one PASS line; run with `pytest tests/test_acceptance.py -v`.
"""

import itertools
import random
from fractions import Fraction

import mpmath
import pytest

from expdirect.branch import ramification_order
from expdirect.cyclotomic import CycloNum, CycloPoly
from expdirect.decomposition import decompose, exponential_factors, star_condition
from expdirect.laurent import LaurentPoly, NormalFormKind
from expdirect.newton import (
    NewtonPolygon,
    irregularity,
    polygon_from_branches,
    slopes,
)
from expdirect.realization import FormalModuleSpec, FormalSummand, realize, \
    roundtrip_check
from expdirect.resolution import (
    CopySeries,
    build_resolution,
    strict_transform,
    verify_corollary,
)
from tests.helpers import (
    mk,
    numeric,
    rand_branch,
    rand_cyclo,
    rand_monic,
    rand_polar,
    worked_example_branches,
)
from tests.test_newton import grid_minkowski_vertices
from tests.test_realization import rand_spec


def _report(n: int, name: str):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def _branch_corpus(rng, count):
    for _ in range(count):
        yield [rand_branch(rng, f"l{i}", max_p=4, max_q=6, max_m=3)
               for i in range(rng.randint(1, 6))]


def test_criterion_1_polygon_bookkeeping():
    rng = random.Random(11_001)
    checked = 0
    for branches in _branch_corpus(rng, 500):
        poly = polygon_from_branches(branches)
        assert slopes(poly) == {Fraction(b.q, b.p) for b in branches}
        assert irregularity(poly) == sum(b.m * b.q for b in branches)
        checked += 1
    assert checked == 500
    _report(1, "slope set and irregularity on 500 random branch sets")


def test_criterion_2_minkowski_grid_oracle():
    checked = 0
    # Exhaustive small family.
    candidates = [(w, h) for w in range(1, 6) for h in range(1, 6)]
    for n in (1, 2):
        for combo in itertools.combinations_with_replacement(candidates, n):
            if sum(w + h for w, h in combo) <= 14:
                got = NewtonPolygon.from_edges(combo)
                expect = grid_minkowski_vertices(list(combo))
                assert [(int(x), int(y)) for x, y in got.vertices()] == expect
                checked += 1
    # Random corpus up to the full size bound.
    rng = random.Random(11_002)
    done = 0
    while done < 60:
        edges = []
        for _ in range(rng.randint(1, 6)):
            m, p, q = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 6)
            edges.append((m * p, m * q))
        if sum(w + h for w, h in edges) > 40:
            continue
        got = NewtonPolygon.from_edges(edges)
        expect = grid_minkowski_vertices(edges)
        assert [(int(x), int(y)) for x, y in got.vertices()] == expect
        done += 1
        checked += 1
    _report(2, f"grid Minkowski oracle on {checked} inputs of size <= 40")


def test_criterion_3_rank_pole_vs_irregularity():
    rng = random.Random(11_003)
    checked = 0
    for branches in _branch_corpus(rng, 500):
        dec = decompose(branches)
        poly = polygon_from_branches(branches)
        assert sum(f.rank_branchwise * f.pole_order for f in dec.factors) \
            == dec.p * irregularity(poly)
        checked += 1
    assert checked == 500
    _report(3, "factor ranks vs polygon irregularity on 500 random branch sets")


def _unramified_instance(rng):
    """<= 5 branches with p = 1, pole <= 4, truncation 8, engineered overlaps."""
    n_alphas = rng.randint(1, 3)
    alphas = []
    while len(alphas) < n_alphas:
        a = rand_polar(rng, rng.randint(1, 4), cyclo_coeffs=True)
        if all(not (a == b) for b in alphas):
            alphas.append(a)
    branches = []
    for i in range(rng.randint(1, 5)):
        alpha = alphas[rng.randint(0, n_alphas - 1)]
        delta = {}
        if rng.random() < 0.7:
            delta[0] = Fraction(rng.randint(-3, 3))
        for e in range(1, 9):
            if rng.random() < 0.15:
                delta[e] = Fraction(rng.randint(-2, 2))
        m = rng.randint(1, 3)
        branches.append(mk(f"b{i}", p=1, q=alpha.pole_order(), alpha=alpha,
                           delta=LaurentPoly(delta), m=m,
                           zeta=rand_monic(rng, m)))
    target = alphas[0] if rng.random() < 0.8 \
        else rand_polar(rng, rng.randint(1, 4), cyclo_coeffs=True)
    return branches, target


def test_criterion_4_strict_transform_oracle():
    rng = random.Random(11_004)
    checked = 0
    for _ in range(100):
        branches, alpha = _unramified_instance(rng)
        dec = decompose(branches)
        series = [CopySeries(u) for u in dec.copies]
        for factor in dec.factors:
            rep = verify_corollary(series, factor)
            assert rep.membership_agrees, rep
            assert rep.star_agrees, rep
        # The target need not be a factor: a copy meets its distinguished
        # component exactly when it has the target's polar part.
        tree = build_resolution(alpha)
        for y in series:
            assert (strict_transform(y, tree) == 2 * alpha.pole_order()) == \
                (y.copy.alpha_sub == alpha)
        checked += 1
    assert checked == 100
    _report(4, "blow-up membership and separation oracle on 100 instances")


def test_criterion_5_stratified_totals_telescope():
    # verify_corollary assembles each factor's rank (-chi) and monodromy
    # (1/zeta) over the distinguished component; both must equal the direct
    # formulas over the branches with the factor's polar part.
    rng = random.Random(11_005)
    chi_checked = zeta_checked = 0
    while chi_checked < 100 or zeta_checked < 100:
        branches, _ = _unramified_instance(rng)
        dec = decompose(branches)
        series = [CopySeries(u) for u in dec.copies]
        for factor in dec.factors:
            rep = verify_corollary(series, factor)
            assert rep.consistent, rep
            members = [b for b in branches if b.alpha == factor.alpha]
            assert rep.rank_by_blowup == sum(b.m for b in members)
            chi_checked += 1
            if rep.star_by_blowup:
                want = CycloPoly([1])
                for b in members:
                    want = want * b.zeta
                assert rep.charpoly_by_blowup == want
                zeta_checked += 1
            else:
                assert rep.charpoly_by_blowup is None
    _report(5, f"Euler/zeta telescoping on {chi_checked} chi and "
               f"{zeta_checked} zeta instances, over decomposed factors")


def test_criterion_6_resolution_structure():
    rng = random.Random(11_006)
    checked = 0
    for q in range(1, 6):
        for _ in range(4):
            alpha = rand_polar(rng, q, cyclo_coeffs=True)
            tree = build_resolution(alpha)
            assert len(tree.steps) == 2 * q
            # The last component, E_2q, is the only one without a pole.
            poles = [s.pole_order for s in tree.steps]
            assert poles.count(0) == 1 and poles[-1] == 0
            # Every point the chain classified is a monomial pole; the
            # meeting point of the distinguished component, the last
            # step's crossing, is u^-1.
            tags = [s.crossing for s in tree.steps]
            tags += [ap.tag for ap in tree.axis_points]
            for tag in tags:
                assert tag.kind in (NormalFormKind.POLE_ONE_VAR,
                                    NormalFormKind.POLE_TWO_VAR)
            meeting = tree.steps[-1].crossing
            assert (meeting.pole_u, meeting.pole_v) == (1, 0)
            assert all(ap.component < 2 * q for ap in tree.axis_points)
            checked += 1
    assert checked == 20
    _report(6, "2q blow-ups and full normal-form classification, q in 1..5")


def test_criterion_7_realization_round_trip():
    rng = random.Random(11_007)
    checked = 0
    for _ in range(200):
        spec = rand_spec(rng)
        rep = roundtrip_check(spec)
        assert rep.ok, (spec, rep)
        checked += 1
    assert checked == 200
    _report(7, "realize/decompose round trip on 200 orbit-closed descriptions")


def test_criterion_8_cyclotomic_soundness():
    rng = random.Random(11_008)
    pairs = 0
    for _ in range(1000):
        a = rand_cyclo(rng)
        if rng.random() < 0.25:
            order = a.order * rng.randint(1, 4)
            b = CycloNum(order, a.lift(order))
        elif rng.random() < 0.5:
            b = a + rand_cyclo(rng, max_order=6)
        else:
            b = rand_cyclo(rng)
        diff = abs(numeric(a, 45) - numeric(b, 45))
        assert diff < mpmath.mpf("1e-35") or diff > mpmath.mpf("1e-25")
        assert (a == b) == (diff < mpmath.mpf("1e-30"))
        pairs += 1
    assert pairs == 1000

    for _ in range(200):
        a, b, c = (rand_cyclo(rng, max_order=10) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == 1
    _report(8, "symbolic equality vs 30+ digit numerics on 1000 pairs; axioms")


def test_criterion_9_worked_instance_golden():
    branches = worked_example_branches()
    assert ramification_order(branches) == 2

    poly = polygon_from_branches(branches)
    assert slopes(poly) == {Fraction(1), Fraction(3, 2)}
    assert irregularity(poly) == 5

    dec = decompose(branches)
    assert dec.p == 2 and dec.star_holds
    assert [f.alpha for f in dec.factors] == [
        LaurentPoly({-2: 1}), LaurentPoly({-3: -1}), LaurentPoly({-3: 1})]
    assert [f.rank_branchwise for f in dec.factors] == [2, 1, 1]
    assert dec.factors[0].charpoly == CycloPoly([1, -2, 1])  # (x - 1)^2
    assert dec.factors[1].charpoly == CycloPoly([1, 1])
    assert dec.factors[2].charpoly == CycloPoly([1, 1])

    # Independent confirmations before freezing: the grid oracle from
    # criterion 2 on the polygon, and the blow-up oracle from criterion 4.
    expect = grid_minkowski_vertices([(2, 2), (2, 3)])
    assert [(int(x), int(y)) for x, y in poly.vertices()] == expect
    series = [CopySeries(u) for u in dec.copies]
    for factor in dec.factors:
        rep = verify_corollary(series, factor)
        assert rep.consistent
        assert rep.rank_by_blowup == factor.rank_branchwise
        assert rep.charpoly_by_blowup == factor.charpoly
    _report(9, "golden two-branch instance reproduces all frozen values")
