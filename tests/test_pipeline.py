"""The stages ``report`` runs on one point, called one by one with the oracle
on, over ramified branches with holomorphic parts: ``validate_all`` for the
warnings, ``decompose``, and ``verify_decomposition``, which checks each
factor over one ``CopySeries`` per copy; and the records they return, whose
verdicts are read from their facts."""

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from expdirect.branch import validate, validate_all
from expdirect.cli import DEFAULT_ORDER_LIMIT, DEFAULT_TRUNCATION, run_file
from expdirect.cyclotomic import CycloPoly
from expdirect.decomposition import decompose
from expdirect.laurent import LaurentPoly
from expdirect.realization import FormalModuleSpec, FormalSummand, roundtrip_check
from expdirect.resolution import verify_decomposition
from tests.helpers import mk, rand_branch, worked_example_branches


def stages(branches):
    """(warnings, decomposition, oracle reports) of one point at the default
    truncation; the branches must be valid."""
    reports = validate_all(branches, DEFAULT_TRUNCATION)
    assert all(r.valid for r in reports), reports
    dec = decompose(branches)
    oracle = verify_decomposition(dec)
    return [w for r in reports for w in r.warnings], dec, oracle


def consistent(oracle) -> bool:
    return all(rep.consistent for rep in oracle)


def test_oracle_consistent_on_random_ramified_points():
    rng = random.Random(2024)
    for _ in range(15):
        branches = [rand_branch(rng, f"l{i}", max_p=3, max_q=4, cyclo_coeffs=True)
                    for i in range(rng.randint(1, 4))]
        _, dec, oracle = stages(branches)
        assert consistent(oracle)
        assert len(oracle) == len(dec.factors)


def test_oracle_handles_colliding_copies_with_delta():
    # One ramified branch whose two root-of-unity copies share the rewritten
    # polar part and the constant term: separation fails identically on the
    # symbolic and the blow-up side.
    b = mk("d", p=2, q=2, alpha=LaurentPoly({-2: 1}),
           delta=LaurentPoly({0: Fraction(1, 3), 1: 2}), m=1)
    _, dec, oracle = stages([b])
    assert consistent(oracle)
    assert not dec.star_holds
    (check,) = oracle
    assert not check.star_by_blowup and not check.star_by_polar


def test_oracle_separates_ramified_copies_by_twisted_delta():
    # p = 2 branch with delta(0) != 0: the two copies keep the same constant
    # term, while a second unramified branch with a different constant lands
    # elsewhere on the distinguished component.
    branches = [
        mk("a", p=2, q=3, alpha=LaurentPoly({-3: 1}),
           delta=LaurentPoly({0: 1, 2: 1}), m=1),
        mk("b", p=1, q=1, delta=LaurentPoly({0: 5}), m=2),
    ]
    _, dec, oracle = stages(branches)
    assert consistent(oracle) and dec.star_holds


def test_oracle_on_shared_factor_with_distinct_constants():
    # Two ramified branches share the polar part; each factor collects one
    # copy of each, and the blow-up must land them on distinct points.
    branches = [
        mk("x", p=2, q=3, alpha=LaurentPoly({-3: 1}),
           delta=LaurentPoly({0: 1}), m=1),
        mk("y", p=2, q=3, alpha=LaurentPoly({-3: 1}),
           delta=LaurentPoly({0: 2}), m=2,
           zeta=None),
    ]
    _, dec, oracle = stages(branches)
    assert consistent(oracle) and dec.star_holds
    assert [f.rank_branchwise for f in dec.factors] == [3, 3]
    for check in oracle:
        assert len(check.members_by_blowup) == 2 and check.star_by_blowup


def test_point_report_warnings_surface():
    b = mk("w", p=2, q=2, alpha=LaurentPoly({-2: 1}), m=1)
    warnings, _, _ = stages([b])
    assert any("non-primitive" in w for w in warnings)


def test_pipeline_matches_worked_example():
    _, dec, oracle = stages(worked_example_branches())
    assert consistent(oracle)
    assert dec.p == 2
    assert [f.rank_branchwise for f in dec.factors] == [2, 1, 1]


REPORT_GOLDENS = sorted((Path(__file__).parent / "golden" / "report").glob("*.in.json"))


def test_records_read_their_facts():
    # Each verdict is read from the facts its record holds, so a record
    # with one fact changed reads the verdict that fact gives.
    factors = 0
    for case in REPORT_GOLDENS:
        points, code = run_file(str(case), ("oracle",), DEFAULT_TRUNCATION,
                                DEFAULT_ORDER_LIMIT)
        assert code == 0
        for point in points:
            for rep in point.oracle:
                assert rep.membership_agrees and rep.consistent
                assert rep.members_by_blowup == tuple(name for name, _ in rep.points)
                # The polar side forgets the factor's first member.
                dropped = replace(rep, members_by_polar=rep.members_by_polar[1:])
                assert not dropped.membership_agrees and not dropped.consistent
                factors += 1
    assert factors > 30

    r = roundtrip_check(FormalModuleSpec(
        2, (FormalSummand(LaurentPoly({-3: 1}), 1, CycloPoly([1, 1])),)))
    assert r.ok and not replace(r, missing=r.matched[:1]).ok

    dec = decompose(worked_example_branches())
    assert dec.star_holds
    assert not replace(dec, star_witness=(("l1", 1), ("l2", 1))).star_holds

    report = validate(worked_example_branches()[0])
    assert report.valid and not replace(report, errors=("m must be >= 1",)).valid
