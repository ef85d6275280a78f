"""run_point with the oracle on, over ramified branches with holomorphic parts."""

import random
from fractions import Fraction

import pytest

from expdirect.branch import ValidationError
from expdirect.cli import Options, run_point
from expdirect.laurent import LaurentPoly
from tests.helpers import mk, rand_branch, worked_example_branches


def test_oracle_consistent_on_random_ramified_points():
    rng = random.Random(2024)
    for _ in range(15):
        branches = [rand_branch(rng, f"l{i}", max_p=3, max_q=4, cyclo_coeffs=True)
                    for i in range(rng.randint(1, 4))]
        rep = run_point("0", 0, branches, Options())
        assert rep.consistent
        assert rep.oracle is not None
        assert len(rep.oracle) == len(rep.decomposition.factors)


def test_oracle_handles_colliding_copies_with_delta():
    # One ramified branch whose two root-of-unity copies share the rewritten
    # polar part and the constant term: separation fails identically on the
    # symbolic and the blow-up side.
    b = mk("d", p=2, q=2, alpha=LaurentPoly({-2: 1}),
           delta=LaurentPoly({0: Fraction(1, 3), 1: 2}), m=1)
    rep = run_point("0", 0, [b], Options())
    assert rep.consistent
    assert not rep.decomposition.star_holds
    (check,) = rep.oracle
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
    rep = run_point("0", 0, branches, Options())
    assert rep.consistent and rep.decomposition.star_holds


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
    rep = run_point("0", 0, branches, Options())
    assert rep.consistent and rep.decomposition.star_holds
    assert [f.rank_branchwise for f in rep.decomposition.factors] == [3, 3]
    for check in rep.oracle:
        assert len(check.members_by_blowup) == 2 and check.star_by_blowup


def test_point_report_warnings_surface():
    b = mk("w", p=2, q=2, alpha=LaurentPoly({-2: 1}), m=1)
    rep = run_point("0", 0, [b], Options())
    assert any("non-primitive" in w for w in rep.warnings)


def test_run_point_matches_worked_example():
    rep = run_point("0", 0, worked_example_branches(), Options())
    assert rep.consistent
    assert rep.decomposition.p == 2
    assert [f.rank_branchwise for f in rep.decomposition.factors] == [2, 1, 1]


def test_run_point_refuses_delta_past_its_declared_truncation():
    b = mk("a", delta=LaurentPoly({0: 1, 9: 2}))
    with pytest.raises(ValidationError) as exc:
        run_point("0", 0, [b], Options())
    assert str(exc.value) == "delta support exceeds the declared truncation 8"
    assert run_point("0", 0, [b], Options(truncation=9)).consistent
