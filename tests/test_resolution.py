"""Blow-up chain structure, strict transforms, and the stratified totals."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from expdirect.branch import Branch, unramify
from expdirect.cyclotomic import CycloNum, CycloPoly, PolyFraction, root_of_unity
from expdirect.decomposition import StarConditionError, decompose
from expdirect.laurent import LaurentPoly, NormalFormKind
from expdirect.resolution import (
    PointKind,
    TruncationError,
    build_resolution,
    chi_psi,
    local_chi,
    strict_transform,
    verify_corollary,
    zeta_psi,
    CopySeries,
)
from tests.helpers import mk, rand_branch, rand_monic, rand_polar


def flat(label, alpha, delta0=None, m=1, zeta=None, delta=None):
    """The copy of a p = 1 branch from a polar part and an optional constant
    term, known to the default truncation."""
    if delta is None:
        delta = LaurentPoly({0: delta0}) if delta0 is not None else LaurentPoly.zero()
    q = alpha.pole_order()
    zeta = zeta if zeta is not None else CycloPoly([-1, 1]) ** m
    (copy,) = unramify([Branch(label, 1, q, alpha, delta, m, zeta)])
    return copy


def test_chain_length_and_shape():
    for q in range(1, 6):
        tree = build_resolution(LaurentPoly({-q: 1}))
        assert len(tree.steps) == 2 * q
        assert tree.distinguished == 2 * q
        poles = [c.pole_order for c in tree.components]
        assert poles == [q] * q + list(range(q - 1, -1, -1))
        assert all(c.pi1_order == 1 for c in tree.components)
        # Exactly one distinguished component, meeting the rest at one point.
        assert poles.count(0) == 1
        assert tree.p_point.tag.kind is NormalFormKind.POLE_ONE_VAR
        assert (tree.p_point.tag.pole_u, tree.p_point.tag.pole_v) == (1, 0)
        assert tree.p_point.pi1_orders == (1, 1)


def test_chain_with_general_coefficients():
    rng = random.Random(60)
    for q in range(1, 6):
        for _ in range(3):
            alpha = rand_polar(rng, q, cyclo_coeffs=True)
            tree = build_resolution(alpha)
            assert len(tree.steps) == 2 * q
            forms = tree.normal_forms()
            assert forms[("generic", 2 * q)].kind is NormalFormKind.HOLOMORPHIC_COORD
            for key, tag in forms.items():
                if key == ("P",):
                    assert tag.kind is NormalFormKind.POLE_ONE_VAR
                elif key[0] == "generic" and key[1] != 2 * q:
                    assert tag.kind is NormalFormKind.POLE_ONE_VAR
                elif key[0] in ("crossing", "axis"):
                    assert tag.kind in (NormalFormKind.POLE_TWO_VAR,
                                        NormalFormKind.POLE_ONE_VAR)


def test_tree_shape_depends_only_on_pole_order():
    t1 = build_resolution(LaurentPoly({-2: 1}))
    t2 = build_resolution(LaurentPoly({-2: Fraction(5, 3)}))
    assert len(t1.steps) == len(t2.steps)
    assert [c.pole_order for c in t1.components] == \
        [c.pole_order for c in t2.components]


def test_build_rejects_bad_alpha():
    with pytest.raises(ValueError):
        build_resolution(LaurentPoly.zero())
    with pytest.raises(ValueError):
        build_resolution(LaurentPoly({-1: 1, 0: 2}))


def test_strict_transform_membership():
    alpha = LaurentPoly({-2: 1, -1: 3})
    tree = build_resolution(alpha)
    inside = strict_transform(CopySeries(flat("in", alpha)), tree)
    assert inside.meets_ed and inside.point_on_ed is not None

    other_order = strict_transform(
        CopySeries(flat("qq", LaurentPoly({-3: 1}))), tree)
    assert not other_order.meets_ed and other_order.point_on_ed is None

    other_coeff = strict_transform(
        CopySeries(flat("cc", LaurentPoly({-2: 1, -1: 4}))), tree)
    assert not other_coeff.meets_ed


def test_strict_transform_separates_by_delta0():
    alpha = LaurentPoly({-2: 2, -1: 1})
    tree = build_resolution(alpha)
    r0 = strict_transform(CopySeries(flat("a", alpha, delta0=0)), tree)
    r1 = strict_transform(CopySeries(flat("b", alpha, delta0=1)), tree)
    assert r0.meets_ed and r1.meets_ed
    assert not (r0.point_on_ed == r1.point_on_ed)
    # The chart's value map recovers the constant term of the branch.
    assert tree.ed_chart.value(r0.point_on_ed) == CycloNum.zero()
    assert tree.ed_chart.value(r1.point_on_ed) == CycloNum.one()


def test_point_is_affine_in_delta0():
    rng = random.Random(15)
    for q in (1, 2, 3):
        alpha = rand_polar(rng, q, cyclo_coeffs=True)
        tree = build_resolution(alpha)

        def point(d0):
            res = strict_transform(CopySeries(flat("x", alpha, delta0=d0)), tree)
            assert res.meets_ed
            return res.point_on_ed

        p0 = point(Fraction(0))
        p1 = point(Fraction(1))
        slope = p1 - p0
        for d0 in (Fraction(5), Fraction(-7, 2), Fraction(13, 3)):
            assert point(d0) == p0 + slope * CycloNum.from_rational(d0)


def test_higher_delta_terms_do_not_move_the_point():
    alpha = LaurentPoly({-2: 1})
    tree = build_resolution(alpha)
    a = strict_transform(CopySeries(
        flat("a", alpha, delta=LaurentPoly({0: 3, 1: 5, 2: -1}))), tree)
    b = strict_transform(CopySeries(flat("b", alpha, delta0=3)), tree)
    assert a.meets_ed and b.meets_ed and a.point_on_ed == b.point_on_ed


def test_verify_corollary_on_unramified_worked_example():
    # Unramified copies of the golden instance, fed as p = 1 branches.
    lam = CycloPoly.variable()
    one = CycloPoly.one()
    branches = [
        flat("l1", LaurentPoly({-2: 1}), m=2, zeta=(lam - one) ** 2),
        flat("l2x1", LaurentPoly({-3: -1}), zeta=lam + one),
        flat("l2x2", LaurentPoly({-3: 1}), zeta=lam + one),
    ]
    series = [CopySeries(u) for u in branches]
    rep = verify_corollary(series, LaurentPoly({-3: 1}))
    assert rep.consistent
    assert rep.members_by_blowup == ("l2x2#1",)

    rep2 = verify_corollary(series, LaurentPoly({-1: 1}))
    assert rep2.consistent and rep2.members_by_blowup == ()

    dup = branches + [flat("dup", LaurentPoly({-3: 1}), zeta=lam + one)]
    rep3 = verify_corollary([CopySeries(u) for u in dup], LaurentPoly({-3: 1}))
    assert rep3.consistent  # both sides agree the separation fails
    assert not rep3.star_by_blowup and not rep3.star_by_polar


def test_local_chi_table():
    assert local_chi(PointKind.CROSSING_POLE, 7) == 0
    assert local_chi(PointKind.SMOOTH_POLE, 3) == 0
    assert local_chi(PointKind.DISTINGUISHED_MEET, 5) == -5
    assert local_chi(PointKind.CHART_POINT, 5, [2, 1]) == 2
    assert local_chi(PointKind.CHART_POINT, 5) == 5


def test_chi_psi_telescopes():
    alpha = LaurentPoly({-1: 1})
    tree = build_resolution(alpha)
    b = flat("a", alpha, m=2, zeta=CycloPoly([-1, 1]) ** 2)
    transforms = [strict_transform(CopySeries(b), tree)]
    for r in range(1, 7):
        assert chi_psi(tree, transforms, {"a": 2}, r) == -2
    # Empty membership: everything cancels.
    out = strict_transform(CopySeries(flat("far", LaurentPoly({-2: 1}))), tree)
    for r in range(1, 7):
        assert chi_psi(tree, [out], {"far": 1}, r) == 0


def test_chi_psi_shared_point_groups_multiplicities():
    # Two branches with equal constant term land on one point: still one
    # marked point, multiplicities added.
    alpha = LaurentPoly({-2: 1})
    tree = build_resolution(alpha)
    b1 = flat("a", alpha, delta0=0, m=2, zeta=CycloPoly([-1, 1]) ** 2)
    b2 = flat("b", alpha, delta=LaurentPoly({1: 1}), m=1)
    transforms = [strict_transform(CopySeries(x), tree) for x in (b1, b2)]
    assert transforms[0].point_on_ed == transforms[1].point_on_ed
    for r in range(1, 7):
        assert chi_psi(tree, transforms, {"a": 2, "b": 1}, r) == -3


def test_zeta_psi_example():
    lam = CycloPoly.variable()
    one = CycloPoly.one()
    alpha = LaurentPoly({-1: 1})
    tree = build_resolution(alpha)
    b = flat("a", alpha, zeta=lam + one)
    transforms = [strict_transform(CopySeries(b), tree)]
    got = zeta_psi(tree, transforms, {"a": lam + one}, zeta_r=lam - one)
    assert got == PolyFraction(CycloPoly.one(), lam + one)


def test_zeta_psi_requires_separation():
    alpha = LaurentPoly({-1: 1})
    tree = build_resolution(alpha)
    b1 = flat("a", alpha, delta0=0)
    b2 = flat("b", alpha, delta0=0)
    transforms = [strict_transform(CopySeries(x), tree) for x in (b1, b2)]
    with pytest.raises(StarConditionError):
        zeta_psi(tree, transforms, {"a": CycloPoly([-1, 1]),
                                    "b": CycloPoly([-1, 1])},
                 zeta_r=CycloPoly([-1, 1]))


def test_zeta_psi_random_cancellation():
    rng = random.Random(90)
    for _ in range(20):
        q = rng.randint(1, 3)
        alpha = rand_polar(rng, q)
        tree = build_resolution(alpha)
        n = rng.randint(0, 3)
        branches = [
            flat(f"b{i}", alpha, delta0=i, m=rng.randint(1, 3))
            for i in range(n)
        ]
        zetas = {b.label: rand_monic(rng, b.m) for b in branches}
        transforms = [strict_transform(CopySeries(b), tree) for b in branches]
        for r in (1, 2, 5):
            zr = rand_monic(rng, r)
            got = zeta_psi(tree, transforms, zetas, zr)
            want = PolyFraction.one()
            for b in branches:
                want = want * PolyFraction(CycloPoly.one(), zetas[b.label])
            assert got == want


def test_series_truncation_error_names_required_depth():
    # alpha = t^-1, delta = 0 and truncation 4: y = t, exact below 2 + 4 + 1.
    (u,) = unramify([mk("a", q=1)], 4)
    y = CopySeries(u)
    assert y[1] == 1
    assert y[6] == 0
    with pytest.raises(TruncationError) as exc:
        y[7]
    assert exc.value.required_truncation == 5


def test_each_copy_knows_only_its_own_prefix():
    # p = lcm(1, 2, 3, 6) = 6.  A holomorphic part exact to order T in t is
    # exact to order (p/p_l)*(T+1) - 1 in the ramified variable, so the
    # least ramified branch knows the longest prefix.
    T = 2
    branches = [mk(f"b{pl}", p=pl, q=1, alpha=LaurentPoly({-1: 1}),
                   delta=LaurentPoly({0: 1, T: 3})) for pl in (1, 2, 3, 6)]
    copies = unramify(branches, T)
    assert len(copies) == 12
    for u in copies:
        pl = int(u.label[1:])
        assert u.truncation == (6 // pl) * (T + 1) - 1

        # y = t^q / (t^q alpha + t^q delta) is exact through exponent
        # 2q + truncation; the next coefficient is unknown, not zero.
        q = u.alpha_sub.pole_order()
        y = CopySeries(u)
        y[2 * q + u.truncation]
        with pytest.raises(TruncationError) as exc:
            y[2 * q + u.truncation + 1]
        assert exc.value.required_truncation == u.truncation + 1


def eager_y_coefficients(u):
    """Reference: every known coefficient of y(t) = t^q / (B + t^q delta),
    by the eager O(n^2) recurrence over all exponents."""
    qb = u.alpha_sub.pole_order()
    denom = {e + qb: c for e, c in u.alpha_sub.terms.items()}
    for e, c in u.delta_sub.terms.items():
        denom[e + qb] = denom.get(e + qb, CycloNum.zero()) + c
    inv = {0: denom[0].inv()}
    for k in range(1, qb + u.truncation + 1):
        acc = CycloNum.zero()
        for i in range(1, k + 1):
            di = denom.get(i)
            if di is not None and (k - i) in inv:
                acc = acc + di * inv[k - i]
        if not acc.is_zero():
            inv[k] = -acc * inv[0]
    return [inv.get(j - qb, CycloNum.zero())
            for j in range(2 * qb + u.truncation + 1)]


@pytest.mark.parametrize("cyclo", [False, True])
def test_lazy_series_equals_the_eager_reference(cyclo):
    rng = random.Random(41 if cyclo else 40)
    for _ in range(4):
        branches = [
            dataclasses.replace(
                rand_branch(rng, f"b{pl}", max_q=3, trunc=3, cyclo_coeffs=cyclo),
                p=pl)
            for pl in (1, 2, 3, 6)
        ]
        for u in unramify(branches, 3):
            y = CopySeries(u)
            want = eager_y_coefficients(u)
            # Same element at the same order: the report bytes depend on it.
            got = [y[j] for j in range(len(want))]
            assert [(c.order, c.coeffs) for c in got] == \
                [(c.order, c.coeffs) for c in want]
            with pytest.raises(TruncationError):
                y[len(want)]


def _result_key(res):
    point = res.point_on_ed
    return (res.label, res.meets_ed, res.steps_matched,
            None if point is None else (point.order, point.coeffs))


@pytest.mark.parametrize("seed", [70, 71, 72])
def test_shared_series_equal_fresh_series_per_pair(seed):
    # One series per copy, read by every factor in turn, gives what a fresh
    # series per (copy, factor) pair gives, down to the order of each point.
    rng = random.Random(seed)
    for _ in range(3):
        branches = [
            dataclasses.replace(
                rand_branch(rng, f"b{pl}", max_q=3, trunc=3, cyclo_coeffs=True),
                p=pl)
            for pl in (1, 2, 3, 6)
        ]
        # A twin of one branch with another constant term shares its factors.
        twin = rng.choice(branches)
        branches.append(dataclasses.replace(
            twin, label="twin", delta=LaurentPoly({0: rng.randint(2, 9)})))
        dec = decompose(branches, truncation=3)
        shared = [CopySeries(u) for u in dec.copies]
        for factor in dec.factors:
            tree = build_resolution(factor.alpha)
            for u, y in zip(dec.copies, shared):
                assert _result_key(strict_transform(y, tree)) == \
                    _result_key(strict_transform(CopySeries(u), tree))


def count_arithmetic(monkeypatch):
    calls = Counter()
    mul, inv = CycloNum.__mul__, CycloNum.inv

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_inv(self):
        calls["inv"] += 1
        return inv(self)

    monkeypatch.setattr(CycloNum, "__mul__", counted_mul)
    monkeypatch.setattr(CycloNum, "inv", counted_inv)
    return calls


def test_non_member_of_other_pole_order_reads_one_coefficient(monkeypatch):
    z = root_of_unity(5, 1)
    tree = build_resolution(LaurentPoly({-2: z, -1: 3}))
    copies = [flat("lo", LaurentPoly({-1: z * 2}), delta=LaurentPoly({0: 1, 3: 2})),
              flat("hi", LaurentPoly({-3: z, -1: 1}), delta=LaurentPoly({1: 4}))]
    calls = count_arithmetic(monkeypatch)
    # "lo" leaves at y[1] = 1/B(0); "hi" leaves at y[2] = 0, before its
    # series is needed at all.
    for u, left_at, invs in zip(copies, (1, 2), (1, 0)):
        calls.clear()
        res = strict_transform(CopySeries(u), tree)
        assert not res.meets_ed and res.steps_matched == left_at
        assert calls["inv"] == invs and calls["mul"] == 0


def test_member_work_does_not_grow_with_truncation(monkeypatch):
    z = root_of_unity(7, 2)
    alpha = LaurentPoly({-3: z, -2: 1, -1: z * 3})
    tree = build_resolution(alpha)
    branch = mk("m", q=3, alpha=alpha, delta=LaurentPoly({0: 2, 1: -1, 5: 3}))
    calls = count_arithmetic(monkeypatch)
    muls, points = [], []
    for truncation in (8, 200):
        (u,) = unramify([branch], truncation)
        calls.clear()
        res = strict_transform(CopySeries(u), tree)
        assert res.meets_ed and res.steps_matched == 6
        muls.append(calls["mul"])
        points.append(res.point_on_ed)
    assert muls[0] == muls[1] > 0
    assert points[0] == points[1]
