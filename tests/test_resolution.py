"""Blow-up chain structure, strict transforms, and the oracle's check of
each factor: membership, separation, and the rank and monodromy assembled
over the distinguished component."""

import dataclasses
import hashlib
import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from expdirect.branch import Branch, ramification_order, unramify
from expdirect.cli import DEFAULT_ORDER_LIMIT, main
from expdirect.cyclotomic import CycloNum, CycloPoly
from expdirect.decomposition import decompose
from expdirect.laurent import LaurentPoly, NormalFormKind, subst_root_power
from expdirect.resolution import (
    _twist,
    build_resolution,
    strict_transform,
    verify_corollary,
    verify_decomposition,
    CopySeries,
)
from expdirect.serialize import (branch_from_json, cyclo_from_json, dumps,
                                 laurent_from_json, tree_to_json, tree_to_text)
from tests.helpers import (conjugated_input, conjugated_values, galois_ks,
                           laurent_sum, mk, rand_branch, rand_monic, rand_polar,
                           root, unipotent, value_orders, worked_example_branches)


def flat_branch(label, alpha, delta0=None, m=1, zeta=None, delta=None):
    """A p = 1 branch from a polar part and an optional constant term."""
    if delta is None:
        delta = LaurentPoly({0: delta0}) if delta0 is not None else LaurentPoly.zero()
    zeta = zeta if zeta is not None else unipotent(m)
    return Branch(label, 1, alpha.pole_order(), alpha, delta, m, zeta)


def flat(*args, **kwargs):
    """The copy of ``flat_branch(...)``."""
    (copy,) = unramify([flat_branch(*args, **kwargs)])
    return copy


def oracle(branches):
    """``verify_decomposition`` of the branches' decomposition, each report
    keyed by its factor's polar part."""
    return {repr(rep.factor.alpha): rep
            for rep in verify_decomposition(decompose(branches))}


def test_chain_length_and_shape():
    for q in range(1, 6):
        tree = build_resolution(LaurentPoly({-q: 1}))
        assert len(tree.steps) == 2 * q
        poles = [s.pole_order for s in tree.steps]
        assert poles == [q] * q + list(range(q - 1, -1, -1))
        # Exactly one distinguished component, the last, meeting the rest at
        # one point: the last step's crossing, a first-order pole in u.
        assert poles.count(0) == 1 and poles[-1] == 0
        meeting = tree.steps[-1].crossing
        assert meeting.kind is NormalFormKind.POLE_ONE_VAR
        assert (meeting.pole_u, meeting.pole_v) == (1, 0)


def test_chain_with_general_coefficients():
    rng = random.Random(60)
    for q in range(1, 6):
        for _ in range(3):
            alpha = rand_polar(rng, q, cyclo_coeffs=True)
            tree = build_resolution(alpha)
            assert len(tree.steps) == 2 * q
            # The tags the chain classified: every crossing before the last
            # is a monomial pole, the last is the meeting point, and every
            # surviving axis crossing is a two-variable pole off E_2q.
            poles = [s.pole_order for s in tree.steps]
            assert poles.count(0) == 1 and poles[-1] == 0
            meeting = tree.steps[-1].crossing
            assert meeting.kind is NormalFormKind.POLE_ONE_VAR
            assert (meeting.pole_u, meeting.pole_v) == (1, 0)
            for step in tree.steps[:-1]:
                assert step.crossing.kind in (NormalFormKind.POLE_TWO_VAR,
                                              NormalFormKind.POLE_ONE_VAR)
            for ap in tree.axis_points:
                assert ap.tag.kind is NormalFormKind.POLE_TWO_VAR
                assert 1 <= ap.component < 2 * q


def test_tree_shape_depends_only_on_pole_order():
    t1 = build_resolution(LaurentPoly({-2: 1}))
    t2 = build_resolution(LaurentPoly({-2: Fraction(5, 3)}))
    assert [s.pole_order for s in t1.steps] == \
        [s.pole_order for s in t2.steps]


def test_build_rejects_bad_alpha():
    with pytest.raises(ValueError):
        build_resolution(LaurentPoly.zero())
    with pytest.raises(ValueError):
        build_resolution(LaurentPoly({-1: 1, 0: 2}))


def chain_alphas(rng: random.Random, count: int) -> list[LaurentPoly]:
    """Polar parts of pole order 1..24 whose coefficients are +-(1..3)/(1..3)
    times a root of unity of order 1, 3, 4, 5, 6, 8 or 12; some have a
    second term."""
    alphas = []
    for _ in range(count):
        q = rng.randint(1, 24)
        exps = [-q]
        if q > 1 and rng.random() < 0.4:
            exps.append(rng.randint(-q + 1, -1))
        terms = {}
        for e in exps:
            n = rng.choice([1, 3, 4, 5, 6, 8, 12])
            terms[e] = root(n, rng.randrange(n)) * Fraction(
                rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 3))
        alphas.append(LaurentPoly(terms))
    return alphas


# sha256 of the 500 trees below as JSON, recorded at commit 26f2eb0, where
# the chain still ran on general bivariate polynomials.
CHAIN_DIGEST = "ffdc7a3e63a109b73a95093853e547ea2697cc749d8dbd3e184fd547d89a2a41"


def test_chain_bytes_equal_the_recorded_digest():
    digest = hashlib.sha256()
    for alpha in chain_alphas(random.Random(16), 500):
        digest.update(dumps(tree_to_json(build_resolution(alpha))).encode())
    assert digest.hexdigest() == CHAIN_DIGEST


# sha256 of the same 500 trees as ``resolve --text`` writes them, each value
# as its one-line JSON, with the meeting point and the value chart.
CHAIN_TEXT_DIGEST = "e1db7cceb8b522cae7d99b6dd3b31cffe1b727e4cdc8a22c9649ed6a4a261941"


def test_chain_text_equals_the_recorded_digest():
    digest = hashlib.sha256()
    for alpha in chain_alphas(random.Random(16), 500):
        digest.update(tree_to_text(build_resolution(alpha)).encode())
    assert digest.hexdigest() == CHAIN_TEXT_DIGEST


RESOLVE_GOLDENS = sorted((Path(__file__).parent / "golden" / "resolve").glob("*.in.json"))


_MEETING = re.compile(r"  meeting point E(\d+)/E(\d+): (\S+) \(u\^(\d+) v\^(\d+)\)")


def _read_text(text: str) -> dict:
    """The shifts, the meeting point and the value chart that a ``resolve
    --text`` report writes, read back; each value through its JSON."""
    def value(data: str) -> CycloNum:
        return cyclo_from_json(json.loads(data), max_order=DEFAULT_ORDER_LIMIT)

    read = {"shifts": []}
    for line in text.splitlines():
        if "recenter v by " in line:
            read["shifts"].append(value(line.split(" by ", 1)[1].split("; ", 1)[0]))
        elif m := _MEETING.fullmatch(line):
            read["meeting_point"] = {
                "components": [int(m[1]), int(m[2])],
                "tag": {"kind": m[3], "pole_u": int(m[4]), "pole_v": int(m[5])}}
        elif line.startswith("  value chart: "):
            read["value_chart"] = {key: value(data) for key, data in (
                part.split(" ", 1) for part in line[15:].split("; "))}
    return read


def _tree_as_read(tree) -> dict:
    doc = tree_to_json(tree)
    return {"shifts": [s.shift for s in tree.steps],
            "meeting_point": doc["meeting_point"], "value_chart": doc["value_chart"]}


def test_text_shifts_read_back_as_the_chain_shifts(tmp_path):
    # The shifts, the meeting point and the value chart of the text read
    # back as the tree's, as tree_to_json writes them.
    for case in RESOLVE_GOLDENS:
        alpha = laurent_from_json(json.loads(case.read_text())["alpha"],
                                  max_order=DEFAULT_ORDER_LIMIT)
        out = tmp_path / "tree.txt"
        assert main(["resolve", "--text", "--input", str(case),
                     "--output", str(out)]) == 0
        assert _read_text(out.read_text()) == _tree_as_read(build_resolution(alpha))
    for alpha in chain_alphas(random.Random(16), 500):
        tree = build_resolution(alpha)
        assert _read_text(tree_to_text(tree)) == _tree_as_read(tree)


@pytest.mark.parametrize("case", RESOLVE_GOLDENS,
                         ids=[c.name[:-len(".in.json")] for c in RESOLVE_GOLDENS])
def test_resolve_commutes_with_galois_conjugation(case, tmp_path):
    # The chain is defined over Q, so resolving sigma_k(alpha), written by
    # multiplying every exponent of the input by k, gives sigma_k of the
    # golden tree.
    problem = json.loads(case.read_text())
    golden = json.loads(case.with_name(case.name.replace(".in.json", ".out.json"))
                        .read_text())
    for k in galois_ks(lcm(1, *value_orders(problem))):
        src, out = tmp_path / f"sigma{k}.in.json", tmp_path / f"sigma{k}.out.json"
        src.write_text(json.dumps(conjugated_input(problem, k)))
        assert main(["resolve", "--input", str(src), "--output", str(out)]) == 0
        assert conjugated_values(json.loads(out.read_text()), 1) == \
            conjugated_values(golden, k)


def test_chain_commutes_with_galois_conjugation():
    pairs = 0
    for alpha in chain_alphas(random.Random(17), 30):
        tree = json.loads(dumps(tree_to_json(build_resolution(alpha))))
        for k in galois_ks(lcm(*(c.order for c in alpha.terms.values()))):
            conjugate = LaurentPoly({
                e: CycloNum(c.order, {k * i: v for i, v in c.coeffs.items()})
                for e, c in alpha.terms.items()})
            got = json.loads(dumps(tree_to_json(build_resolution(conjugate))))
            assert conjugated_values(got, 1) == conjugated_values(tree, k)
            pairs += 1
    assert pairs > 100


REPORT_GOLDENS = sorted((Path(__file__).parent / "golden" / "report").glob("*.in.json"))


def test_twisted_chain_is_the_chain_of_the_twisted_polar_part():
    # The chain of alpha(zeta_n^d t) is the twist of alpha's chain: every
    # shift, value-chart entry and axis point compared, on every factor of
    # every report golden at its point's ramification (at least 2) and on
    # seeded chains up to pole order 24 at six orders n.
    pairs = []
    for case in REPORT_GOLDENS:
        for point in json.loads(case.read_text())["points"]:
            dec = decompose([branch_from_json(b, max_order=DEFAULT_ORDER_LIMIT)
                             for b in point["branches"]])
            n = max(dec.p, 2)
            pairs += [(f.alpha, n, d) for f in dec.factors for d in range(1, n)]
    rng = random.Random(18)
    for alpha in chain_alphas(random.Random(19), 40):
        pairs += [(alpha, n, rng.randrange(1, n)) for n in (2, 3, 5, 6, 7, 12)]
    assert len(pairs) > 300
    for alpha, n, d in pairs:
        twisted = _twist(build_resolution(alpha), n, d)
        assert twisted == build_resolution(subst_root_power(alpha, n, d, 1)), \
            (alpha, n, d)


def test_oracle_twists_one_chain_per_branch(monkeypatch):
    # On ramified points, each branch that owns a factor gets one chain
    # built, and the reports equal those with every chain built.
    import expdirect.resolution as resolution_mod

    built = []
    build = resolution_mod.build_resolution

    def counted(alpha):
        built.append(alpha)
        return build(alpha)

    monkeypatch.setattr(resolution_mod, "build_resolution", counted)
    rng = random.Random(63)
    twisted = 0
    for _ in range(4):
        branches = [dataclasses.replace(
            rand_branch(rng, f"b{pl}", max_q=3, trunc=3, cyclo_coeffs=True), p=pl)
            for pl in (1, 2, 3, 6)]
        dec = decompose(branches)
        built.clear()
        reports = verify_decomposition(dec)
        owners = {f.members[0][0] for f in dec.factors}
        assert len(built) == len(owners) < len(dec.factors)
        twisted += len(dec.factors) - len(owners)
        series = [CopySeries(u) for u in dec.copies]
        assert reports == tuple(verify_corollary(series, f, build(f.alpha))
                                for f in dec.factors)
    assert twisted > 20


def test_verify_corollary_refuses_the_chain_of_another_polar_part():
    dec = decompose(worked_example_branches())
    series = [CopySeries(u) for u in dec.copies]
    first, second = dec.factors[:2]
    with pytest.raises(ValueError, match="not that of the factor's polar part"):
        verify_corollary(series, first, build_resolution(second.alpha))


def test_strict_transform_membership():
    alpha = LaurentPoly({-2: 1, -1: 3})
    tree = build_resolution(alpha)
    # A member tracks all 2q = 4 centers; the others leave before the last.
    assert strict_transform(CopySeries(flat("in", alpha)), tree) == 4

    other_order = strict_transform(
        CopySeries(flat("qq", LaurentPoly({-3: 1}))), tree)
    assert other_order < 4

    other_coeff = strict_transform(
        CopySeries(flat("cc", LaurentPoly({-2: 1, -1: 4}))), tree)
    assert other_coeff < 4


def _ed_value(chart, v0):
    """The value of g at coordinate v0 of the distinguished component."""
    return (chart.num0 + chart.numlin * v0) * chart.den0.inv()


def test_strict_transform_separates_by_delta0():
    alpha = LaurentPoly({-2: 2, -1: 1})
    tree = build_resolution(alpha)
    y0 = CopySeries(flat("a", alpha, delta0=0))
    y1 = CopySeries(flat("b", alpha, delta0=1))
    assert strict_transform(y0, tree) == strict_transform(y1, tree) == 4
    assert not (y0[4] == y1[4])
    # The chart's value map recovers the constant term of the branch.
    assert _ed_value(tree.ed_chart, y0[4]) == CycloNum.zero()
    assert _ed_value(tree.ed_chart, y1[4]) == CycloNum.one()


def test_point_is_affine_in_delta0():
    rng = random.Random(15)
    for q in (1, 2, 3):
        alpha = rand_polar(rng, q, cyclo_coeffs=True)
        tree = build_resolution(alpha)

        def point(d0):
            y = CopySeries(flat("x", alpha, delta0=d0))
            assert strict_transform(y, tree) == 2 * q
            return y[2 * q]

        p0 = point(Fraction(0))
        p1 = point(Fraction(1))
        slope = p1 + (-p0)
        for d0 in (Fraction(5), Fraction(-7, 2), Fraction(13, 3)):
            assert point(d0) == p0 + slope * CycloNum.from_rational(d0)


def test_higher_delta_terms_do_not_move_the_point():
    alpha = LaurentPoly({-2: 1})
    tree = build_resolution(alpha)
    a = CopySeries(flat("a", alpha, delta=LaurentPoly({0: 3, 1: 5, 2: -1})))
    b = CopySeries(flat("b", alpha, delta0=3))
    assert strict_transform(a, tree) == strict_transform(b, tree) == 4
    assert a[4] == b[4]


def test_verify_corollary_on_unramified_worked_example():
    # Unramified copies of the golden instance, fed as p = 1 branches.
    x_plus_1 = CycloPoly([1, 1])
    branches = [
        flat_branch("l1", LaurentPoly({-2: 1}), m=2, zeta=CycloPoly([1, -2, 1])),
        flat_branch("l2x1", LaurentPoly({-3: -1}), zeta=x_plus_1),
        flat_branch("l2x2", LaurentPoly({-3: 1}), zeta=x_plus_1),
    ]
    reps = oracle(branches)
    assert all(rep.consistent for rep in reps.values())
    rep = reps[repr(LaurentPoly({-3: 1}))]
    assert rep.members_by_blowup == rep.members_by_polar == ("l2x2#1",)
    assert rep.rank_by_blowup == 1 and rep.charpoly_by_blowup == x_plus_1

    dup = branches + [flat_branch("dup", LaurentPoly({-3: 1}), zeta=x_plus_1)]
    rep3 = oracle(dup)[repr(LaurentPoly({-3: 1}))]
    assert rep3.consistent  # both sides agree the separation fails
    assert not rep3.star_by_blowup and not rep3.star_by_polar
    assert rep3.factor.charpoly is None and rep3.charpoly_by_blowup is None


def test_chi_psi_telescopes():
    # -chi over the distinguished component telescopes to the multiplicity
    # summed over the copies that meet it: verify_corollary's rank.
    alpha = LaurentPoly({-1: 1})
    branches = [flat_branch("a", alpha, m=2, zeta=CycloPoly([1, 2, 1])),
                flat_branch("far", LaurentPoly({-2: 1}))]
    reps = oracle(branches)
    rep = reps[repr(alpha)]
    assert rep.consistent and rep.rank_by_blowup == 2
    assert reps[repr(LaurentPoly({-2: 1}))].rank_by_blowup == 1
    # A chain no copy meets: everything cancels, to rank 0 and charpoly 1.
    dec = decompose(branches)
    empty = dataclasses.replace(dec.factors[0], alpha=LaurentPoly({-3: 1}),
                                members=(), rank_branchwise=0, charpoly=None)
    rep = verify_corollary([CopySeries(u) for u in dec.copies], empty,
                           build_resolution(empty.alpha))
    assert rep.consistent and rep.members_by_blowup == ()
    assert rep.rank_by_blowup == 0 and rep.charpoly_by_blowup == CycloPoly([1])


def test_chi_psi_shared_point_groups_multiplicities():
    # Two branches with equal constant term land on one point: still one
    # marked point, multiplicities added.
    alpha = LaurentPoly({-2: 1})
    b1 = flat_branch("a", alpha, delta0=0, m=2, zeta=CycloPoly([1, -2, 1]))
    b2 = flat_branch("b", alpha, delta=LaurentPoly({1: 1}), m=1)
    (rep,) = oracle([b1, b2]).values()
    assert rep.points[0][1] == rep.points[1][1]
    assert rep.consistent and rep.rank_by_blowup == 3


def test_zeta_psi_example():
    zeta = CycloPoly([1, 1])
    (rep,) = oracle([flat_branch("a", LaurentPoly({-1: 1}), zeta=zeta)]).values()
    assert rep.consistent and rep.charpoly_by_blowup == zeta


def test_zeta_psi_requires_separation():
    # Two copies meeting the distinguished component at one point: no
    # monodromy is assembled, on either side.
    alpha = LaurentPoly({-1: 1})
    (rep,) = oracle([flat_branch("a", alpha, delta0=0),
                     flat_branch("b", alpha, delta0=0)]).values()
    assert not rep.star_by_blowup and rep.charpoly_by_blowup is None
    assert rep.factor.charpoly is None and rep.consistent


def test_zeta_psi_random_cancellation():
    rng = random.Random(90)
    for _ in range(20):
        alpha = rand_polar(rng, rng.randint(1, 3))
        branches = []
        for i in range(rng.randint(1, 3)):
            m = rng.randint(1, 3)
            branches.append(flat_branch(f"b{i}", alpha, delta0=i, m=m,
                                        zeta=rand_monic(rng, m)))
        (rep,) = oracle(branches).values()
        want = CycloPoly([1])
        for b in branches:
            want = want * b.zeta
        assert rep.charpoly_by_blowup == want == rep.factor.charpoly
        assert rep.rank_by_blowup == sum(b.m for b in branches)
        assert rep.consistent


def reference_oracle(series, alpha):
    """The per-copy polar-part test and the pairwise separation loops that
    ``verify_corollary`` replaced: (members by polar part, separation by
    polar part, separation by blow-up)."""
    tree = build_resolution(alpha)
    copies = [y.copy for y in series]
    names = [f"{u.label}#{u.root_index}" for u in copies]
    by_polar = tuple(n for n, u in zip(names, copies) if u.alpha_sub == alpha)
    shifted = [laurent_sum(u.alpha_sub, LaurentPoly({0: u.delta0}))
               for u in copies if u.alpha_sub == alpha]
    star_polar = True
    for i in range(len(shifted)):
        for j in range(i + 1, len(shifted)):
            if shifted[i] == shifted[j]:
                star_polar = False
    n = len(tree.steps)
    points = [y[n] for y in series if strict_transform(y, tree) == n]
    star_blowup = True
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[i] == points[j]:
                star_blowup = False
    return by_polar, star_polar, star_blowup


@pytest.mark.parametrize("seed", [80, 81])
def test_factor_oracle_equals_the_per_copy_reference(seed):
    # Branches drawn from two polar parts and two constant terms, at
    # ramifications 1, 2 and 3: copies repeat polar parts and constants.
    rng = random.Random(seed)
    seen = set()
    for _ in range(12):
        pool = [rand_polar(rng, rng.randint(1, 3), cyclo_coeffs=True)
                for _ in range(2)]
        branches = []
        for i in range(rng.randint(2, 5)):
            alpha, m = rng.choice(pool), rng.randint(1, 2)
            branches.append(Branch(
                f"b{i}", rng.randint(1, 3), alpha.pole_order(), alpha,
                LaurentPoly({0: rng.randint(0, 1), 2: rng.randint(-2, 2)}),
                m, rand_monic(rng, m)))
        dec = decompose(branches)
        series = [CopySeries(u) for u in dec.copies]
        for rep in verify_decomposition(dec):
            assert (rep.members_by_polar, rep.star_by_polar, rep.star_by_blowup) \
                == reference_oracle(series, rep.factor.alpha)
            assert rep.consistent
            seen.add(rep.star_by_polar)
    assert seen == {True, False}


def test_mutant_factor_is_inconsistent():
    dec = decompose(worked_example_branches())
    series = [CopySeries(u) for u in dec.copies]
    first, second = dec.factors[:2]
    tree = build_resolution(first.alpha)
    assert first.charpoly != second.charpoly
    assert verify_corollary(series, first, tree).consistent

    rep = verify_corollary(
        series, dataclasses.replace(first, rank_branchwise=first.rank_branchwise + 1),
        tree)
    assert not rep.consistent and not rep.rank_agrees and rep.charpoly_agrees

    rep = verify_corollary(series, dataclasses.replace(first, charpoly=second.charpoly),
                           tree)
    assert not rep.consistent and rep.rank_agrees and not rep.charpoly_agrees
    assert rep.charpoly_by_blowup == first.charpoly


def test_series_truncation_error_names_required_depth():
    # alpha = t^-1, delta = 0: y = t, known through y[2].  y[7] would need
    # the holomorphic part through t^5, and the error says so.
    (u,) = unramify([mk("a", q=1)])
    y = CopySeries(u)
    assert y[1] == 1
    assert y[2] == 0
    with pytest.raises(IndexError, match=r"y\[7\] is past y\[2\].* t\^5$"):
        y[7]


def test_each_copy_knows_only_its_own_prefix():
    # p = lcm(1, 2, 3, 6) = 6.  Whatever the branch's ramification, each
    # copy's series reads y[2q], q its own pole order, and refuses
    # y[2q + 1]: from there on a term of the holomorphic part past its
    # constant term would count.
    branches = [mk(f"b{pl}", p=pl, q=1, alpha=LaurentPoly({-1: 1}),
                   delta=LaurentPoly({0: 1, 2: 3})) for pl in (1, 2, 3, 6)]
    copies = unramify(branches)
    assert len(copies) == 12
    for u in copies:
        q = u.alpha_sub.pole_order()
        assert q == 6 // int(u.label[1:])
        y = CopySeries(u)
        # y = t^q / (c + t^q), with c the twisted coefficient of alpha.
        assert y[2 * q] == -y[q] * y[q] != 0
        with pytest.raises(IndexError, match=r" t\^1$"):
            y[2 * q + 1]


def eager_y_coefficients(b, u, p, n):
    """Reference: y[0], ..., y[n-1] of y(t) = t^q / (B + t^q delta) for the
    copy ``u`` of branch ``b`` at ramification ``p``, with the full twisted
    holomorphic part, by the eager O(n^2) recurrence over all exponents."""
    delta_sub = subst_root_power(b.delta, b.p, u.root_index, p // b.p)
    qb = u.alpha_sub.pole_order()
    denom = {e + qb: c for e, c in u.alpha_sub.terms.items()}
    for e, c in delta_sub.terms.items():
        denom[e + qb] = denom.get(e + qb, CycloNum.zero()) + c
    inv = {0: denom[0].inv()}
    for k in range(1, n - qb):
        acc = CycloNum.zero()
        for i in range(1, k + 1):
            di = denom.get(i)
            if di is not None and (k - i) in inv:
                acc = acc + di * inv[k - i]
        if not acc.is_zero():
            inv[k] = -acc * inv[0]
    return [inv.get(j - qb, CycloNum.zero()) for j in range(n)]


@pytest.mark.parametrize("cyclo", [False, True])
def test_lazy_series_equals_the_eager_reference(cyclo):
    # Through y[2q] the series of alpha and delta0 alone is the series of
    # the full holomorphic part.
    rng = random.Random(41 if cyclo else 40)
    for _ in range(4):
        branches = [
            dataclasses.replace(
                rand_branch(rng, f"b{pl}", max_q=3, trunc=3, cyclo_coeffs=cyclo),
                p=pl)
            for pl in (1, 2, 3, 6)
        ]
        p = ramification_order(branches)
        by_label = {b.label: b for b in branches}
        for u in unramify(branches):
            y = CopySeries(u)
            n = 2 * u.alpha_sub.pole_order() + 1
            want = eager_y_coefficients(by_label[u.label], u, p, n)
            # Same element at the same order: the report bytes depend on it.
            got = [y[j] for j in range(n)]
            assert [(c.order, c.coeffs) for c in got] == \
                [(c.order, c.coeffs) for c in want]


def _result_key(y, tree):
    """The steps the copy matched, and its meeting point with its order when
    it matched all of them."""
    n = strict_transform(y, tree)
    if n < len(tree.steps):
        return n, None
    point = y[n]
    return n, (point.order, point.coeffs)


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
        dec = decompose(branches)
        shared = [CopySeries(u) for u in dec.copies]
        for factor in dec.factors:
            tree = build_resolution(factor.alpha)
            for u, y in zip(dec.copies, shared):
                assert _result_key(y, tree) == _result_key(CopySeries(u), tree)


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


def test_chain_inverts_its_slope_once(monkeypatch):
    # Every trace on a new component has slope -lead(alpha): one inversion
    # per chain, whatever the pole order and the coefficients.
    rng = random.Random(62)
    calls = count_arithmetic(monkeypatch)
    for _ in range(200):
        alpha = rand_polar(rng, rng.randint(1, 8), cyclo_coeffs=True)
        calls.clear()
        build_resolution(alpha)
        assert calls["inv"] == 1, alpha


def test_non_member_of_other_pole_order_reads_one_coefficient(monkeypatch):
    z = root(5, 1)
    tree = build_resolution(LaurentPoly({-2: z, -1: 3}))
    copies = [flat("lo", LaurentPoly({-1: z * 2}), delta=LaurentPoly({0: 1, 3: 2})),
              flat("hi", LaurentPoly({-3: z, -1: 1}), delta=LaurentPoly({1: 4}))]
    calls = count_arithmetic(monkeypatch)
    # "lo" leaves at y[1] = 1/B(0); "hi" leaves at y[2] = 0, before its
    # series is needed at all.
    for u, left_at, invs in zip(copies, (1, 2), (1, 0)):
        calls.clear()
        assert strict_transform(CopySeries(u), tree) == left_at
        assert calls["inv"] == invs and calls["mul"] == 0


def test_member_work_does_not_grow_with_truncation(monkeypatch):
    # Two branches that differ only past the constant term of their
    # holomorphic parts, one of them known to a far higher order, cost the
    # same arithmetic and meet the distinguished component at one point.
    z = root(7, 2)
    alpha = LaurentPoly({-3: z, -2: 1, -1: z * 3})
    tree = build_resolution(alpha)
    deltas = (LaurentPoly({0: 2, 1: -1, 5: 3}),
              LaurentPoly({0: 2, 1: z, 5: -7, 200: 1}))
    calls = count_arithmetic(monkeypatch)
    muls, points = [], []
    for delta in deltas:
        (u,) = unramify([mk("m", q=3, alpha=alpha, delta=delta)])
        calls.clear()
        y = CopySeries(u)
        assert strict_transform(y, tree) == 6
        points.append(y[6])
        muls.append(calls["mul"])
    assert muls[0] == muls[1] > 0
    assert points[0] == points[1]
