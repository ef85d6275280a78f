"""Exponential factor grouping, ranks, separation condition, monodromy."""

import random
from fractions import Fraction

import mpmath
import pytest

from expdirect.branch import ValidationError, ramification_order, unramify
from expdirect.cyclotomic import CycloNum, CycloPoly
from expdirect.decomposition import (
    decompose,
    exponential_factors,
    keyed_copies,
    laurent_sort_key,
    star_condition,
)
from expdirect.laurent import LaurentPoly
from expdirect.newton import irregularity, polygon_from_branches, slopes
from tests.helpers import (laurent_sum, mk, numeric_laurent, rand_branch, rand_monic,
                           rand_polar, worked_example_branches)


def test_worked_example_full():
    dec = decompose(worked_example_branches())
    assert dec.p == 2
    assert dec.star_holds
    alphas = [f.alpha for f in dec.factors]
    assert alphas == [LaurentPoly({-2: 1}), LaurentPoly({-3: -1}), LaurentPoly({-3: 1})]
    assert [f.rank_branchwise for f in dec.factors] == [2, 1, 1]
    assert [f.rank_distinct for f in dec.factors] == [2, 1, 1]
    assert dec.factors[0].charpoly == CycloPoly([1, -2, 1])  # (x - 1)^2
    assert dec.factors[1].charpoly == CycloPoly([1, 1])
    assert dec.factors[2].charpoly == CycloPoly([1, 1])


def test_single_branch_and_empty():
    dec = decompose([mk("a", p=1, q=1, m=1)])
    assert dec.p == 1 and len(dec.factors) == 1
    assert dec.factors[0].rank_branchwise == 1
    empty = decompose([])
    assert empty.p == 1 and empty.factors == () and empty.star_holds


@pytest.mark.parametrize("branches, message", [
    ([mk("a", zeta=CycloPoly([0, 2]))], "zeta must be monic"),
    ([mk("a"), mk("a", q=2)], "duplicate branch labels: ['a']"),
], ids=["non-monic-zeta", "duplicate-labels"])
def test_decompose_refuses_invalid_branches(branches, message):
    with pytest.raises(ValidationError) as exc:
        decompose(branches)
    assert str(exc.value) == message


def test_decompose_declares_no_truncation():
    # No truncation is declared, so a holomorphic part of any length is read.
    dec = decompose([mk("a", delta=LaurentPoly({0: 1, 12: 5}))])
    assert len(dec.factors) == 1 and dec.copies[0].delta0 == 1


def test_rank_convention_divergence():
    # p=2, q=2, alpha = t^-2: both square roots of unity produce the same
    # rewritten polar part, so one factor collects two copies of the branch.
    b = mk("d", p=2, q=2, alpha=LaurentPoly({-2: 1}), m=1, zeta=CycloPoly([-1, 1]))
    dec = decompose([b])
    assert len(dec.factors) == 1
    f = dec.factors[0]
    assert f.rank_branchwise == 2
    assert f.rank_distinct == 1
    assert f.rank_diverges
    # Separation fails here (two identical shifted factors), so no charpoly.
    assert not dec.star_holds
    assert f.charpoly is None


def test_rank_divergence_with_distinct_delta0():
    # Same alpha collision, but distinct constant terms keep separation alive;
    # the two monodromy conventions then genuinely differ.
    b = mk("d", p=2, q=2, alpha=LaurentPoly({-2: 1}),
           delta=LaurentPoly({1: 1}), m=1, zeta=CycloPoly([1, 1]))
    dec = decompose([b])
    # delta(0) = 0 for both copies: separation still fails, so the factor
    # gets no charpoly.
    assert not dec.star_holds
    assert dec.star_witness == (("d", 1), ("d", 2))
    assert dec.factors[0].charpoly is None


def test_star_condition_examples():
    keyed = keyed_copies(unramify(worked_example_branches()))
    assert star_condition(keyed) is None

    twins = [mk("a", p=1, q=1), mk("b", p=1, q=1)]
    assert star_condition(keyed_copies(unramify(twins))) == (("a", 1), ("b", 1))

    separated = [
        mk("a", p=1, q=1),
        mk("b", p=1, q=1, delta=LaurentPoly({0: 1})),
    ]
    assert star_condition(keyed_copies(unramify(separated))) is None


def test_char_poly_product():
    branches = [
        mk("a", p=1, q=1, m=1, zeta=CycloPoly([-1, 1])),
        mk("b", p=1, q=1, m=1, zeta=CycloPoly([1, 1]),
           delta=LaurentPoly({0: 1})),
    ]
    # Distinct delta(0) but identical alpha: one factor? No: the factor key is
    # the polar part alone, so both land in one factor with charpoly product.
    dec = decompose(branches)
    assert len(dec.factors) == 1
    f = dec.factors[0]
    assert f.rank_branchwise == 2
    assert f.charpoly == CycloPoly([-1, 0, 1])  # (x - 1)(x + 1)


def test_no_charpoly_without_separation():
    twins = [mk("a", p=1, q=1), mk("b", p=1, q=1)]
    dec = decompose(twins)
    assert not dec.star_holds
    assert dec.star_witness == (("a", 1), ("b", 1))
    assert [f.charpoly for f in dec.factors] == [None]


def _corpus(rng, n_sets=120):
    for _ in range(n_sets):
        yield [rand_branch(rng, f"l{i}") for i in range(rng.randint(1, 6))]


def test_rank_bookkeeping_random():
    rng = random.Random(4242)
    for branches in _corpus(rng):
        dec = decompose(branches)
        assert sum(f.rank_branchwise for f in dec.factors) \
            == sum(b.p * b.m for b in branches)
        for f in dec.factors:
            labels = [lbl for lbl, _ in f.members]
            if len(set(labels)) == len(labels):
                assert f.rank_branchwise == f.rank_distinct
            if f.charpoly is not None:
                assert f.charpoly.degree == f.rank_branchwise
                assert f.charpoly.is_monic()


def test_irregularity_cross_consistency_random():
    rng = random.Random(31337)
    for branches in _corpus(rng):
        dec = decompose(branches)
        poly = polygon_from_branches(branches)
        lhs = sum(f.rank_branchwise * f.pole_order for f in dec.factors)
        assert lhs == dec.p * irregularity(poly)
        assert {Fraction(f.pole_order, dec.p) for f in dec.factors} == slopes(poly)


def test_decompose_permutation_and_relabel_invariance():
    rng = random.Random(5150)
    for branches in _corpus(rng, 25):
        dec = decompose(branches)
        shuffled = branches[:]
        rng.shuffle(shuffled)
        relabeled = [
            type(b)(f"renamed{i}", b.p, b.q, b.alpha, b.delta, b.m, b.zeta)
            for i, b in enumerate(shuffled)
        ]
        for other in (decompose(shuffled), decompose(relabeled)):
            assert dec.p == other.p and dec.star_holds == other.star_holds
            assert [f.alpha for f in dec.factors] == [f.alpha for f in other.factors]
            assert [f.rank_branchwise for f in dec.factors] \
                == [f.rank_branchwise for f in other.factors]


def _numeric_partition(items, sample_ts):
    """Cluster (origin, LaurentPoly) pairs by 30+-digit values at 3 points."""
    clusters: list[list] = []
    for origin, f in items:
        v = tuple(numeric_laurent(f, t) for t in sample_ts)
        for cl in clusters:
            ref = cl[0][1]
            if all(abs(a - b) < mpmath.mpf("1e-25") for a, b in zip(v, ref)):
                cl.append((origin, v))
                break
        else:
            clusters.append([(origin, v)])
    return {frozenset(origin for origin, _ in cl) for cl in clusters}


def test_grouping_agrees_with_numeric_clustering():
    rng = random.Random(2718)
    sample_ts = [complex(0.83, 0.21), complex(0.31, -0.63), complex(-0.52, 0.44)]
    for branches in _corpus(rng, 40):
        ub = unramify(branches)
        keyed = keyed_copies(ub)
        holds = star_condition(keyed) is None

        # Factor grouping keys off the rewritten polar part alone.
        factors = exponential_factors(keyed, holds)
        symbolic = {frozenset(f.members) for f in factors}
        numeric = _numeric_partition([(u.origin, u.alpha_sub) for u in ub],
                                     sample_ts)
        assert symbolic == numeric

        # The separation data refines by the constant term as well.
        shifted = [(u.origin, laurent_sum(u.alpha_sub, LaurentPoly({0: u.delta0})))
                   for u in ub]
        refined = _numeric_partition(shifted, sample_ts)
        assert holds == all(len(cl) == 1 for cl in refined)


@pytest.mark.parametrize("twin_delta0, holds", [(1, True), (0, False)])
def test_decompose_evaluates_star_condition_once(monkeypatch, twin_delta0, holds):
    import expdirect.decomposition as dec_mod

    calls = []
    real = dec_mod.star_condition

    def counting(ub):
        calls.append(len(ub))
        return real(ub)

    monkeypatch.setattr(dec_mod, "star_condition", counting)
    branches = [mk("a", p=1, q=1),
                mk("b", p=1, q=1, delta=LaurentPoly({0: twin_delta0}))]
    dec = decompose(branches)
    assert dec.star_holds is holds
    assert dec.star_witness == (None if holds else (("a", 1), ("b", 1)))
    assert calls == [2]


def _shifted_sum_star_condition(ub):
    """Reference for ``star_condition``: key each copy by its polar part plus
    constant term as one Laurent polynomial; the first colliding pair, or
    None."""
    shifted = [laurent_sum(u.alpha_sub, LaurentPoly({0: u.delta0})) for u in ub]
    seen = {}
    for u, f in zip(ub, shifted):
        key = laurent_sort_key(f)
        if key in seen:
            return seen[key], u.origin
        seen[key] = u.origin
    return None


def test_star_condition_matches_shifted_sum_keying():
    rng = random.Random(6161)
    outcomes = set()
    for branches in _corpus(rng):
        ub = unramify(branches)
        result = star_condition(keyed_copies(ub))
        assert result == _shifted_sum_star_condition(ub)
        outcomes.add(result is None)
    assert outcomes == {True, False}


def test_charpoly_is_the_product_over_members():
    # Under separation every factor's charpoly is the product of its
    # members' zetas in member order, and a label never repeats in a factor:
    # copies of one branch share delta(0), so two of them with one polar
    # part violate separation.
    shared = [mk("a", p=1, q=1, m=1, zeta=CycloPoly([-1, 1])),
              mk("b", p=1, q=1, m=1, delta=LaurentPoly({0: 1}),
                 zeta=CycloPoly([1, 1])),
              mk("c", p=1, q=1, m=2, delta=LaurentPoly({0: 2}),
                 zeta=CycloPoly([1, 2, 1]))]
    rng = random.Random(6262)
    multi = 0
    for branches in [shared, *_corpus(rng)]:
        dec = decompose(branches)
        zetas = {u.origin: u.zeta for u in dec.copies}
        for f in dec.factors:
            assert (f.charpoly is None) == (not dec.star_holds)
            if f.charpoly is None:
                continue
            labels = [label for label, _ in f.members]
            assert len(set(labels)) == len(labels)
            expected = zetas[f.members[0]]
            for origin in f.members[1:]:
                expected = expected * zetas[origin]
            assert f.charpoly == expected
            multi += len(f.members) > 1
    assert multi > 0


def _orders(poly):
    return [(c.order, c.coeffs) for c in poly.coeffs]


def test_single_member_charpoly_is_the_product_with_one():
    # A rational written at order 4 and a zero written at order 3 are stored
    # at order 1, their conductor, so a single member's charpoly is its zeta
    # as CycloPoly([1]) * zeta gives it; the order-3 root stays.
    zeta = CycloPoly([CycloNum(4, {0: 2}), CycloNum(3, {}),
                      CycloNum(3, {1: -1}), 1])
    branches = [mk("a", p=1, q=1, m=3, zeta=zeta),
                mk("b", p=1, q=2, m=1, alpha=LaurentPoly({-2: 1}))]
    rng = random.Random(6363)
    cases = [branches] + list(_corpus(rng, 60))
    singles = 0
    for branches in cases:
        zetas = {u.origin: u.zeta for u in unramify(branches)}
        for f in decompose(branches).factors:
            if f.charpoly is None or len(f.members) != 1:
                continue
            singles += 1
            expected = CycloPoly([1]) * zetas[f.members[0]]
            assert _orders(f.charpoly) == _orders(expected)
    assert singles > 0
    pinned = decompose(cases[0]).factors[0]
    assert [c.order for c in pinned.charpoly.coeffs] == [1, 1, 3, 1]


def test_decompose_keys_each_copy_once(monkeypatch):
    import expdirect.decomposition as dec_mod

    calls = []
    real = dec_mod.laurent_sort_key

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(dec_mod, "laurent_sort_key", counting)
    rng = random.Random(7272)
    for branches in _mixed_corpus(rng, 40):
        calls.clear()
        dec = decompose(branches)
        assert len(calls) == len(dec.copies)
        assert [id(f) for f in calls] == [id(u.alpha_sub) for u in dec.copies]


# -- differential test against two-pass keying --------------------------------


def _two_pass_decompose(branches):
    """Reference for ``decompose``: the copies are keyed once to group them
    and once more for the separation test; each charpoly is
    ``CycloPoly([1])`` times every member's zeta in turn."""
    ub = unramify(branches)
    groups = {}
    for u in ub:
        groups.setdefault(laurent_sort_key(u.alpha_sub), []).append(u)
    factors = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda u: (u.label, u.root_index))
        by_label = {u.label: u.m for u in members}
        factors.append((members[0].alpha_sub, tuple(u.origin for u in members),
                        sum(u.m for u in members), sum(by_label.values()), members))

    seen, witness = {}, None
    for u in ub:
        key = (laurent_sort_key(u.alpha_sub),
               u.delta0.order, tuple(sorted(u.delta0.coeffs.items())))
        if key in seen:
            witness = (seen[key], u.origin)
            break
        seen[key] = u.origin

    out = []
    for alpha, origins, rank_b, rank_d, members in factors:
        charpoly = None
        if witness is None:
            charpoly = CycloPoly([1])
            for u in members:
                charpoly = charpoly * u.zeta
        out.append((alpha, origins, rank_b, rank_d, charpoly))
    return out, witness is None, witness


def _mixed_corpus(rng, n_sets=150):
    """Branch sets with p_l in {1, 2, 3, 6}, cyclotomic polar parts, some of
    them repeated on another branch, and constant terms from a small set, so
    that equal polar parts come with equal and with distinct constants."""
    for _ in range(n_sets):
        branches = []
        for i in range(rng.randint(1, 5)):
            p = rng.choice([1, 2, 3, 6])
            if branches and rng.random() < 0.3:
                twin = rng.choice(branches)
                p, q, alpha = twin.p, twin.q, twin.alpha
            else:
                q = rng.randint(1, 4)
                alpha = rand_polar(rng, q, cyclo_coeffs=True)
            delta = {0: rng.choice([0, 1, -1])}
            if rng.random() < 0.5:
                delta[rng.randint(1, 4)] = Fraction(rng.randint(1, 3))
            m = rng.randint(1, 2)
            branches.append(mk(f"l{i}", p=p, q=q, alpha=alpha,
                               delta=LaurentPoly(delta), m=m,
                               zeta=rand_monic(rng, m)))
        yield branches


def _charpoly_terms(poly):
    return None if poly is None else [(c.order, c.coeffs) for c in poly.coeffs]


def test_decompose_matches_two_pass_keying():
    rng = random.Random(8383)
    outcomes = set()
    shared_polar = 0
    for branches in _mixed_corpus(rng):
        dec = decompose(branches)
        ref_factors, ref_holds, ref_witness = _two_pass_decompose(branches)
        assert (dec.star_holds, dec.star_witness) == (ref_holds, ref_witness)
        assert len(dec.factors) == len(ref_factors)
        for f, (alpha, members, rank_b, rank_d, charpoly) in zip(dec.factors, ref_factors):
            assert f.alpha == alpha
            assert {e: c.order for e, c in f.alpha.terms.items()} \
                == {e: c.order for e, c in alpha.terms.items()}
            assert f.members == members
            assert (f.rank_branchwise, f.rank_distinct) == (rank_b, rank_d)
            assert _charpoly_terms(f.charpoly) == _charpoly_terms(charpoly)
            shared_polar += len(members) > 1 and dec.star_holds
        outcomes.add(dec.star_holds)
    # Both outcomes occur, and separation holds for some factor of several
    # copies, which keying by the polar part alone would call a failure.
    assert outcomes == {True, False}
    assert shared_polar > 0
