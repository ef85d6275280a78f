"""Branch validation and unramification."""

import dataclasses
import json
import random
from fractions import Fraction
from math import gcd

import pytest

import expdirect.branch as branch_mod
from expdirect.branch import (
    Branch,
    ramification_order,
    unramify,
    validate,
)
from expdirect.cli import main
from expdirect.cyclotomic import CycloPoly
from expdirect.laurent import LaurentPoly, subst_root_power
from expdirect.serialize import branch_to_json
from tests.helpers import mk, rand_branch, rand_root


def test_validate_examples():
    assert validate(mk(p=1, q=1, m=1, zeta=CycloPoly([-1, 1]))).valid

    r = validate(mk(p=2, q=3, alpha=LaurentPoly({-3: 1}), zeta=CycloPoly([1, 1])))
    assert r.valid and r.support_divisor == 1 and not r.warnings

    r = validate(mk(p=2, q=2, alpha=LaurentPoly({-2: 1}), zeta=CycloPoly([-1, 1])))
    assert r.valid and r.support_divisor == 2
    assert any("non-primitive" in w for w in r.warnings)


def test_validate_rejections():
    assert not validate(mk(q=2, alpha=LaurentPoly({-1: 1}))).valid  # no -q term
    assert not validate(mk(alpha=LaurentPoly({-1: 1, 0: 1}), q=1)).valid
    assert not validate(mk(delta=LaurentPoly({-1: 1}))).valid
    assert not validate(mk(m=2, zeta=CycloPoly([-1, 1]))).valid  # deg != m
    assert not validate(mk(zeta=CycloPoly([0, 2]))).valid  # not monic
    r = validate(Branch("z", 0, 1, LaurentPoly({-1: 1}), LaurentPoly.zero(),
                        1, CycloPoly([-1, 1])))
    assert not r.valid
    # The declared truncation bounds the support of delta; none is declared
    # by default.
    long = mk("a", delta=LaurentPoly({0: 1, 5: 2}))
    r = validate(long, 3)
    assert not r.valid
    assert r.errors == ("delta support exceeds the declared truncation 3",)
    assert validate(long).valid and validate(long, 5).valid


def test_ramification_order():
    assert ramification_order([mk(p=1), mk(p=2)]) == 2
    assert ramification_order([mk(p=1)]) == 1
    assert ramification_order([mk(p=4), mk(p=6)]) == 12
    with pytest.raises(ValueError):
        ramification_order([])


def test_unramify_single_branch_scaled():
    # One p=1 branch alongside a p=2 branch: its copy rescales t -> t^2.
    b1 = mk("a", p=1, q=1, m=2, zeta=CycloPoly([1, -2, 1]))
    b2 = mk("b", p=2, q=3, m=1, zeta=CycloPoly([1, 1]))
    out = unramify([b1, b2])
    assert len(out) == 3
    a = [u for u in out if u.label == "a"]
    assert len(a) == 1 and a[0].alpha_sub == LaurentPoly({-2: 1})
    assert a[0].m == 2

    bs = [u for u in out if u.label == "b"]
    assert len(bs) == 2
    subs = [u.alpha_sub for u in bs]
    assert LaurentPoly({-3: 1}) in subs and LaurentPoly({-3: -1}) in subs
    assert all(u.m == 1 for u in bs)


def test_unramify_identity_when_trivial():
    b = mk("c", p=1, q=1)
    (u,) = unramify([b])
    assert u.alpha_sub == b.alpha
    assert u.root_index == 1 and u.origin == ("c", 1)
    assert u.zeta == b.zeta


def test_unramify_counts_and_lowest_exponents():
    rng = random.Random(101)
    for _ in range(50):
        branches = [rand_branch(rng, f"l{i}") for i in range(rng.randint(1, 5))]
        p = ramification_order(branches)
        out = unramify(branches)
        assert len(out) == sum(b.p for b in branches)
        by_label = {b.label: b for b in branches}
        total = 0
        for u in out:
            b = by_label[u.label]
            assert u.alpha_sub.pole_order() == p * b.q // b.p
            assert u.m == b.m and u.zeta == b.zeta
            total += u.m * (p * b.q // b.p)
        assert total == p * sum(b.m * b.q for b in branches)


def test_unramify_root_convention():
    b = mk("d", p=3, q=2, alpha=LaurentPoly({-2: 1, -1: 2}))
    out = unramify([b])
    for u in out:
        assert u.alpha_sub == subst_root_power(b.alpha, 3, u.root_index, 1)


def _terms(f: LaurentPoly) -> dict:
    return {e: (c.order, c.coeffs) for e, c in f.terms.items()}


def _twisted_corpus(rng: random.Random, n_sets: int = 40):
    """Branch sets with p_l up to 6 whose holomorphic parts mix rational and
    cyclotomic coefficients, with and without a constant term."""
    for _ in range(n_sets):
        branches = []
        for i in range(rng.randint(1, 4)):
            b = rand_branch(rng, f"l{i}", max_p=6, cyclo_coeffs=True)
            delta = {e: rand_root(rng, 6) * Fraction(rng.randint(1, 3))
                     if rng.random() < 0.5 else c
                     for e, c in b.delta.terms.items()}
            if rng.random() < 0.5:
                delta[0] = rand_root(rng, 6) * Fraction(rng.choice([-1, 1, 2]))
            branches.append(dataclasses.replace(b, delta=LaurentPoly(delta)))
        yield branches


def test_delta0_is_the_constant_term_of_the_eager_twist():
    rng = random.Random(909)
    seen_zero = seen_cyclo = False
    for branches in _twisted_corpus(rng):
        p = ramification_order(branches)
        by_label = {b.label: b for b in branches}
        for u in unramify(branches):
            b = by_label[u.label]
            c0 = subst_root_power(b.delta, b.p, u.root_index, p // b.p).coeff(0)
            assert (u.delta0.order, u.delta0.coeffs) == (c0.order, c0.coeffs)
            seen_zero |= c0.is_zero()
            seen_cyclo |= c0.order != 1
    assert seen_zero and seen_cyclo


@pytest.mark.parametrize("oracle", ["off", "on"])
def test_one_twist_per_copy_with_the_oracle_on_or_off(monkeypatch, tmp_path,
                                                      oracle):
    # Only the polar parts are twisted: the oracle reads a copy's holomorphic
    # part through its constant term, which the twist leaves as it is.
    calls = []
    real = branch_mod.subst_root_power

    def counting(f, n, i, k):
        calls.append(f)
        return real(f, n, i, k)

    monkeypatch.setattr(branch_mod, "subst_root_power", counting)
    rng = random.Random(1010)
    for branches in list(_twisted_corpus(rng, 6)):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"points": [
            {"c": "0", "branches": [branch_to_json(b) for b in branches]}]}))
        calls.clear()
        assert main(["report", "--oracle", oracle, "--input", str(src),
                     "--output", str(tmp_path / "out.json")]) == 0
        copies = sum(b.p for b in branches)
        assert len(calls) == copies
        assert all(f.pole_order() > 0 for f in calls)  # the polar parts
