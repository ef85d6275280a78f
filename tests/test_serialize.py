"""Exact JSON round trips and schema rejection."""

import gc
import json
import random
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from expdirect.cli import DEFAULT_ORDER_LIMIT as CAP
import expdirect.cyclotomic as cyclotomic
from expdirect.cyclotomic import CycloNum, CycloPoly
from expdirect.laurent import LaurentPoly
from expdirect.newton import NewtonPolygon
from expdirect.realization import FormalModuleSpec, FormalSummand
from expdirect.serialize import (
    SchemaError,
    branch_from_json,
    branch_to_json,
    cyclo_from_json,
    cyclo_to_json,
    cyclopoly_to_json,
    dumps,
    laurent_from_json,
    laurent_to_json,
    polygon_to_json,
    rational_from_json,
    spec_from_json,
)
from tests.helpers import rand_branch, rand_cyclo, rand_laurent, root, spec_doc


def test_rational_round_trip():
    for x in (Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(22, 7)):
        assert rational_from_json(str(x), "$") == x


def test_rational_rejects_floats_and_junk():
    # Only [+-]digits[/digits] with optional surrounding whitespace: no
    # exponent, decimal point or underscore, no digit outside ASCII (int()
    # takes "١" and "７"), and no more digits than Python converts
    # (sys.get_int_max_str_digits()).
    for data in (0.5, "pi", "1/0", True, "1e5000", "1.5", "1/2/3", "1_000",
                 "1 / 2", "0x10", "½", "3" * 4301, "١", "²", "７", "٣/٤"):
        with pytest.raises(SchemaError):
            rational_from_json(data, "$")


def test_rational_accepts_signs_and_whitespace():
    assert rational_from_json(" -6/4\n", "$") == Fraction(-3, 2)
    assert rational_from_json("+007", "$") == 7


def test_cyclo_round_trip_random():
    rng = random.Random(8)
    for _ in range(100):
        a = rand_cyclo(rng)
        back = cyclo_from_json(cyclo_to_json(a), "$", max_order=CAP)
        assert back.order == a.order and back == a


def test_single_terms_parse_to_what_the_constructor_builds():
    # A single term is built straight into canonical form; at every order up
    # to 72 (2, 6, 10, 18, 30, 42 and 66 among them, which are 2 mod 4 and so
    # never a conductor) it must agree with the constructor's dense path,
    # which rewrites the term on the basis and brings it to its conductor.
    for n in range(1, 73):
        for e in range(-n, 2 * n + 1):
            for c in (0, 1, "-2", "3/4"):
                got = cyclo_from_json({"order": n, "coeffs": {str(e): c}}, "$",
                                      max_order=CAP)
                raw = {e % n: Fraction(c)} if Fraction(c) else {}
                want = cyclotomic._canonical(n, cyclotomic._normalised(n, raw))
                assert (got.order, got.coeffs) == (want.order, want.coeffs), (n, e, c)
                assert all(type(v) is Fraction for v in got.coeffs.values())


def test_cyclo_accepts_bare_rationals():
    assert cyclo_from_json("3/4", "$", max_order=CAP) == CycloNum.from_rational(Fraction(3, 4))
    assert cyclo_from_json(-2, "$", max_order=CAP) == CycloNum.from_rational(-2)


def test_laurent_round_trip_random():
    rng = random.Random(9)
    for _ in range(50):
        f = rand_laurent(rng)
        assert laurent_from_json(laurent_to_json(f), "$", max_order=CAP) == f


def test_branch_round_trip():
    rng = random.Random(10)
    for _ in range(30):
        b = rand_branch(rng, "x", cyclo_coeffs=True)
        back = branch_from_json(branch_to_json(b), "$", max_order=CAP)
        assert back.label == b.label
        assert (back.p, back.q, back.m) == (b.p, b.q, b.m)
        assert back.alpha == b.alpha and back.delta == b.delta
        assert back.zeta == b.zeta


def test_branch_schema_errors_carry_paths():
    with pytest.raises(SchemaError) as exc:
        branch_from_json({"label": "a", "p": "two"}, "$.branches[0]",
                         max_order=CAP)
    assert "$.branches[0].p" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        branch_from_json(
            {"label": "a", "p": 1, "q": 1, "m": 1,
             "alpha": {"terms": {"-1": {"order": 1, "coeffs": {"0": 0.25}}}},
             "zeta": []},
            "$", max_order=CAP,
        )
    assert "$.alpha.terms.-1.coeffs.0" in str(exc.value)
    # A declared order above the cap is refused at its own path.
    with pytest.raises(SchemaError) as exc:
        branch_from_json(
            {"label": "a", "p": 1, "q": 1, "m": 1,
             "alpha": {"terms": {"-1": {"order": 11, "coeffs": {"1": 1}}}},
             "zeta": []},
            "$", max_order=10,
        )
    assert str(exc.value).startswith("$.alpha.terms.-1.order: order 11 exceeds")


def test_polygon_to_json():
    poly = NewtonPolygon.from_edges([(2, 2), (Fraction(1, 2), Fraction(7, 3))])
    assert polygon_to_json(poly) == {"edges": [[2, 1, 2, 1], [1, 2, 7, 3]]}


def test_spec_round_trip():
    spec = FormalModuleSpec(
        p=4,
        summands=(
            FormalSummand(LaurentPoly({-3: root(4, 1)}), 1, CycloPoly([1, 1])),
            FormalSummand(LaurentPoly({-2: 1, -1: Fraction(1, 2)}), 2,
                          CycloPoly([1, 2, 1])),
        ),
        regular_rank=3,
    )
    back = spec_from_json(spec_doc(spec), "$", max_order=CAP)
    assert back.p == spec.p and back.regular_rank == spec.regular_rank
    assert len(back.summands) == 2
    for a, b in zip(back.summands, spec.summands):
        assert a.alpha == b.alpha and a.rank == b.rank and a.charpoly == b.charpoly


_text = st.text(alphabet=st.one_of(
    st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028\u00e9\U0001f600')))
_ints = st.one_of(
    st.integers(),
    st.tuples(st.sampled_from([1, -1]),
              st.integers(10 ** 999, 10 ** 1000 - 1)).map(lambda t: t[0] * t[1]))
_docs = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, _text),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_text, inner, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_docs)
def test_dumps_matches_json_dumps(doc):
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("doc", [
    0.5, Fraction(1, 2), (1, 2), {1, 2}, b"x", {1: "a"},
    {"a": [float("nan")]}, [{"b": object()}],
    OrderedDict(a=1), [IntEnum("Kind", "A").A],
], ids=["float", "fraction", "tuple", "set", "bytes", "int-key", "nested-float",
        "nested-object", "dict-subclass", "nested-int-subclass"])
def test_dumps_rejects_what_reports_never_hold(doc):
    # Only the exact container and scalar types are written: a subclass is
    # refused like any other value a report never holds.
    with pytest.raises(TypeError):
        dumps(doc)


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)
_cyclos = st.one_of(
    st.just(CycloNum.zero()),
    st.builds(CycloNum, st.sampled_from([1, 3, 4, 5, 12, 15, 21, 24, 60]),
              st.dictionaries(st.integers(-80, 80), _fractions, max_size=4)))
_laurents = st.one_of(
    st.just(LaurentPoly()),
    st.builds(LaurentPoly, st.dictionaries(st.integers(-30, 12), _cyclos,
                                           max_size=4)))
_cyclopolys = st.one_of(st.just(CycloPoly()),
                        st.builds(CycloPoly, st.lists(_cyclos, max_size=4)))
_docs_with_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(), _cyclos,
              _laurents, _cyclopolys),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12,
)


def _as_data(doc):
    """The document with each value leaf replaced by its *_to_json data."""
    if isinstance(doc, CycloNum):
        return cyclo_to_json(doc)
    if isinstance(doc, LaurentPoly):
        return laurent_to_json(doc)
    if isinstance(doc, CycloPoly):
        return cyclopoly_to_json(doc)
    if isinstance(doc, dict):
        return {k: _as_data(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_as_data(v) for v in doc]
    return doc


@settings(max_examples=200, deadline=None)
@given(_docs_with_values)
def test_dumps_writes_value_leaves_as_their_data(doc):
    # Keys sort as strings ("-10" < "-2", "10" < "2"), as sort_keys sorts them.
    assert dumps(doc) == json.dumps(_as_data(doc), sort_keys=True, indent=2)


def test_dumps_leaves_no_reference_cycle():
    # With the collector paused, whatever dumps leaves in a cycle piles up
    # until the next collection.
    doc = {"a": [1, {"b": "c", "d": []}, None, True, False], "e": {}}
    values = {"x": [CycloNum(15, {11: Fraction(1, 2)}), CycloPoly([1, 2])],
              "y": {"z": LaurentPoly({-12: root(24, 5), -1: 3})}}
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(100):
            dumps(doc)
            dumps(values)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
