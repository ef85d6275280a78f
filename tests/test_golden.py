"""Golden corpus: committed inputs whose CLI output must stay byte-identical.

Each ``tests/golden/<command>/NAME.in.json`` is run through
``expdirect <command> --input NAME.in.json`` with default flags, and the
bytes written must equal ``NAME.out.json``.  See ``tests/golden/README.md``
for how the corpus is laid out and regenerated.  Every ``report`` golden is
also run with ``--oracle off``, which must print the same document without
its ``oracle`` entries.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from expdirect.cli import DEFAULT_ORDER_LIMIT, main
from expdirect.serialize import cyclo_from_json, cyclo_to_json, dumps

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(GOLDEN.glob("*/*.in.json"))


def test_corpus_is_present():
    commands = {case.parent.name for case in CASES}
    assert commands == {"validate", "invariants", "decompose", "resolve",
                        "verify", "realize", "roundtrip", "report"}
    assert len(CASES) == 28


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c.parent.name}/{c.name[:-len('.in.json')]}" for c in CASES])
def test_golden_bytes(case, tmp_path):
    out = tmp_path / "out.json"
    assert main([case.parent.name, "--input", str(case), "--output", str(out)]) == 0
    expected = case.with_name(case.name.replace(".in.json", ".out.json"))
    assert out.read_bytes() == expected.read_bytes()


REPORTS = [case for case in CASES if case.parent.name == "report"]


@pytest.mark.parametrize(
    "case", REPORTS, ids=[c.name[:-len(".in.json")] for c in REPORTS])
def test_report_oracle_off_is_the_golden_without_oracle(case, tmp_path):
    out = tmp_path / "out.json"
    assert main(["report", "--oracle", "off", "--input", str(case),
                 "--output", str(out)]) == 0
    golden = json.loads(case.with_name(case.name.replace(".in.json", ".out.json"))
                        .read_text())
    for point in golden["points"]:
        point.pop("oracle", None)
    assert out.read_text() == json.dumps(golden, sort_keys=True, indent=2) + "\n"


def _cyclo_values(doc):
    if isinstance(doc, dict):
        if set(doc) == {"order", "coeffs"}:
            yield doc
            return
        for v in doc.values():
            yield from _cyclo_values(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _cyclo_values(v)


def test_golden_values_are_canonical():
    # Every value a golden holds is stored as the parser stores it (minimal
    # conductor, Zumbroich basis), and emits to the same bytes again.
    seen = 0
    for case in CASES:
        out = case.with_name(case.name.replace(".in.json", ".out.json"))
        for data in _cyclo_values(json.loads(out.read_text())):
            value = cyclo_from_json(data, max_order=DEFAULT_ORDER_LIMIT)
            assert (value.order, value.coeffs) == \
                (data["order"], {int(e): Fraction(c) for e, c in data["coeffs"].items()})
            assert dumps(cyclo_to_json(value)) == dumps(data)
            seen += 1
    assert seen > 400


SVG_CASES = [GOLDEN / "report" / "10_multi_point.in.json",
             GOLDEN / "invariants" / "01_mixed_p_1_2_3_6.in.json"]


@pytest.mark.parametrize(
    "case", SVG_CASES, ids=[f"{c.parent.name}/{c.name[:-len('.in.json')]}"
                            for c in SVG_CASES])
def test_golden_svg_bytes(case, tmp_path):
    # --svg NAME.svg writes NAME.svg for one point, and
    # NAME-<c>-k<k>.svg per point for several; each must equal its golden.
    stem = case.name[:-len(".in.json")]
    assert main([case.parent.name, "--input", str(case), "--output",
                 str(tmp_path / "out.json"), "--svg", str(tmp_path / f"{stem}.svg")]) == 0
    expected = sorted(case.parent.glob(f"{stem}*.svg"))
    assert expected
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == [p.name for p in expected]
    for path in expected:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes()
