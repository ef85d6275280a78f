"""Golden corpus: committed inputs whose CLI output must stay byte-identical.

Each ``tests/golden/<command>/NAME.in.json`` is run through
``expdirect <command> --input NAME.in.json`` with default flags, and the
bytes written must equal ``NAME.out.json``.  See ``tests/golden/README.md``
for how the corpus is laid out and regenerated.
"""

from pathlib import Path

import pytest

from expdirect.cli import main

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
