"""Smoke tests of the benchmark: every workload in smoke mode, checked."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import corpus  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=3):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_end_to_end(workload):
    result = run_bench(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_per_layer():
    result = run_bench("report-no-oracle", 1)
    assert result["correct"] and result["failed"] == 0
    names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    # No oracle: the resolution layer does no work at all.
    assert all(v["value"] == 0 for k, v in result["metrics"].items()
               if k.startswith("resolution."))
    assert result["metrics"]["decomposition.star_condition_calls"]["value"] > 0


def test_corpus_is_seeded(tmp_path):
    for workload in corpus.WORKLOADS:
        texts = []
        for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
            (tmp_path / workload / sub).mkdir(parents=True)
            paths = corpus.write_corpus(workload, seed, 1, tmp_path / workload / sub)
            texts.append([p.read_text() for p in paths[0]])
        assert texts[0] == texts[1] and texts[0] != texts[2]


def test_checker_rejects_a_wrong_report():
    problem = {"points": [{"c": "0", "k": 0, "branches": [
        {"label": "l1", "p": 2, "q": 1, "m": 1,
         "alpha": {"terms": {"-1": {"order": 1, "coeffs": {"0": "1"}}}},
         "delta": {"terms": {}},
         "zeta": [{"order": 1, "coeffs": {"0": "-1"}},
                  {"order": 1, "coeffs": {"0": "1"}}]}]}]}
    one = {"order": 1, "coeffs": {"0": "1"}}
    minus = {"order": 1, "coeffs": {"0": "-1"}}
    factor = {"members": [["l1", 1]], "rank_branchwise": 1, "rank_distinct": 1,
              "rank_diverges": False, "pole_order": 1,
              "alpha": {"terms": {"-1": minus}}, "charpoly": [minus, one]}
    other = {**factor, "members": [["l1", 2]], "alpha": {"terms": {"-1": one}}}
    report = {"points": [{
        "c": "0", "k": 0, "newton_polygon": {"edges": [[2, 1, 1, 1]]},
        "slopes": ["1/2"], "irregularity": "1", "consistent": True,
        "decomposition": {"p": 2, "star": True, "factors": [factor, other]}}]}
    assert check.check_report(problem, report, 0, False, 0.5 + 0.25j) == []
    # Swap the two copies: the polar parts no longer match their members.
    factor["members"], other["members"] = [["l1", 2]], [["l1", 1]]
    assert check.check_report(problem, report, 0, False, 0.5 + 0.25j)
