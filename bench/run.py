"""Seeded end-to-end and per-layer benchmark of the expdirect CLI.

    python3 bench/run.py --workload report-oracle --seed 1 --seconds 20 --trace 0

Workloads: ``report-oracle`` (``report``), ``report-no-oracle`` (``report
--oracle off``) and ``roundtrip`` (``roundtrip``); see bench/README.md.

With ``--trace 0`` the run measures set-up time in fresh interpreters, then
one untraced worker process runs whole blocks of problems through
``expdirect.cli.main`` until ``--seconds`` have passed.  With ``--trace 1``
an untraced worker runs for half of ``--seconds``, a traced worker runs the
same blocks again, and a third worker times the arithmetic kernels.  Every
output is checked by bench/check.py; the last line printed is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs one small block per workload with the same checks.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import check
import corpus
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Blocks per corpus: report-oracle >= 100 problems, report-no-oracle 400,
# roundtrip 200.  A run that finishes the corpus starts it again.
CORPUS_BLOCKS = {"report-oracle": 8, "report-no-oracle": 50, "roundtrip": 25}

# Problems of one small block per workload in smoke mode (indices into the
# workload's block); each includes a repeated polar part or a multi-orbit
# spec.
SMOKE = {"report-oracle": [2, 3, 7], "report-no-oracle": [0, 2, 5],
         "roundtrip": [0, 2, 3]}

SETUP_RUNS = 16
RERUNS = 2

# Layer metric -> span names whose self time it sums.
SELF_TIME = {
    "cli.self_s": ["cli.main"],
    "serialize.parse_s": ["serialize.branch_from_json", "serialize.spec_from_json",
                          "json.load"],
    "serialize.emit_s": ["serialize.polygon_to_json", "serialize.decomposition_to_json",
                         "serialize.corollary_to_json", "serialize.roundtrip_to_json",
                         "json.dumps"],
    "branch.validate_s": ["branch.validate", "branch.validate_all"],
    "branch.unramify_s": ["branch.unramify"],
    "newton.polygon_s": ["newton.polygon_from_branches"],
    "decomposition.decompose_s": ["decomposition.decompose",
                                  "decomposition.star_condition"],
    "resolution.verify_corollary_s": ["resolution.verify_corollary"],
    "resolution.build_resolution_s": ["resolution.build_resolution"],
    "resolution.strict_transform_s": ["resolution.strict_transform"],
    "realization.realize_s": ["realization.realize"],
    "realization.roundtrip_check_s": ["realization.roundtrip_check"],
    "realization.orbit_closure_s": ["realization.orbit_closure"],
    "laurent.subst_root_power_s": ["laurent.subst_root_power"],
    "laurent.compose_monomial_map_s": ["laurent.BiRational.compose_monomial_map"],
    "laurent.classify_at_point_s": ["laurent.BiRational.classify_at_point"],
}
CALLS = {
    "decomposition.star_condition_calls": "decomposition.star_condition",
    "resolution.verify_corollary_calls": "resolution.verify_corollary",
    "resolution.strict_transform_calls": "resolution.strict_transform",
    "realization.orbit_closure_calls": "realization.orbit_closure",
    "laurent.subst_root_power_calls": "laurent.subst_root_power",
}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _worker(job: dict, workdir: Path, tag: str) -> dict:
    job = {"src": str(SRC), "result": str(workdir / f"{tag}-result.json"), **job}
    job_path = workdir / f"{tag}-job.json"
    job_path.write_text(json.dumps(job))
    subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                    str(job_path)], cwd=ROOT, check=True, timeout=170)
    return json.loads(Path(job["result"]).read_text())


def _setup_samples(runs: int) -> list[float]:
    """Wall times of fresh interpreters importing the CLI."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import expdirect.cli"
    samples = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       timeout=60)
        samples.append(perf_counter() - t0)
    return samples


class Checker:
    """Checks each distinct problem output once; counts failures."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        rng = random.Random(f"check/{seed}")
        self.z0 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        self.verdicts: dict[tuple, bool] = {}

    def ok(self, src: str, dst: str, code: int) -> bool:
        key = (src, dst, code)
        if key not in self.verdicts:
            self.verdicts[key] = not self._errors(src, dst, code)
        return self.verdicts[key]

    def _errors(self, src: str, dst: str, code: int) -> list[str]:
        try:
            problem = json.loads(Path(src).read_text())
            output = json.loads(Path(dst).read_text())
        except (OSError, ValueError) as err:
            errors = [f"unreadable: {err}"]
        else:
            if self.workload == "roundtrip":
                errors = check.check_roundtrip(problem, output, code)
            else:
                errors = check.check_report(problem, output, code,
                                            self.workload == "report-oracle", self.z0)
        for e in errors[:3]:
            print(f"check failed: {Path(src).name}: {e}", file=sys.stderr)
        return errors


def _score_pass(result: dict, blocks, checker: Checker):
    """Per-execution verdicts of a pass, in execution order."""
    verdicts = []
    codes = iter(result["codes"])
    for b in result["blocks_done"]:
        for src, dst in blocks[b]:
            verdicts.append(checker.ok(src, dst, next(codes)))
    return verdicts


def _self_times(trace: dict, spans_path: Path):
    """Self time (seconds) and call count per span name."""
    names, parent, start, end = tracer.load_spans(spans_path, trace["spans"])
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for p, d in zip(parent, dur):
        if p >= 0:
            child[p] += d
    self_s = dict.fromkeys(trace["names"], 0.0)
    calls = dict.fromkeys(trace["names"], 0)
    for nid, d, c in zip(names, dur, child):
        name = trace["names"][nid]
        self_s[name] += d - c
        calls[name] += 1
    return self_s, calls


def run(args, workdir: Path) -> dict:
    workload = args.workload
    shapes = corpus.BLOCKS[workload]
    if args.smoke:
        shapes = [shapes[i] for i in SMOKE[workload]]
    nblocks = 1 if args.smoke else CORPUS_BLOCKS[workload]
    inputs = corpus.write_corpus(workload, args.seed, nblocks, workdir, shapes)

    def block_files(tag: str):
        return [[(str(p), str(p.with_name(p.stem.replace("in-", "out-") + f"-{tag}.json")))
                 for p in block] for block in inputs]

    blocks = block_files("a")
    reruns = [(src, dst.replace("-a.json", "-rerun.json")) for src, dst in blocks[0][:RERUNS]]
    # A traced run splits its time: half untraced, then the same blocks traced.
    base = {"argv": corpus.SUBCOMMANDS[workload],
            "seconds": args.seconds / 2 if args.trace else args.seconds,
            "max_blocks": 1 if args.smoke else None, "trace": False,
            "blocks": blocks, "reruns": reruns}
    checker = Checker(workload, args.seed)

    # Set-up samples are taken half before and half after the pass, so a
    # slow spell of the machine at either end weighs less.
    setup_runs = 0 if args.trace else 2 if args.smoke else SETUP_RUNS // 2
    setup = _setup_samples(setup_runs)
    untraced = _worker(base, workdir, "untraced")
    setup += _setup_samples(setup_runs)
    verdicts = _score_pass(untraced, blocks, checker)
    attempted = len(verdicts) + len(reruns)
    failed = verdicts.count(False)
    for (src, dst), code in zip(reruns, untraced["rerun_codes"]):
        first = dst.replace("-rerun.json", "-a.json")
        same = Path(dst).read_bytes() == Path(first).read_bytes()
        failed += not (same and checker.ok(src, dst, code))

    if not args.trace:
        times_ms = [t * 1e3 for t in untraced["times_s"]]
        deciles = statistics.quantiles(times_ms, n=10)
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "problems_per_s": _metric(verdicts.count(True) / untraced["wall_s"],
                                      "problems/s"),
            "problem_p50_ms": _metric(statistics.median(times_ms), "ms"),
            "problem_p90_ms": _metric(deciles[8], "ms"),
            "peak_rss_mb": _metric(untraced["peak_rss_kb"] / 1024, "MB"),
        }
    else:
        traced_blocks = block_files("t")
        job = {**base, "trace": True, "blocks": traced_blocks, "reruns": [],
               "max_blocks": len(untraced["blocks_done"]),
               "spans": str(workdir / "spans.bin")}
        traced = _worker(job, workdir, "traced")
        codes = iter(traced["codes"])
        for b in traced["blocks_done"]:
            for (src, a), (_, t) in zip(blocks[b], traced_blocks[b]):
                # Tracing must not change a byte of any report.
                attempted += 1
                failed += not (checker.ok(src, a, next(codes))
                               and Path(a).read_bytes() == Path(t).read_bytes())

        kernels = _worker({"kernels": True, "seed": args.seed,
                           "batches": 1 if args.smoke else 3}, workdir, "kernels")
        for entry in kernels["checks"]:
            attempted += 1
            errors = check.check_kernel(entry)
            failed += bool(errors)
            for e in errors:
                print(f"kernel check failed: {e}", file=sys.stderr)
        metrics = layer_metrics(traced, Path(job["spans"]), kernels)
        metrics["trace.overhead_s"] = _metric(traced["wall_s"] - untraced["wall_s"], "s")
        print(f"untraced pass {untraced['wall_s']:.3f} s, traced pass "
              f"{traced['wall_s']:.3f} s, {traced['trace']['spans']} spans",
              file=sys.stderr)

    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(traced: dict, spans_path: Path, kernels: dict) -> dict:
    trace = traced["trace"]
    self_s, calls = _self_times(trace, spans_path)
    out = {}
    for name, us in sorted(kernels["timings_us"].items()):
        out[name] = _metric(us, "us")
    counts = trace["counts"]
    for op in ("mul", "inv", "pow", "lift"):
        out[f"cyclotomic.{op}_calls"] = _metric(counts[op], "count")
    out["cyclotomic.max_order"] = _metric(trace["max_order"], "order")
    for metric, names in SELF_TIME.items():
        out[metric] = _metric(sum(self_s.get(n, 0.0) for n in names), "s")
    for metric, name in CALLS.items():
        out[metric] = _metric(calls.get(name, 0), "count")
    blowups = trace["blowups"]
    build = out["resolution.build_resolution_s"]["value"]
    out["resolution.blowups"] = _metric(blowups, "count")
    out["resolution.build_resolution_us_per_blowup"] = _metric(
        build * 1e6 / blowups if blowups else 0.0, "us")
    st_calls = out["resolution.strict_transform_calls"]["value"]
    st_s = out["resolution.strict_transform_s"]["value"]
    out["resolution.strict_transform_us_per_call"] = _metric(
        st_s * 1e6 / st_calls if st_calls else 0.0, "us")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small block, same checks (for the bench tests)")
    args = parser.parse_args(argv)
    if not (SRC / "expdirect" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'expdirect'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
