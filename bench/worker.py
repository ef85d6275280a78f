"""One warm, single-threaded process that runs a pass of problems.

Usage: ``python3 bench/worker.py JOB.json``.  The job names the source tree,
the CLI arguments, the blocks of (input, output) files, the time budget or
a fixed block count, and whether to trace.  Each problem goes through
``expdirect.cli.main`` exactly as the command line would run it; its wall
time is taken around that call.  The worker writes its results to the path
the job names, and nothing to standard output.

With ``"kernels": true`` the worker instead times the arithmetic kernels on
seeded operands and writes the operands and results for the checker.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import traceback
from fractions import Fraction
from itertools import cycle
from pathlib import Path
from time import perf_counter


def _call(main, argv) -> int:
    try:
        return main(argv)
    except Exception:  # a traceback is a failed operation, not an abort
        traceback.print_exc()
        return -1


def run_pass(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        import tracer as tracer_module

        tracer = tracer_module.install()
    from expdirect.cli import main

    prefix = job["argv"]
    times, codes, done = [], [], []
    max_blocks = job["max_blocks"]
    start = perf_counter()
    for nblocks, block in enumerate(cycle(job["blocks"])):
        if max_blocks is None and perf_counter() - start >= job["seconds"] \
                or nblocks == max_blocks:
            break
        for src, dst in block:
            t0 = perf_counter()
            codes.append(_call(main, prefix + ["--input", src, "--output", dst]))
            times.append(perf_counter() - t0)
        done.append(nblocks % len(job["blocks"]))
    wall = perf_counter() - start

    out = {
        "wall_s": wall,
        "times_s": times,
        "codes": codes,
        "blocks_done": done,
        "rerun_codes": [_call(main, prefix + ["--input", src, "--output", dst])
                        for src, dst in job["reruns"]],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.dump(job["spans"])
    return out


def _dense(rng: random.Random, order: int):
    """A seeded value with every power-basis coordinate nonzero."""
    from expdirect.cyclotomic import CycloNum, totient

    return CycloNum(order, {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                        rng.randint(1, 3))
                            for e in range(totient(order))})


def _dump_cyclo(a) -> list:
    return [a.order, {str(e): str(c) for e, c in a.coeffs.items()}]


def _dump_terms(terms: dict) -> dict:
    """Laurent exponents as "e", BiPoly exponent pairs as "i,j"."""
    return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): _dump_cyclo(c)
            for k, c in terms.items()}


def _time_op(op, batches: int) -> float:
    """Median seconds per call over ``batches`` batches; a batch repeats the
    call 4^k times for the least k that makes it last 20 ms."""
    reps = 1
    while True:
        t0 = perf_counter()
        for _ in range(reps):
            op()
        t = perf_counter() - t0
        if t >= 0.02:
            break
        reps *= 4
    samples = [t / reps]
    for _ in range(batches - 1):
        t0 = perf_counter()
        for _ in range(reps):
            op()
        samples.append((perf_counter() - t0) / reps)
    samples.sort()
    return samples[len(samples) // 2]


def run_kernels(job: dict) -> dict:
    from expdirect.laurent import BiPoly, LaurentPoly

    rng = random.Random(f"kernels/{job['seed']}")
    batches = job["batches"]
    timings, checks = {}, []
    for order in (12, 60, 210):
        a, b = _dense(rng, order), _dense(rng, order)
        checks.append({"kind": "cyclo", "order": order, "a": _dump_cyclo(a),
                       "b": _dump_cyclo(b), "sum": _dump_cyclo(a + b),
                       "prod": _dump_cyclo(a * b), "inv": _dump_cyclo(a.inv())})
        timings[f"cyclotomic.add_us.o{order}"] = _time_op(lambda: a + b, batches)
        timings[f"cyclotomic.mul_us.o{order}"] = _time_op(lambda: a * b, batches)
        timings[f"cyclotomic.inv_us.o{order}"] = _time_op(a.inv, batches)

    products = {
        "laurent": (LaurentPoly({e: _dense(rng, 12) for e in range(-6, 4)}),
                    LaurentPoly({e: _dense(rng, 12) for e in range(-4, 6)})),
        "bipoly": (BiPoly({(i, j): _dense(rng, 12) for i in range(3) for j in range(3)}),
                   BiPoly({(i, j): _dense(rng, 12) for i in range(4) for j in range(2)})),
    }
    for kind, (f, g) in products.items():
        checks.append({"kind": kind, "f": _dump_terms(f.terms),
                       "g": _dump_terms(g.terms), "prod": _dump_terms((f * g).terms)})
        timings[f"laurent.{kind}_mul_us"] = _time_op(lambda: f * g, batches)
    return {"timings_us": {k: v * 1e6 for k, v in timings.items()}, "checks": checks}


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    sys.path.insert(0, job["src"])
    result = run_kernels(job) if job.get("kernels") else run_pass(job)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
