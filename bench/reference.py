"""Reference figures for bench/README.md, kept out of every workload.

    python3 bench/reference.py

Times ``report`` with the oracle off and on for one fixed problem: 8
branches with lcm(p_l) = 60 (27 unramified copies) and polar coefficients
in Q(zeta_3), drawn with seed 7.  Each figure is one run in this process,
and the report is checked like a workload output.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import check
import corpus

ROOT = Path(__file__).resolve().parent.parent
SHAPE = ([(5, 1), (4, 1), (3, 2), (6, 1), (2, 1), (1, 1), (4, 3), (2, 3)], 3, False)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from expdirect.cli import main as cli_main

    problem = corpus.report_problem(random.Random("reference/7"), SHAPE)
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        src, dst = Path(tmp) / "p60.json", Path(tmp) / "out.json"
        src.write_text(json.dumps(problem))
        for flag, oracle in (("off", False), ("on", True)):
            t0 = perf_counter()
            code = cli_main(["report", "--oracle", flag, "--input", str(src),
                             "--output", str(dst)])
            wall = perf_counter() - t0
            errors = check.check_report(problem, json.loads(dst.read_text()), code,
                                        oracle, 0.5 + 0.25j)
            factors = len(json.loads(dst.read_text())["points"][0]
                          ["decomposition"]["factors"])
            print(f"p=60, 8 branches, {factors} factors, oracle {flag}: "
                  f"{wall:.3f} s, exit {code}, checks {'ok' if not errors else errors}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
