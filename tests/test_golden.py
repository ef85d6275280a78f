"""Golden corpus: committed inputs whose CLI output must stay byte-identical.

Each ``tests/golden/<command>/NAME.in.json`` is run through
``expdirect <command> --input NAME.in.json`` with default flags, and the
bytes written must equal ``NAME.out.json``.  See ``tests/golden/README.md``
for how the corpus is laid out and regenerated.  Every ``report`` golden is
also run with ``--oracle off``, which must print the same document without
its ``oracle`` entries, and under every Galois conjugation of its input,
which must give the conjugate report.  Two interpreters with different
``PYTHONHASHSEED`` values write every JSON and SVG golden byte for byte.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import expdirect
from expdirect.cli import DEFAULT_ORDER_LIMIT, main
from expdirect.cyclotomic import CycloNum
from expdirect.laurent import LaurentPoly
from expdirect.serialize import branch_to_json, cyclo_from_json, cyclo_to_json, dumps
from tests.helpers import (conjugated_input, galois_ks, map_values, mk,
                           value_orders)

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


def _conjugate_report(doc, k, ramification):
    """sigma_k of a report, as plain JSON with its lists in a canonical order.

    sigma_k: zeta_N -> zeta_N^k sends copy i of a branch of ramification p_l
    to the copy whose root is zeta_(p_l)^(k*i), so each copy is renamed by
    the root index k*i mod p_l (in 1..p_l).  Factor and oracle lists,
    members and meeting points are compared as multisets: their order
    follows the values, which sigma_k changes.
    """
    doc = map_values(doc, lambda n, coeffs: cyclo_to_json(CycloNum(
        n, {k * e: Fraction(c) for e, c in coeffs.items()})))

    def rename(at, label, i):
        return label, (k * i - 1) % ramification[at][label] + 1

    def name(at, text):
        label, i = text.rsplit("#", 1)
        return "%s#%d" % rename(at, label, int(i))

    def by_json(items):
        return sorted(items, key=lambda x: json.dumps(x, sort_keys=True))

    for point in doc["points"]:
        at = (point["c"], point["k"])
        dec = point["decomposition"]
        for factor in dec["factors"]:
            factor["members"] = sorted(list(rename(at, *m)) for m in factor["members"])
        if "star_witness" in dec:
            dec["star_witness"] = [list(rename(at, *m)) for m in dec["star_witness"]]
        dec["factors"] = by_json(dec["factors"])
        for rep in point["oracle"]:
            for key in ("members_by_blowup", "members_by_polar"):
                rep[key] = sorted(name(at, n) for n in rep[key])
            rep["points"] = by_json({"label": name(at, pt["label"]), "point": pt["point"]}
                                    for pt in rep["points"])
        point["oracle"] = by_json(point["oracle"])
    return doc


def _check_report_galois(problem, golden, tmp_path):
    """Run ``report`` on sigma_k(problem), for every k below 2N coprime to
    the lcm N of the problem's coefficient orders and ramification indices,
    and compare with sigma_k(golden)."""
    orders = value_orders(problem)
    ramification = {}
    for point in problem["points"]:
        labels = ramification[(point["c"], point.get("k", 0))] = {}
        for b in point["branches"]:
            labels[b["label"]] = b["p"]
            orders.append(b["p"])
    ks = galois_ks(lcm(1, *orders))
    for k in ks:
        src, out = tmp_path / f"sigma{k}.in.json", tmp_path / f"sigma{k}.out.json"
        src.write_text(json.dumps(conjugated_input(problem, k)))
        assert main(["report", "--input", str(src), "--output", str(out)]) == 0
        assert _conjugate_report(json.loads(out.read_text()), 1, ramification) == \
            _conjugate_report(golden, k, ramification)
    return len(ks)


@pytest.mark.parametrize(
    "case", REPORTS, ids=[c.name[:-len(".in.json")] for c in REPORTS])
def test_report_commutes_with_galois_conjugation(case, tmp_path):
    # Branch data over Q(zeta_N) conjugated by sigma_k give the conjugate
    # report: the pipeline is defined over Q.
    golden = json.loads(case.with_name(case.name.replace(".in.json", ".out.json"))
                        .read_text())
    _check_report_galois(json.loads(case.read_text()), golden, tmp_path)


def _shared_coefficient_problem(rng: random.Random) -> dict:
    """One point whose branches z3 and z4 carry c*zeta_3 and c*zeta_4 at one
    exponent, two values stored with equal coefficients at different orders,
    beside a rational ramified branch."""
    q = rng.randint(1, 3)
    e = rng.randint(-q, -1)
    c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 3))
    rest = {x: Fraction(rng.randint(1, 3)) for x in range(-q, 0)
            if x != e and (x == -q or rng.random() < 0.5)}
    branches = [
        mk(f"z{n}", q=q, alpha=LaurentPoly({**rest, e: CycloNum(n, {1: c})}),
           delta=LaurentPoly({0: n}))
        for n in (3, 4)
    ]
    p = rng.choice([2, 4])
    branches.append(mk("r", p=p, q=1, alpha=LaurentPoly({-1: rng.randint(1, 3)}),
                       delta=LaurentPoly({0: 5, 1: rng.randint(1, 3)})))
    return {"points": [{"c": "0", "k": 0, "branches": [
        json.loads(dumps(branch_to_json(b))) for b in branches]}]}


@pytest.mark.parametrize("seed", range(4))
def test_report_commutes_with_galois_conjugation_on_shared_coefficients(seed, tmp_path):
    problem = _shared_coefficient_problem(random.Random(seed))
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(problem))
    assert main(["report", "--input", str(src), "--output", str(out)]) == 0
    assert _check_report_galois(problem, json.loads(out.read_text()), tmp_path) == 8


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


# Writes every golden output of this corpus under the directory argv[2]: one
# run per JSON golden, then one per SVG case in argv[3:], its JSON to nowhere.
_ALL_OUTPUTS = """
import os, sys
from pathlib import Path
from expdirect.cli import main

golden, out = Path(sys.argv[1]), Path(sys.argv[2])
svg_cases = {Path(a) for a in sys.argv[3:]}
for case in sorted(golden.glob("*/*.in.json")):
    stem, cmd = case.name[:-len(".in.json")], case.parent.name
    (out / cmd).mkdir(exist_ok=True)
    args = [cmd, "--input", str(case)]
    assert main(args + ["--output", str(out / cmd / f"{stem}.out.json")]) == 0
    if case in svg_cases:
        assert main(args + ["--output", os.devnull,
                            "--svg", str(out / cmd / f"{stem}.svg")]) == 0
"""


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def test_outputs_are_byte_identical_across_hash_seeds(tmp_path):
    # Identical input gives identical bytes in any process: two interpreters
    # with different string hashing write every JSON and SVG golden.
    src = str(Path(expdirect.__file__).resolve().parent.parent)
    runs = []
    for seed in ("0", "12345"):
        out = tmp_path / seed
        out.mkdir()
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        subprocess.run([sys.executable, "-c", _ALL_OUTPUTS, str(GOLDEN), str(out),
                        *map(str, SVG_CASES)], env=env, check=True)
        runs.append(_files(out))
    want = {name: data for name, data in _files(GOLDEN).items()
            if name.endswith((".out.json", ".svg"))}
    assert len(want) == 28 + 5
    assert runs[0] == runs[1] == want
