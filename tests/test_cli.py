"""CLI subcommands, exit-code contract, and output determinism."""

import contextlib
import dataclasses
import io
import json
import random
import re
import tempfile
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from expdirect.cli import main
from expdirect.cyclotomic import CycloNum, CycloPoly
from expdirect.laurent import LaurentPoly
from expdirect.realization import FormalModuleSpec, FormalSummand
from expdirect.resolution import build_resolution
from expdirect.serialize import (branch_to_json, cyclo_to_json, cyclopoly_from_json,
                                 cyclopoly_to_json, laurent_from_json, laurent_to_json)
from tests.helpers import (laurent_sum, mk, rand_branch, root, spec_doc,
                           worked_example_branches)
from tests.test_realization import INVALID_SPECS, rand_spec


@pytest.fixture()
def problem_file(tmp_path):
    doc = {
        "points": [
            {"c": "0", "k": 0,
             "branches": [branch_to_json(b) for b in worked_example_branches()]},
            {"c": "infty", "k": 0, "branches": []},
        ],
        "options": {"truncation": 8},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def test_report_worked_example(problem_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("report", "--input", problem_file, "--output", out) == 0
    doc = json.loads(out.read_text())
    pts = doc["points"]
    assert [(p["c"], p["k"]) for p in pts] == [("0", 0), ("infty", 0)]
    main_pt = pts[0]
    assert main_pt["irregularity"] == "5"
    assert main_pt["slopes"] == ["1", "3/2"]
    dec = main_pt["decomposition"]
    assert dec["p"] == 2 and dec["star"] is True
    assert [f["rank_branchwise"] for f in dec["factors"]] == [2, 1, 1]
    assert main_pt["consistent"] is True

    # A point with no branches is purely regular.
    regular = pts[1]
    assert regular["irregularity"] == "0"
    assert regular["slopes"] == []
    assert regular["decomposition"]["factors"] == []


def test_report_deterministic(problem_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("report", "--input", problem_file, "--output", a) == 0
    assert run_cli("report", "--input", problem_file, "--output", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_invariants_and_svg(problem_file, tmp_path):
    svg = tmp_path / "poly.svg"
    out = tmp_path / "inv.json"
    assert run_cli("invariants", "--input", problem_file,
                   "--output", out, "--svg", svg) == 0
    written = sorted(p.name for p in tmp_path.glob("poly*.svg"))
    assert written == ["poly-0-k0.svg", "poly-infty-k0.svg"]
    text = (tmp_path / "poly-0-k0.svg").read_text()
    m = re.search(r'data-vertices="([^"]+)"', text)
    verts = [tuple(Fraction(x) for x in p.split(",")) for p in m.group(1).split(";")]
    assert verts == [(0, 0), (2, 2), (4, 5)]


@pytest.mark.parametrize("command", ["invariants", "report"])
def test_svg_names_that_collide_are_exit_2(tmp_path, capsys, command):
    # "a b" and "a_b" both map to poly-a_b-k0.svg: refused before the report
    # or any SVG is written.
    doc = {"points": [
        {"c": c, "k": 0, "branches": [branch_to_json(mk("l", q=q))]}
        for c, q in (("a b", 1), ("a_b", 2))
    ]}
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(doc))
    out, svg = tmp_path / "out.json", tmp_path / "poly.svg"
    assert run_cli(command, "--input", path, "--output", out, "--svg", svg) == 2
    shared = tmp_path / "poly-a_b-k0.svg"
    assert capsys.readouterr().err == (
        f"error: points (c='a b', k=0) and (c='a_b', k=0) would share the SVG "
        f"file {shared}\n")
    assert not out.exists()
    assert list(tmp_path.glob("*.svg")) == []


@pytest.mark.parametrize("spelling", ["plain", "dotted", "absolute"])
@pytest.mark.parametrize("command", ["invariants", "report"])
def test_svg_that_names_the_output_file_is_exit_2(tmp_path, monkeypatch, capsys,
                                                   command, spelling):
    # Any spelling of --output that resolves to an SVG's file is refused
    # before the report or any SVG is written.  With one point the SVG is
    # --svg itself; with two, point c=0 writes poly-0-k0.svg.
    monkeypatch.chdir(tmp_path)
    one = [{"c": "0", "k": 0, "branches": [branch_to_json(mk("l", q=2))]}]
    two = [*one, {"c": "infty", "k": 0, "branches": []}]
    for points, svg, shared in ((one, "same.svg", "same.svg"),
                                (two, "poly.svg", "poly-0-k0.svg")):
        Path("in.json").write_text(json.dumps({"points": points}))
        output = {"plain": shared, "dotted": f"./{shared}",
                  "absolute": str(tmp_path / shared)}[spelling]
        assert run_cli(command, "--input", "in.json", "--output", output,
                       "--svg", svg) == 2
        assert capsys.readouterr().err == (
            f"error: --output and the SVG of point (c='0', k=0) would share "
            f"the file {shared}\n")
        assert list(tmp_path.glob("*.svg")) == []


@pytest.mark.parametrize("points", [1, 2], ids=["one-point", "two-points"])
@pytest.mark.parametrize("svg", [".", "/"], ids=["dot", "root"])
@pytest.mark.parametrize("command", [["report", "--oracle", "off"], ["invariants"]],
                         ids=["report-off", "invariants"])
def test_svg_that_names_no_file_is_exit_2(tmp_path, monkeypatch, capsys,
                                          command, svg, points):
    # "." and "/" name a directory, not a file: refused before any write.
    monkeypatch.chdir(tmp_path)
    doc = {"points": [{"c": c, "k": 0, "branches": [branch_to_json(mk("l", q=2))]}
                      for c in ("0", "1")[:points]]}
    Path("in.json").write_text(json.dumps(doc))
    assert run_cli(*command, "--input", "in.json", "--output", "out.json",
                   "--svg", svg) == 2
    assert capsys.readouterr().err == f"error: --svg {svg} names no file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


@pytest.mark.parametrize("svg, points, path, why", [
    ("d", 1, "d", "is a directory"),
    ("..", 1, "..", "is a directory"),
    ("nodir/poly.svg", 1, "nodir/poly.svg", "has no existing directory"),
    ("nodir/poly.svg", 2, "nodir/poly-0-k0.svg", "has no existing directory"),
], ids=["directory", "parent", "no-directory", "no-directory-two-points"])
@pytest.mark.parametrize("command", ["invariants", "report"])
def test_svg_that_cannot_be_written_is_exit_2(tmp_path, monkeypatch, capsys,
                                              command, svg, points, path, why):
    # An SVG path that is a directory, or lies in a directory that does not
    # exist, is refused before the report or any SVG is written.
    monkeypatch.chdir(tmp_path)
    Path("d").mkdir()
    doc = {"points": [{"c": c, "k": 0, "branches": [branch_to_json(mk("l", q=2))]}
                      for c in ("0", "1")[:points]]}
    Path("in.json").write_text(json.dumps(doc))
    assert run_cli(command, "--input", "in.json", "--output", "out.json",
                   "--svg", svg) == 2
    assert capsys.readouterr().err == f"error: the SVG file {path} {why}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "in.json"]
    assert list(Path("d").iterdir()) == []


def test_validate_rejects_inconsistent_zeta(problem_file, tmp_path, capsys):
    doc = json.loads(problem_file.read_text())
    doc["points"][0]["branches"][0]["m"] = 5  # deg(zeta) stays 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("validate", "--input", bad) == 2
    assert run_cli("report", "--input", bad) == 2
    err = capsys.readouterr().err
    assert "deg(zeta)" in err


def test_malformed_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{this is not json")
    assert run_cli("report", "--input", bad) == 2
    assert run_cli("report", "--input", tmp_path / "missing.json") == 2
    assert run_cli("report", "--input", tmp_path) == 2  # a directory
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"points": [{"c": "\xe9"}]}')
    assert run_cli("report", "--input", latin1) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert all(line.startswith("error: ") for line in err.splitlines())


@pytest.mark.parametrize("command", ["report", "validate", "resolve", "realize"])
@pytest.mark.parametrize("text, reason", [
    ('{"points": [{"c": "0", "k": ' + "9" * 4301 + "}]}", "digits"),
    ("[" * 100000, "recursion"),
], ids=["long-int", "deep-nesting"])
def test_unparsable_json_values_are_exit_2(tmp_path, capsys, command, text, reason):
    # An integer literal past Python's int conversion limit, and nesting
    # deeper than the recursion limit: json.load raises ValueError and
    # RecursionError for these, not JSONDecodeError.
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert run_cli(command, "--input", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $: unreadable JSON: ") and reason in err
    assert len(err.splitlines()) == 1


def test_float_coefficient_is_exit_2(tmp_path, capsys):
    doc = {"points": [{"c": "0", "k": 0, "branches": [
        {"label": "a", "p": 1, "q": 1, "m": 1,
         "alpha": {"terms": {"-1": {"order": 1, "coeffs": {"0": 0.5}}}},
         "delta": {"terms": {}},
         "zeta": [{"order": 1, "coeffs": {"0": "-1"}},
                  {"order": 1, "coeffs": {"0": "1"}}]}]}]}
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    assert run_cli("report", "--input", path) == 2
    assert "not exact" in capsys.readouterr().err


def _zeta_past_the_digit_limit():
    # Two branches share a factor whose charpoly is the product of their
    # zetas, lambda + 77...7 (3000 digits): its constant has 6000 digits.
    zeta = ["7" * 3000, "1"]
    return {"points": [{"c": "0", "k": 0, "branches": [
        branch_to_json(mk(label, delta=LaurentPoly({0: d}))) | {"zeta": zeta}
        for label, d in (("a", 1), ("b", 2))]}]}


@pytest.mark.parametrize("args, doc", [
    (["report", "--oracle", "off"], _zeta_past_the_digit_limit()),
    (["report"], _zeta_past_the_digit_limit()),
    (["decompose"], _zeta_past_the_digit_limit()),
    (["resolve"], {"alpha": {"terms": {"-2": "1/" + "7" * 3000, "-1": "7" * 3000}}}),
], ids=["charpoly-oracle-off", "charpoly", "charpoly-decompose", "resolve-shift"])
def test_integer_past_the_conversion_limit_is_exit_2(tmp_path, capsys, args, doc):
    # Python refuses to write an int of more than sys.get_int_max_str_digits()
    # digits; the CLI names that limit and writes no output file.
    path, out = tmp_path / "long.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    assert run_cli(*args, "--input", path, "--output", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: an integer exceeds Python's integer "
                          "string-conversion limit")
    assert len(err.splitlines()) == 1 and not out.exists()


def test_rational_in_exponent_notation_is_exit_2(tmp_path, capsys):
    # Fraction("1e5000") would parse to an int too long to write back.
    doc = {"points": [{"c": "0", "k": 0, "branches": [
        branch_to_json(mk("a")) | {"alpha": {"terms": {"-1": "1e5000"}}}]}]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    assert run_cli("report", "--input", path) == 2
    err = capsys.readouterr().err
    assert err == ("error: $.points[0].branches[0].alpha.terms.-1: "
                   "not an exact rational: '1e5000'\n")


@pytest.mark.parametrize("value, where, message", [
    ({"order": 0, "coeffs": {"1": 1}}, "", "order must be a positive integer, got 0"),
    ({"order": -4, "coeffs": {"1": 1}}, "",
     "order must be a positive integer, got -4"),
    ({"order": 20000, "coeffs": {"1": 1}}, ".order",
     "order 20000 exceeds the order cap 10000 (--max-order)"),
    ({"order": 4, "coeffs": {"1.5": 1}}, ".coeffs.1.5",
     "expected an integer key, got '1.5'"),
    ({"order": -4, "coeffs": {"x": 1}}, ".coeffs.x",
     "expected an integer key, got 'x'"),
], ids=["order-0", "order-negative", "order-past-the-cap", "key", "key-first"])
def test_single_term_refusals_are_exit_2_with_their_message(tmp_path, capsys,
                                                             value, where, message):
    # A single term takes the constructor's one-term path: it refuses what
    # the dense path refuses, at the same path and with the same message,
    # and never divides by a bad order.
    doc = {"points": [{"c": "0", "k": 0, "branches": [
        branch_to_json(mk("a")) | {"alpha": {"terms": {"-1": value}}}]}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert run_cli("report", "--oracle", "off", "--input", path) == 2
    assert capsys.readouterr().err == (
        f"error: $.points[0].branches[0].alpha.terms.-1{where}: {message}\n")


@pytest.mark.parametrize("args", [["report", "--oracle", "off"], ["report"],
                                  ["decompose"]])
def test_each_point_is_validated_once(problem_file, monkeypatch, args):
    # The command line validates every point's branches at the declared
    # truncation, and decompose does not check them again.
    import expdirect.branch as branch_mod
    import expdirect.cli as cli_mod
    import expdirect.decomposition as decomposition_mod

    calls = []
    real = branch_mod.validate_all

    def spy(branches, truncation=None):
        calls.append(truncation)
        return real(branches, truncation)

    monkeypatch.setattr(branch_mod, "validate_all", spy)
    monkeypatch.setattr(cli_mod, "validate_all", spy)
    monkeypatch.setattr(decomposition_mod, "validate_all", spy)
    assert run_cli(*args, "--input", problem_file) == 0
    assert calls == [8, 8]


def test_resolve_text_and_json(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(
        {"alpha": {"terms": {"-3": {"order": 1, "coeffs": {"0": "2"}}}}}))
    assert run_cli("resolve", "--input", path) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["blow_ups"] == 6
    assert [c["pole_order"] for c in doc["components"]] == [3, 3, 3, 2, 1, 0]
    assert doc["components"][-1]["distinguished"] is True

    assert run_cli("resolve", "--input", path, "--text") == 0
    assert "6 point blow-ups" in capsys.readouterr().out


def test_realize_and_roundtrip(tmp_path, capsys):
    spec = {
        "p": 2,
        "summands": [{
            "alpha": {"terms": {"-3": {"order": 1, "coeffs": {"0": "1"}}}},
            "rank": 1,
            "charpoly": [{"order": 1, "coeffs": {"0": "1"}},
                         {"order": 1, "coeffs": {"0": "1"}}],
        }],
        "regular_rank": 0,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run_cli("realize", "--input", path) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(b["p"], b["q"], b["m"]) for b in doc["branches"]] == [(2, 3, 1)]

    assert run_cli("roundtrip", "--input", path) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert len(doc["decomposition"]["factors"]) == 2


@pytest.mark.parametrize("command", ["realize", "roundtrip"])
@pytest.mark.parametrize("case", INVALID_SPECS, ids=[c[0] for c in INVALID_SPECS])
def test_invalid_spec_is_exit_2_at_the_root(tmp_path, capsys, command, case):
    _, p, summands, regular, message = case
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "p": p,
        "summands": [{"alpha": laurent_to_json(LaurentPoly(a)), "rank": rank,
                      "charpoly": cyclopoly_to_json(CycloPoly(cp))}
                     for a, rank, cp in summands],
        "regular_rank": regular,
    }))
    assert run_cli(command, "--input", path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: $: {message}\n"


def test_roundtrip_runs_roundtrip_check_on_one_orbit_table(monkeypatch, tmp_path):
    # expdirect roundtrip calls realization.roundtrip_check, which builds the
    # spec's orbit table once and makes the branches from it: it does not go
    # through the public realize, and it closes each spec orbit once.
    import expdirect.cli as cli_mod
    import expdirect.realization as realization

    calls = []
    check, closure = realization.roundtrip_check, realization.orbit_closure

    def spy_check(spec):
        calls.append("roundtrip_check")
        return check(spec)

    def spy_realize(spec):
        raise AssertionError("roundtrip_check called realize")

    def spy_closure(p, alpha):
        calls.append(("orbit_closure", p))
        return closure(p, alpha)

    monkeypatch.setattr(cli_mod, "roundtrip_check", spy_check)
    monkeypatch.setattr(realization, "realize", spy_realize)
    monkeypatch.setattr(realization, "orbit_closure", spy_closure)
    case = Path(__file__).parent / "golden" / "roundtrip" / "01_p2_single.in.json"
    assert run_cli("roundtrip", "--input", case,
                   "--output", tmp_path / "out.json") == 0
    # One spec orbit, at p = 2.
    assert calls == ["roundtrip_check", ("orbit_closure", 2)]


def test_roundtrip_conflict_is_exit_2(tmp_path, capsys):
    spec = {
        "p": 2,
        "summands": [
            {"alpha": {"terms": {"-3": {"order": 1, "coeffs": {"0": "1"}}}},
             "rank": 1,
             "charpoly": [{"order": 1, "coeffs": {"0": "1"}},
                          {"order": 1, "coeffs": {"0": "1"}}]},
            {"alpha": {"terms": {"-3": {"order": 1, "coeffs": {"0": "-1"}}}},
             "rank": 2,
             "charpoly": [{"order": 1, "coeffs": {"0": "1"}},
                          {"order": 1, "coeffs": {"0": "0"}},
                          {"order": 1, "coeffs": {"0": "1"}}]},
        ],
        "regular_rank": 0,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run_cli("roundtrip", "--input", path) == 2
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["ok"] is False and doc["conflicts"]
    # Nothing was decomposed: the computed ramification reads 0.
    assert doc["computed_ramification"] == 0 and "decomposition" not in doc
    # One line, the one realize prints for the same spec.
    assert captured.err == f"error: $.summands: {doc['conflicts'][0]}\n"
    assert "carries ranks [1, 2]" in captured.err
    assert run_cli("realize", "--input", path) == 2
    assert capsys.readouterr().err == captured.err


def test_roundtrip_exit_3_on_mismatch(monkeypatch, tmp_path, capsys):
    # Force a mismatch through the plumbing: the decomposition loses its
    # last factor, so one spec class is missing.  The report is written as
    # it stands, and one stderr line counts the missing and extra classes.
    import expdirect.realization as realization

    real = realization.decompose

    def broken(branches):
        dec = real(branches)
        return dataclasses.replace(dec, factors=dec.factors[:-1])

    monkeypatch.setattr(realization, "decompose", broken)
    case = Path(__file__).parent / "golden" / "roundtrip" / "03_p4_orbit_listed.in.json"
    out = tmp_path / "out.json"
    assert run_cli("roundtrip", "--input", case, "--output", out) == 3
    doc = json.loads(out.read_text())
    assert doc["ok"] is False and len(doc["missing"]) == 1 and not doc["extra"]
    assert capsys.readouterr().err == \
        "error: round trip mismatch: 1 missing and 0 extra classes\n"


def test_verify_subcommand(problem_file, capsys):
    assert run_cli("verify", "--input", problem_file) == 0
    doc = json.loads(capsys.readouterr().out)
    checks = doc["points"][0]["oracle"]
    assert len(checks) == 3
    assert all(c["consistent"] for c in checks)
    members = [c["members_by_blowup"] for c in checks]
    assert members == [["l1#1"], ["l2#1"], ["l2#2"]]
    # A point without branches has nothing to check, and says so.
    assert doc["points"][1] == {"c": "infty", "k": 0, "oracle": [],
                                "consistent": True}


# Stage calls over problem_file's two points, one of them without branches.
@pytest.mark.parametrize("args, polygons, decompositions, calls, chains", [
    pytest.param(["invariants"], 2, 0, 0, 0, id="invariants-0"),
    pytest.param(["decompose"], 0, 2, 0, 0, id="decompose-0"),
    pytest.param(["verify"], 0, 2, 3, 2, id="verify-3"),
    pytest.param(["report"], 2, 2, 3, 2, id="report-3"),
    pytest.param(["report", "--oracle", "off"], 2, 2, 0, 0, id="report-off-0"),
])
def test_oracle_runs_only_for_a_view_that_prints_it(
        problem_file, monkeypatch, capsys, args, polygons, decompositions, calls,
        chains):
    # Each view runs only the stages it prints: the polygon, the
    # decomposition, and the oracle once per factor, with one chain built
    # per branch that owns a factor: l1 owns one factor, l2 its two copies'.
    import expdirect.cli as cli_mod
    import expdirect.resolution as resolution_mod

    seen = {}

    def spy(module, name):
        real, calls_of = getattr(module, name), seen.setdefault(name, [])

        def wrapper(*a, **kw):
            calls_of.append(a)
            return real(*a, **kw)
        return wrapper

    for module, name in ((cli_mod, "polygon_from_branches"), (cli_mod, "decompose"),
                         (resolution_mod, "verify_corollary"),
                         (resolution_mod, "build_resolution")):
        monkeypatch.setattr(module, name, spy(module, name))
    assert run_cli(*args, "--input", problem_file) == 0
    assert [len(calls_of) for calls_of in seen.values()] == \
        [polygons, decompositions, calls, chains]
    if calls:
        # One call per factor, in the order the report lists them.
        checks = json.loads(capsys.readouterr().out)["points"][0]["oracle"]
        assert [laurent_to_json(factor.alpha)
                for _, factor, _ in seen["verify_corollary"]] == \
            [check["alpha"] for check in checks]
        # The chains built are those of each branch's first factor, and
        # every factor is checked against its own polar part's chain.
        firsts = {}
        for _, factor, _ in seen["verify_corollary"]:
            firsts.setdefault(factor.members[0][0], factor.alpha)
        assert [alpha for (alpha,) in seen["build_resolution"]] == \
            list(firsts.values())
        assert all(tree == build_resolution(factor.alpha)
                   for _, factor, tree in seen["verify_corollary"])


def test_decompose_subcommand(problem_file, capsys):
    assert run_cli("decompose", "--input", problem_file) == 0
    doc = json.loads(capsys.readouterr().out)
    dec = doc["points"][0]["decomposition"]
    polys = [f.get("charpoly") for f in dec["factors"]]
    assert all(p is not None for p in polys)


def test_report_oracle_off(problem_file, tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("report", "--input", problem_file, "--output", out,
                   "--oracle", "off") == 0
    doc = json.loads(out.read_text())
    assert all("oracle" not in pt for pt in doc["points"])


@pytest.mark.parametrize("command", ["report", "verify"])
def test_report_exit_3_on_oracle_mismatch(problem_file, monkeypatch, capsys, command):
    # Force a disagreement through the plumbing: the file-level contract is
    # exit 3 when the independent check contradicts the symbolic result.
    import expdirect.cli as cli_mod
    import expdirect.resolution as resolution_mod

    real = resolution_mod.verify_corollary

    def broken(series, factor, tree):
        # The polar side forgets the factor's first member.
        rep = real(series, factor, tree)
        object.__setattr__(rep, "members_by_polar", rep.members_by_polar[1:])
        return rep

    monkeypatch.setattr(resolution_mod, "verify_corollary", broken)
    assert run_cli(command, "--input", problem_file) == 3
    # One line per disputed factor: the point, the factor, and the copy the
    # two sides disagree on with the blow-up steps it matched.
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("error: oracle disagreement at point "
                               "(c='0', k=0), factor alpha = {\"terms\": {")
               for line in lines)
    assert sorted(line.split(": ")[-1] for line in lines) == [
        "l1#1 is a member by blow-up only (4 of 4 blow-up steps matched)",
        "l2#1 is a member by blow-up only (6 of 6 blow-up steps matched)",
        "l2#2 is a member by blow-up only (6 of 6 blow-up steps matched)",
    ]

    # A later factor of a branch takes the twist of the branch's first
    # chain only when the two polar parts agree: a factor whose polar part
    # is perturbed gets its own chain, which its member leaves early.
    monkeypatch.undo()
    real_decompose = cli_mod.decompose
    disputed = []

    def perturbed(branches):
        dec = real_decompose(branches)
        factors, owners = list(dec.factors), set()
        for j, factor in enumerate(factors):
            if factor.members[0][0] in owners:
                factors[j] = dataclasses.replace(
                    factor, alpha=laurent_sum(factor.alpha, LaurentPoly({-1: 1})))
                disputed.append(factors[j])
                return dataclasses.replace(dec, factors=tuple(factors))
            owners.add(factor.members[0][0])
        return dec

    monkeypatch.setattr(cli_mod, "decompose", perturbed)
    assert run_cli(command, "--input", problem_file) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (
        "error: oracle disagreement at point (c='0', k=0), factor alpha = "
        '{"terms": {"-1": {"coeffs": {"0": "1"}, "order": 1}, '
        '"-3": {"coeffs": {"0": "1"}, "order": 1}}}: l2#2 is a '
        "member by polar part only (5 of 6 blow-up steps matched); rank by "
        "blow-up 0, by decomposition 1; charpoly by blow-up "
        '[{"coeffs": {"0": "1"}, "order": 1}], by decomposition '
        '[{"coeffs": {"0": "1"}, "order": 1}, {"coeffs": {"0": "1"}, "order": 1}]')
    # Each value is JSON that its parser reads back as the factor holds it.
    (factor,) = disputed

    def value_after(marker, parse):
        start = line.rindex(marker) + len(marker)
        data, _ = json.JSONDecoder().raw_decode(line, start)
        return parse(data, max_order=12)

    assert value_after("factor alpha = ", laurent_from_json) == factor.alpha
    assert value_after("charpoly by blow-up ", cyclopoly_from_json) == CycloPoly([1])
    assert value_after("by decomposition ", cyclopoly_from_json) == factor.charpoly


@pytest.mark.parametrize("mutate, want", [
    (lambda fs: [dataclasses.replace(fs[0], rank_branchwise=3), *fs[1:]],
     "rank by blow-up 2, by decomposition 3"),
    (lambda fs: [dataclasses.replace(fs[0], charpoly=fs[1].charpoly), *fs[1:]],
     'charpoly by blow-up [{"coeffs": {"0": "1"}, "order": 1}, '
     '{"coeffs": {"0": "-2"}, "order": 1}, {"coeffs": {"0": "1"}, "order": 1}], '
     'by decomposition [{"coeffs": {"0": "1"}, "order": 1}, '
     '{"coeffs": {"0": "1"}, "order": 1}]'),
], ids=["rank", "charpoly"])
def test_report_exit_3_on_mutant_factor(problem_file, monkeypatch, capsys,
                                        mutate, want):
    # A decomposition that misstates one factor's rank or charpoly is caught
    # by the oracle's own assembly over the distinguished component.
    import expdirect.cli as cli_mod

    real = cli_mod.decompose

    def mutant(branches):
        dec = real(branches)
        if not dec.factors:
            return dec
        return dataclasses.replace(dec, factors=tuple(mutate(dec.factors)))

    monkeypatch.setattr(cli_mod, "decompose", mutant)
    assert run_cli("report", "--input", problem_file) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line == ("error: oracle disagreement at point (c='0', k=0), factor alpha "
                    '= {"terms": {"-2": {"coeffs": {"0": "1"}, "order": 1}}}: ' + want)


_nonzero = st.builds(lambda n, i, r: root(n, i % n) * r,
                     st.sampled_from([1, 2, 3, 4]), st.integers(0, 3),
                     st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                                      Fraction(-1, 2)]))


@st.composite
def _twin_problems(draw):
    """Two problem documents whose branches differ only in the values of
    delta past its constant term: same support, nonzero values.  Branches
    share polar parts and constant terms, so factors have several members
    and separation fails in some."""
    pool = []
    for q in (1, 2):
        terms = {-q: draw(_nonzero)}
        if q > 1 and draw(st.booleans()):
            terms[-1] = draw(_nonzero)
        pool.append(LaurentPoly(terms))
    twins = ([], [])
    for i in range(draw(st.integers(1, 3))):
        alpha = draw(st.sampled_from(pool))
        head = {0: draw(st.sampled_from([0, 1]))}
        support = draw(st.sets(st.integers(1, 4), min_size=1, max_size=3))
        m = draw(st.integers(1, 2))
        p = draw(st.integers(1, 3))
        for branches in twins:
            delta = LaurentPoly({**head, **{e: draw(_nonzero) for e in support}})
            branches.append(mk(f"b{i}", p=p, q=alpha.pole_order(), alpha=alpha,
                               delta=delta, m=m))
    return tuple({"points": [{"c": "0", "k": 0, "branches": [
        branch_to_json(b) for b in branches]}]} for branches in twins)


def _report_bytes(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.json", Path(tmp) / "out.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("report", "--input", path, "--output", out)
        return code, out.read_bytes() if out.exists() else None, err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_twin_problems())
def test_report_reads_delta_only_through_its_constant_term(twins):
    # The oracle reads a copy's series through y[2q], which the polar part
    # and the constant term of delta decide: the other terms of delta change
    # no byte of the report, of stderr or of the exit code.
    first, second = twins
    assert _report_bytes(first) == _report_bytes(second)


def test_max_order_flag(problem_file, tmp_path, capsys):
    doc = {"points": [{"c": "0", "k": 0, "branches": [
        branch_to_json(mk("a", p=7, q=2, alpha=None, m=1))]}]}
    path = tmp_path / "seven.json"
    path.write_text(json.dumps(doc))
    assert run_cli("report", "--input", path, "--max-order", 5) == 2


def test_file_order_limit_does_not_leak_into_the_next_call(tmp_path):
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps({
        "points": [{"c": "0", "k": 0, "branches": [branch_to_json(mk("a"))]}],
        "options": {"max_order": 3}}))
    assert run_cli("report", "--input", capped) == 0
    # The cap is back at the default as soon as main returns.
    order4 = tmp_path / "order4.json"
    order4.write_text(json.dumps({"points": [{"c": "0", "k": 0, "branches": [
        branch_to_json(mk("b", p=4, q=1, alpha=LaurentPoly({-1: 1})))]}]}))
    assert run_cli("report", "--input", order4, "--oracle", "off") == 0


def _problem(path, *points):
    """A problem file with one point per branch list, c = "z", "y", ...: the
    input order is the reverse of the report's."""
    path.write_text(json.dumps({"points": [
        {"c": chr(ord("z") - i), "k": 0,
         "branches": [branch_to_json(b) for b in branches]}
        for i, branches in enumerate(points)]}))
    return path


def test_order_cap(tmp_path, capsys):
    # The cap is checked before any work, once per unit of work: exit 2 with
    # the JSON path, the order bound and the flag that raises the cap.
    z5, z7 = root(5, 1), root(7, 1)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_doc(FormalModuleSpec(7, (
        FormalSummand(LaurentPoly({-1: z5}), 1, CycloPoly([-1, 1])),)))))
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps(
        {"alpha": laurent_to_json(LaurentPoly({-2: z7, -1: z5}))}))
    fine = [mk("ok")]
    bound_35 = [
        # Values of orders 7 and 5 on two branches: their sum and product
        # live at order 35.
        ("report", _problem(tmp_path / "two.json", fine, [
            mk("a", alpha=LaurentPoly({-1: z7})),
            mk("b", alpha=LaurentPoly({-1: z5}))]), "$.points[1]"),
        # An order-7 coefficient twisted by the 5th roots of a p = 5 branch.
        ("report", _problem(tmp_path / "twist.json", [
            mk("a", p=5, alpha=LaurentPoly({-1: z7}))]), "$.points[0]"),
        ("roundtrip", spec, "$"),
        ("resolve", alpha, "$.alpha"),
    ]
    for command, path, where in bound_35:
        assert run_cli(command, "--input", path, "--max-order", 10) == 2, path
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: order bound 35 "), err
        assert err.endswith(" exceeds the order cap 10 (--max-order)\n"), err
        out = tmp_path / "out.json"
        assert run_cli(command, "--input", path, "--output", out,
                       "--max-order", 35) == 0, path

    # A declared order above the cap is refused while parsing, at its path.
    eleven = _problem(tmp_path / "eleven.json", [
        mk("a", alpha=LaurentPoly({-1: root(11, 1)}))])
    assert run_cli("report", "--input", eleven, "--max-order", 10) == 2
    assert capsys.readouterr().err == (
        "error: $.points[0].branches[0].alpha.terms.-1.order: order 11 "
        "exceeds the order cap 10 (--max-order)\n")

    # The bound is stricter than the orders reached: an order-101 polar
    # coefficient and an order-103 zeta never meet in one product, but
    # lcm(101, 103) = 10403 is above the default cap.
    apart = _problem(tmp_path / "apart.json", [
        mk("a", alpha=LaurentPoly({-1: root(101, 1)}),
           zeta=CycloPoly([-root(103, 1), 1]))])
    assert run_cli("report", "--input", apart, "--oracle", "off") == 2
    assert "$.points[0]: order bound 10403 " in capsys.readouterr().err
    assert run_cli("report", "--input", apart, "--oracle", "off",
                   "--max-order", 10403) == 0


@pytest.mark.parametrize("ps", [
    # Two coprime ramification indices of 4300 digits: their lcm has about
    # 8600, past Python's integer string-conversion limit.
    (10**4299 + 1, 10**4299 + 3),
    # A 4300-digit index after an order-7 one: lcm(7, p) = 7p has 4301.
    (7, 10**4300 - 1),
], ids=["coprime-indices", "index-past-the-cap"])
def test_order_bound_past_the_conversion_limit_is_the_order_cap_message(
        tmp_path, capsys, ps):
    # The refusal names the first divisor of the bound past the cap, which
    # Python can write, and writes no output file.
    path, out = tmp_path / "long.json", tmp_path / "out.json"
    path.write_text(json.dumps({"points": [{"c": "0", "k": 0, "branches": [
        branch_to_json(mk(f"b{i}", p=p)) for i, p in enumerate(ps)]}]}))
    assert run_cli("invariants", "--input", path, "--output", out) == 2
    err = capsys.readouterr().err
    named = next(p for p in ps if p > 10_000)
    assert err.startswith(f"error: $.points[0]: order bound {named} "), err[:80]
    assert err.endswith(" exceeds the order cap 10000 (--max-order)\n")
    assert len(err.splitlines()) == 1 and not out.exists()


def test_a_high_order_value_is_built_and_emitted_in_small_memory():
    # zeta_6000^5999 normalises to a handful of basis terms; no table that
    # grows with the square of the order is built or kept.
    import tracemalloc

    tracemalloc.start()
    try:
        value = CycloNum(6000, {5999: 1})
        doc = cyclo_to_json(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert doc["order"] == 6000 and 0 < len(doc["coeffs"]) <= 8


def test_validate_reads_a_high_order_value(tmp_path, capsys):
    b = branch_to_json(mk("a"))
    b["alpha"] = {"terms": {"-1": {"order": 6000, "coeffs": {"5999": 1}}}}
    path = tmp_path / "high.json"
    path.write_text(json.dumps({"points": [{"c": "0", "branches": [b]}]}))
    assert run_cli("validate", "--input", path) == 0
    assert capsys.readouterr().err == ""


def test_validate_checks_parsed_orders_only(tmp_path, capsys):
    # validate builds no products: a point whose order bound exceeds the cap
    # passes as long as each declared order is within it.
    path = _problem(tmp_path / "two.json", [
        mk("a", alpha=LaurentPoly({-1: root(7, 1)})),
        mk("b", alpha=LaurentPoly({-1: root(5, 1)}))])
    assert run_cli("validate", "--input", path, "--max-order", 10) == 0
    assert capsys.readouterr().err == ""


def test_every_order_built_divides_the_preflight_bound(monkeypatch, tmp_path):
    # Products take the lcm of their orders and twists use the p_l-th roots,
    # so no value may leave the field of its input's order bound.  The one
    # exception is parsing: the constructor rewrites an input value at the
    # order the file declares, which the parser caps, and stores it at its
    # conductor, which divides the bound.
    import expdirect.cyclotomic as cyclotomic
    import expdirect.serialize as serialize_mod

    orders, bounds = set(), []
    check_order, check_bound = cyclotomic._check_order, serialize_mod.check_order_bound

    def recorded_order(order):
        check_order(order)
        orders.add(order)

    def recorded_bound(path, values, cap):
        bounds.append(lcm(*values))
        check_bound(path, values, cap)

    monkeypatch.setattr(cyclotomic, "_check_order", recorded_order)
    monkeypatch.setattr(serialize_mod, "check_order_bound", recorded_bound)

    # validate checks no bound; its input is a copy of a report golden.
    runs = [(case.parent.name, case) for case in sorted(
        (Path(__file__).parent / "golden").glob("*/*.in.json"))
        if case.parent.name != "validate"]
    rng = random.Random(2024)
    for i in range(4):
        branches = [dataclasses.replace(
            rand_branch(rng, f"b{pl}", max_q=3, trunc=3, cyclo_coeffs=True), p=pl)
            for pl in (1, 2, 3, 6)]
        runs.append(("report", _problem(tmp_path / f"branches{i}.json", branches)))
    for i in range(6):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(spec_doc(rand_spec(rng))))
        runs.append(("roundtrip", path))

    assert len(runs) == 27 + 4 + 6
    for command, path in runs:
        orders.clear()
        bounds.clear()
        assert run_cli(command, "--input", path,
                       "--output", tmp_path / "out.json") == 0, path
        assert bounds, path
        declared = set(_declared_orders(json.loads(Path(path).read_text())))
        assert all(n in declared or any(b % n == 0 for b in bounds)
                   for n in orders), (path, sorted(orders), bounds)


def _declared_orders(doc):
    """Every ``order`` an input file writes for a cyclotomic value."""
    if isinstance(doc, dict):
        if isinstance(doc.get("order"), int) and "coeffs" in doc:
            yield doc["order"]
        for v in doc.values():
            yield from _declared_orders(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _declared_orders(v)


# Malformed and extreme JSON for the hypothesis test below.  Pole orders stay
# at most 3; the ramification p reaches 1e9.  "@nest<d>@" stands for a list
# nested d deep, written straight into the text.
def _mostly(ok, bad):
    """``ok`` three times in four, else ``bad``."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 3 else ok)


_wrong_type = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                        st.text(max_size=3), st.lists(st.integers(), max_size=2),
                        st.just({}))
_junk = st.one_of(_wrong_type, st.integers(-10**6, 10**6),
                  st.integers(1, 3000).map("@nest{}@".format))
_big_order = 10**3999  # 4000 digits, within json's int conversion limit
_rational = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3"]))
_cyclo = _mostly(
    st.one_of(_rational, st.fixed_dictionaries({
        "order": st.sampled_from([1, 2, 3, 4, 6]),
        "coeffs": st.dictionaries(st.integers(0, 12).map(str), _rational,
                                  max_size=3)})),
    st.one_of(_junk, st.fixed_dictionaries({
        "order": st.sampled_from([0, -3, True, 10**12, _big_order, 6]),
        # Exponent keys at and above phi(order), and keys that are no integers.
        "coeffs": st.dictionaries(
            st.sampled_from(["4", "400000000000", "400000000001",
                             str(_big_order - 1), "-1", "x", "1.5", ""]),
            st.one_of(_rational, st.sampled_from(["1/0", "x", "1e5000"])),
            max_size=3)})))
_p = _mostly(st.sampled_from([1, 2, 3, 6]), st.integers(-3, 10**9))


@st.composite
def _branch(draw):
    q, m = draw(st.integers(-1, 3)), draw(st.integers(0, 2))
    branch = {"label": draw(_mostly(st.sampled_from(["a", "b"]), st.just(""))),
              "p": draw(_p),
              "q": q, "m": m,
              "alpha": {"terms": {str(-max(q, 1)): draw(_cyclo)}},
              "delta": {"terms": draw(st.dictionaries(
                  st.sampled_from(["0", "1", "2", "-1", "x"]), _cyclo, max_size=2))},
              "zeta": [draw(_cyclo) for _ in range(max(m, 0))] + [1]}
    broken = draw(_mostly(st.none(), st.sampled_from(sorted(branch))))
    if broken is not None:
        branch[broken] = draw(_junk)
    return branch


_laurent = _mostly(
    st.fixed_dictionaries({"terms": st.dictionaries(
        st.sampled_from(["-3", "-2", "-1", "0", "x"]), _cyclo, max_size=3)}),
    _junk)
# The file's max_order overrides --max-order, so its integers stay at most 12.
_problem_doc = st.fixed_dictionaries(
    {"points": st.lists(st.fixed_dictionaries({
        "c": _mostly(st.sampled_from(["0", "1"]), st.one_of(st.just(""), _junk)),
        "k": _mostly(st.integers(0, 1), _junk),
        "branches": st.lists(_branch(), max_size=3)}), max_size=2)},
    optional={"options": st.fixed_dictionaries({}, optional={
        "truncation": st.one_of(st.integers(-1, 4), _wrong_type),
        "max_order": st.one_of(st.integers(-1, 12), _wrong_type)})})
_spec_doc = st.fixed_dictionaries({
    "p": _mostly(_p, _junk),
    "summands": st.lists(st.fixed_dictionaries({
        "alpha": _laurent, "rank": _mostly(st.integers(0, 2), _junk),
        "charpoly": st.lists(_cyclo, max_size=3)}), max_size=2),
    "regular_rank": _mostly(st.integers(-1, 2), _junk)})
_COMMAND_DOCS = {**dict.fromkeys(["report", "verify", "validate", "invariants",
                                  "decompose"], _problem_doc),
                 "resolve": st.fixed_dictionaries({"alpha": _laurent}),
                 "realize": _spec_doc, "roundtrip": _spec_doc}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_COMMAND_DOCS)).flatmap(lambda command: st.tuples(
    st.just(command), _mostly(_COMMAND_DOCS[command], _junk))))
def test_malformed_and_extreme_json_never_raise(case):
    # Exit 0, 2 or 3, never a traceback.  The cap is 12: under the default
    # cap of 10000 a ramification p in the thousands passes the order bound
    # and takes minutes, which is for a cost guard to refuse, not the cap.
    command, doc = case
    text = re.sub(r'"@nest(\d+)@"', lambda m: "[" * int(m[1]) + "]" * int(m[1]),
                  json.dumps(doc))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(command, "--input", path, "--output",
                           Path(tmp) / "out.json", "--max-order", 12)
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("option", ["truncation", "max_order"])
def test_boolean_file_option_is_exit_2_naming_the_path(tmp_path, capsys, option):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({
        "points": [{"c": "0", "k": 0, "branches": [branch_to_json(mk("a"))]}],
        "options": {option: True}}))
    assert run_cli("report", "--input", path) == 2
    assert f"$.options.{option}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--max-order", 0), ("--max-order", -2),
                                         ("--truncation", -3),
                                         ("--max-order", "abc"),
                                         ("--truncation", "abc")])
def test_bad_limit_flag_is_exit_2_naming_the_flag(problem_file, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli("report", "--input", problem_file, flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "$.options" not in err
    if value == "abc":
        assert f"argument {flag}: invalid int value: 'abc'" in err


def _long_delta_problem(path, options=None):
    """A problem whose branch a has delta at exponent 5."""
    doc = {"points": [{"c": "0", "k": 0, "branches": [
        branch_to_json(mk("a", delta=LaurentPoly({0: 1, 5: 2})))]}]}
    if options is not None:
        doc["options"] = options
    path.write_text(json.dumps(doc))
    return path


_PAST_TRUNCATION = "delta support exceeds the declared truncation 3"


@pytest.mark.parametrize("where", ["flag", "file"])
def test_delta_past_the_declared_truncation_is_exit_2(tmp_path, capsys, where):
    if where == "flag":
        args = [_long_delta_problem(tmp_path / "in.json"), "--truncation", 3]
    else:
        args = [_long_delta_problem(tmp_path / "in.json", {"truncation": 3})]
    assert run_cli("report", "--input", *args) == 2
    assert capsys.readouterr().err == (
        "error: $.points: point (c='0', k=0): branch a: " + _PAST_TRUNCATION + "\n")

    out = tmp_path / "valid.json"
    assert run_cli("validate", "--input", *args, "--output", out) == 2
    (branch,) = json.loads(out.read_text())["points"][0]["branches"]
    assert branch["valid"] is False and branch["errors"] == [_PAST_TRUNCATION]
    # Under the default truncation 8 the same branch is valid.
    assert run_cli("report", "--input", _long_delta_problem(tmp_path / "8.json"),
                   "--output", out) == 0


@pytest.mark.parametrize("command", ["resolve", "realize", "roundtrip"])
def test_truncation_is_refused_where_nothing_reads_it(problem_file, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--input", problem_file, "--truncation", 3)
    assert exc.value.code == 2
    assert "unrecognized arguments: --truncation 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "report", "verify", "invariants",
                                     "decompose"])
def test_truncation_flag_is_taken_by_the_problem_file_subcommands(problem_file,
                                                                  command):
    assert run_cli(command, "--input", problem_file, "--output",
                   problem_file.with_name("out.json"), "--truncation", 3) == 0


def test_verify_has_no_oracle_flag(problem_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--input", problem_file, "--oracle", "off")
    assert exc.value.code == 2
    assert "--oracle" in capsys.readouterr().err


def test_consecutive_calls_get_independent_options(problem_file, tmp_path):
    # The parser is built once per process; each call still parses afresh.
    off, on = tmp_path / "off.json", tmp_path / "on.json"
    assert run_cli("report", "--input", problem_file, "--output", off,
                   "--oracle", "off") == 0
    assert run_cli("report", "--input", problem_file, "--output", on) == 0
    assert "oracle" not in json.loads(off.read_text())["points"][0]
    assert "oracle" in json.loads(on.read_text())["points"][0]
    import expdirect.cli as cli_mod

    assert cli_mod._build_parser() is cli_mod._build_parser()


@pytest.mark.parametrize("command", ["resolve", "report"])
def test_classification_error_is_exit_3_with_a_message(
        problem_file, tmp_path, monkeypatch, capsys, command):
    import expdirect.cli as cli_mod
    import expdirect.resolution as resolution_mod
    from expdirect.laurent import ClassificationError

    def broken(alpha):
        raise ClassificationError("resolution structure violated: forced")

    monkeypatch.setattr(cli_mod, "build_resolution", broken)
    monkeypatch.setattr(resolution_mod, "build_resolution", broken)
    path = problem_file
    if command == "resolve":
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(
            {"alpha": {"terms": {"-2": {"order": 1, "coeffs": {"0": "1"}}}}}))
    assert run_cli(command, "--input", path) == 3
    err = capsys.readouterr().err
    assert err == "error: resolution structure violated: forced\n"


def test_report_oracle_inverts_at_most_once_per_copy_and_factor(monkeypatch, tmp_path):
    # Each copy's series inverts its leading coefficient once per point, and
    # each chain built inverts its slope once; a twisted chain inverts
    # nothing.  So inversions inside the oracle are bounded by copies +
    # chains built, and one chain is built per branch that owns a factor,
    # however many factors read each copy.
    import expdirect.cli as cli_mod
    import expdirect.resolution as resolution_mod
    from expdirect.cyclotomic import CycloNum

    calls = {"inv": 0, "chains": 0, "in_oracle": False}
    inv, verify = CycloNum.inv, cli_mod.verify_decomposition
    build = resolution_mod.build_resolution

    def counted_inv(self):
        if calls["in_oracle"]:
            calls["inv"] += 1
        return inv(self)

    def counted_verify(dec):
        calls["in_oracle"] = True
        try:
            return verify(dec)
        finally:
            calls["in_oracle"] = False

    def counted_build(alpha):
        calls["chains"] += 1
        return build(alpha)

    monkeypatch.setattr(CycloNum, "inv", counted_inv)
    monkeypatch.setattr(cli_mod, "verify_decomposition", counted_verify)
    monkeypatch.setattr(resolution_mod, "build_resolution", counted_build)
    case = Path(__file__).parent / "golden" / "report" / "03_mixed_p_1_2_3_6.in.json"
    out = tmp_path / "report.json"
    assert run_cli("report", "--input", case, "--output", out) == 0
    (point,) = json.loads(out.read_text())["points"]
    factors = point["decomposition"]["factors"]
    copies = sum(len(f["members"]) for f in factors)
    owners = {f["members"][0][0] for f in factors}
    assert (len(factors), copies, len(owners)) == (12, 12, 4)
    assert calls["chains"] == len(owners)
    assert 0 < calls["inv"] <= copies + calls["chains"]


def test_roundtrip_closes_each_orbit_once(monkeypatch, tmp_path):
    # The round trip keys the spec once, into one orbit table, and keys the
    # computed factors in the same table: each spec orbit is closed once,
    # however many of its members the spec lists or the decomposition
    # returns.
    import expdirect.realization as realization

    closure = realization.orbit_closure
    calls = []

    def counted_closure(p, alpha):
        calls.append(p)
        return closure(p, alpha)

    monkeypatch.setattr(realization, "orbit_closure", counted_closure)
    listed = Path(__file__).parent / "golden" / "roundtrip" / "03_p4_orbit_listed.in.json"
    # Three orbit-closed orbits at p = 6; the last one has primitive order 3.
    alphas = [LaurentPoly({-1: 1}), LaurentPoly({-2: 1, -1: 2}),
              LaurentPoly({-4: root(3, 1), -2: 1})]
    summands = tuple(FormalSummand(a, 1, CycloPoly([-1, 1]))
                     for alpha in alphas for a in closure(6, alpha))
    assert len(summands) == 6 + 6 + 3
    p6 = tmp_path / "p6.json"
    p6.write_text(json.dumps(spec_doc(FormalModuleSpec(6, summands))))
    for path, orbits in ((listed, 2), (p6, 3)):
        calls.clear()
        assert run_cli("roundtrip", "--input", path,
                       "--output", tmp_path / "out.json") == 0, path
        assert len(calls) == orbits, (path, calls)
