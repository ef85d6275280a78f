"""CLI subcommands, exit-code contract, and output determinism."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from expdirect.cli import main
from expdirect.cyclotomic import root_of_unity
from expdirect.laurent import LaurentPoly
from expdirect.serialize import branch_to_json
from tests.helpers import mk, worked_example_branches


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
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["conflicts"]


def test_verify_subcommand(problem_file, capsys):
    assert run_cli("verify", "--input", problem_file) == 0
    doc = json.loads(capsys.readouterr().out)
    checks = doc["points"][0]["oracle"]
    assert len(checks) == 3
    assert all(c["consistent"] for c in checks)
    members = [c["members_by_blowup"] for c in checks]
    assert members == [["l1#1"], ["l2#1"], ["l2#2"]]


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


def test_report_exit_3_on_oracle_mismatch(problem_file, monkeypatch, capsys):
    # Force a disagreement through the plumbing: the file-level contract is
    # exit 3 when the independent check contradicts the symbolic result.
    import expdirect.cli as cli_mod

    real = cli_mod.verify_corollary

    def broken(series, alpha):
        # The polar side forgets the factor's first member.
        rep = real(series, alpha)
        object.__setattr__(rep, "members_by_polar", rep.members_by_polar[1:])
        object.__setattr__(rep, "membership_agrees", False)
        return rep

    monkeypatch.setattr(cli_mod, "verify_corollary", broken)
    assert run_cli("report", "--input", problem_file) == 3
    # One line per disputed factor: the point, the factor, and the copy the
    # two sides disagree on with the blow-up steps it matched.
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("error: oracle disagreement at point "
                               "(c='0', k=0), factor alpha = LaurentPoly(")
               for line in lines)
    assert sorted(line.split(": ")[-1] for line in lines) == [
        "l1#1 is a member by blow-up only (4 of 4 blow-up steps matched)",
        "l2#1 is a member by blow-up only (6 of 6 blow-up steps matched)",
        "l2#2 is a member by blow-up only (6 of 6 blow-up steps matched)",
    ]


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
    assert root_of_unity(4, 1) * root_of_unity(4, 1) == -1
    order4 = tmp_path / "order4.json"
    order4.write_text(json.dumps({"points": [{"c": "0", "k": 0, "branches": [
        branch_to_json(mk("b", p=4, q=1, alpha=LaurentPoly({-1: 1})))]}]}))
    assert run_cli("report", "--input", order4, "--oracle", "off") == 0


@pytest.mark.parametrize("option", ["truncation", "max_order"])
def test_boolean_file_option_is_exit_2_naming_the_path(tmp_path, capsys, option):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({
        "points": [{"c": "0", "k": 0, "branches": [branch_to_json(mk("a"))]}],
        "options": {option: True}}))
    assert run_cli("report", "--input", path) == 2
    assert f"$.options.{option}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--max-order", 0), ("--max-order", -2),
                                         ("--truncation", -3)])
def test_bad_limit_flag_is_exit_2_naming_the_flag(problem_file, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli("report", "--input", problem_file, flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "$.options" not in err


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
    # each chain inverts its slope once: inversions inside the oracle are
    # bounded by copies + factors, however many factors read each copy.
    import expdirect.cli as cli_mod
    from expdirect.cyclotomic import CycloNum

    calls = {"inv": 0, "in_oracle": False}
    inv, verify = CycloNum.inv, cli_mod.verify_corollary

    def counted_inv(self):
        if calls["in_oracle"]:
            calls["inv"] += 1
        return inv(self)

    def counted_verify(series, alpha):
        calls["in_oracle"] = True
        try:
            return verify(series, alpha)
        finally:
            calls["in_oracle"] = False

    monkeypatch.setattr(CycloNum, "inv", counted_inv)
    monkeypatch.setattr(cli_mod, "verify_corollary", counted_verify)
    case = Path(__file__).parent / "golden" / "report" / "03_mixed_p_1_2_3_6.in.json"
    out = tmp_path / "report.json"
    assert run_cli("report", "--input", case, "--output", out) == 0
    (point,) = json.loads(out.read_text())["points"]
    factors = point["decomposition"]["factors"]
    copies = sum(len(f["members"]) for f in factors)
    assert len(factors) > 1 and calls["inv"] > 0
    assert calls["inv"] <= copies + len(factors)
