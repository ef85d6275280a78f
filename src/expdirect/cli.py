"""Command-line interface: JSON in, deterministic reports out.

Exit codes: 0 on success, 2 for parse or validation failures (with a JSON
path in the message), for input that cannot be read and for an integer too
long for Python to write (``sys.get_int_max_str_digits()``), before any
output file is written; 3 when the independent blow-up oracle disagrees
with the symbolic computation (one line per disagreeing factor goes to
stderr) or a blow-up chain breaks its expected normal form
(ClassificationError, with an ``error:`` line).  Exit 3 flags a bug.
``roundtrip`` writes its report first, then exits 2 on an orbit conflict
or 3 on a failed comparison, with one ``error:`` line.

``report``, ``verify``, ``invariants`` and ``decompose`` run one pipeline
(``run_file``) that prints, per point, the keys ``_VIEWS`` lists for the
subcommand (``report --oracle off`` drops ``oracle``) and runs only the
stages they read.  ``--svg`` draws each report's own Newton polygon.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from .branch import _ValidBranches, validate_all
from .decomposition import FormalDecomposition, decompose
from .laurent import ClassificationError
from .newton import (
    NewtonPolygon,
    irregularity,
    polygon_from_branches,
    polygon_svg,
    slopes,
)
from .realization import NormalizationConflictError, realize, roundtrip_check
from .resolution import CorollaryReport, build_resolution, verify_decomposition
from . import serialize
from .serialize import SchemaError, dumps_line

__all__ = ["main", "run_file", "PointReport", "DEFAULT_ORDER_LIMIT"]

# Default cap on cyclotomic orders, against phi(N) blow-up.
DEFAULT_ORDER_LIMIT = 10_000
# Default declared exactness order of holomorphic parts.
DEFAULT_TRUNCATION = 8


# One point's stages; a stage that did not run is None.
@dataclass(frozen=True)
class PointReport:
    c: str
    k: int
    warnings: tuple[str, ...]
    polygon: NewtonPolygon | None
    decomposition: FormalDecomposition | None
    oracle: tuple | None

    @property
    def consistent(self) -> bool:
        return all(rep.consistent for rep in self.oracle or ())


def _branch_orders(b) -> list[int]:
    return [b.p, *(c.order for f in (b.alpha, b.delta) for c in f.terms.values()),
            *(c.order for c in b.zeta.coeffs)]


def _warnings(reports) -> list[str]:
    return [f"branch {r.label}: {w}" for r in reports for w in r.warnings]


# The keys of a report point each subcommand prints; they decide what runs.
_VIEWS = {
    "report": ("c", "k", "warnings", "newton_polygon", "slopes", "irregularity",
               "decomposition", "consistent", "oracle"),
    "verify": ("c", "k", "oracle", "consistent"),
    "invariants": ("c", "k", "newton_polygon", "slopes", "irregularity", "warnings"),
    "decompose": ("c", "k", "decomposition", "warnings"),
}


def _point_report(c: str, k: int, branches, warnings, keys) -> PointReport:
    """The stages that ``keys`` print, for ``_ValidBranches``."""
    polygon = dec = oracle = None
    if {"newton_polygon", "slopes", "irregularity"}.intersection(keys):
        polygon = polygon_from_branches(branches)
    if "decomposition" in keys or "oracle" in keys:
        dec = decompose(branches)
    if "oracle" in keys:
        oracle = verify_decomposition(dec)
    return PointReport(c=c, k=k, warnings=tuple(warnings), polygon=polygon,
                       decomposition=dec, oracle=oracle)


_FIELDS = {
    "c": lambda rep: rep.c,
    "k": lambda rep: rep.k,
    "warnings": lambda rep: list(rep.warnings),
    "newton_polygon": lambda rep: serialize.polygon_to_json(rep.polygon),
    "slopes": lambda rep: [str(s) for s in sorted(slopes(rep.polygon))],
    "irregularity": lambda rep: str(irregularity(rep.polygon)),
    "decomposition": lambda rep: serialize.decomposition_to_json(rep.decomposition),
    "consistent": lambda rep: rep.consistent,
    "oracle": lambda rep: [serialize.corollary_to_json(r) for r in rep.oracle],
}


def _disagreement(point: PointReport, rep: CorollaryReport) -> str:
    """One line naming the copies the two membership tests disagree on, and
    the separation, rank or charpoly values they disagree on, in JSON."""
    by_blowup, by_polar = set(rep.members_by_blowup), set(rep.members_by_polar)
    chain = 2 * rep.factor.pole_order
    parts = [
        f"{name} is a member by {'blow-up' if name in by_blowup else 'polar part'}"
        f" only ({steps} of {chain} blow-up steps matched)"
        for name, steps in rep.steps_matched
        if (name in by_blowup) != (name in by_polar)
    ]
    if not rep.star_agrees:
        parts.append(f"separation by blow-up {dumps_line(rep.star_by_blowup)}, "
                     f"by polar part {dumps_line(rep.star_by_polar)}")
    if not rep.rank_agrees:
        parts.append(f"rank by blow-up {rep.rank_by_blowup}, "
                     f"by decomposition {rep.factor.rank_branchwise}")
    if not rep.charpoly_agrees:
        parts.append(f"charpoly by blow-up {dumps_line(rep.charpoly_by_blowup)}, "
                     f"by decomposition {dumps_line(rep.factor.charpoly)}")
    return (f"error: oracle disagreement at point (c={point.c!r}, k={point.k}), "
            f"factor alpha = {dumps_line(rep.factor.alpha)}: " + "; ".join(parts))


def run_file(path: str, keys, truncation: int, max_order: int):
    """Process a problem file for a view that prints ``keys``; returns
    (point reports sorted by point, exit_code).  The file's ``options``
    override ``truncation`` and ``max_order``.

    Exit code 3 comes with one stderr line per factor the oracle disputes.
    """
    points, truncation, max_order = serialize.problem_from_json(
        _load_json(path), truncation, max_order)
    for i, (_, _, branches) in enumerate(points):
        serialize.check_order_bound(
            f"$.points[{i}]", [n for b in branches for n in _branch_orders(b)],
            max_order)

    # One validation pass gives both the failures and each point's warnings.
    failures = []
    checked = []
    for c, k, branches in points:
        reports = validate_all(branches, truncation)
        failures.extend(f"point (c={c!r}, k={k}): branch {r.label}: {e}"
                        for r in reports for e in r.errors)
        checked.append((c, k, branches, _warnings(reports)))
    if failures:
        raise SchemaError("$.points", "; ".join(failures))

    checked.sort(key=lambda t: (t[0], t[1]))
    reports = [_point_report(c, k, _ValidBranches(branches), warnings, keys)
               for c, k, branches, warnings in checked]
    code = 0 if all(r.consistent for r in reports) else 3
    for point in reports:
        for rep in point.oracle or ():
            if not rep.consistent:
                print(_disagreement(point, rep), file=sys.stderr)
    return reports, code


def _svg_path(base: str, c: str, k: int, many: bool) -> str:
    if not many:
        return base
    p = Path(base)
    safe_c = "".join(ch if ch.isalnum() else "_" for ch in c)
    return str(p.with_name(f"{p.stem}-{safe_c}-k{k}{p.suffix or '.svg'}"))


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _dump(doc, out_path: str | None) -> None:
    _write(serialize.dumps(doc) + "\n", out_path)


def _load_json(path: str):
    """The parsed file.  Beyond malformed JSON, the parser refuses integer
    literals longer than Python's int conversion limit (4300 digits by
    default) and nesting deeper than the recursion limit; both exit 2."""
    with open(path, "rb") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except (ValueError, RecursionError) as err:
            raise SchemaError("$", f"unreadable JSON: {err}") from None


def _cmd_validate(args) -> int:
    points, truncation, _ = serialize.problem_from_json(
        _load_json(args.input), args.truncation, args.max_order)
    doc = {"points": []}
    ok = True
    for c, k, branches in sorted(points, key=lambda t: (t[0], t[1])):
        reports = validate_all(branches, truncation)
        ok = ok and all(r.valid for r in reports)
        doc["points"].append({
            "c": c, "k": k,
            "branches": [
                {"label": r.label, "valid": r.valid,
                 "errors": list(r.errors), "warnings": list(r.warnings),
                 "support_divisor": r.support_divisor}
                for r in reports
            ],
        })
    _dump(doc, args.output)
    return 0 if ok else 2


def _cmd_points(args) -> int:
    keys = _VIEWS[args.command]
    if getattr(args, "oracle", "on") == "off":
        keys = tuple(key for key in keys if key != "oracle")
    reports, code = run_file(args.input, keys, args.truncation, args.max_order)
    svgs = {}
    if getattr(args, "svg", None):
        if not Path(args.svg).name:
            print(f"error: --svg {args.svg} names no file", file=sys.stderr)
            return 2
        out = Path(args.output).resolve() if args.output else None
        for rep in reports:
            path = _svg_path(args.svg, rep.c, rep.k, len(reports) > 1)
            target = Path(path)
            if target.is_dir() or not target.parent.is_dir():
                why = "is a directory" if target.is_dir() else "has no existing directory"
                print(f"error: the SVG file {path} {why}", file=sys.stderr)
                return 2
            if target.resolve() == out:
                print(f"error: --output and the SVG of point (c={rep.c!r}, "
                      f"k={rep.k}) would share the file {path}", file=sys.stderr)
                return 2
            other = svgs.setdefault(path, rep)
            if other is not rep:
                print(f"error: points (c={other.c!r}, k={other.k}) and "
                      f"(c={rep.c!r}, k={rep.k}) would share the SVG file {path}",
                      file=sys.stderr)
                return 2
    # Every text is built before the first write.
    drawings = {path: polygon_svg(rep.polygon) for path, rep in svgs.items()}
    _dump({"points": [{key: _FIELDS[key](rep) for key in keys} for rep in reports]},
          args.output)
    for path, text in drawings.items():
        _write(text, path)
    return code


def _cmd_resolve(args) -> int:
    tree = build_resolution(serialize.resolve_from_json(
        _load_json(args.input), max_order=args.max_order))
    if args.text:
        _write(serialize.tree_to_text(tree), args.output)
    else:
        _dump(serialize.tree_to_json(tree), args.output)
    return 0


def _cmd_realize(args) -> int:
    spec = serialize.spec_from_json(_load_json(args.input), max_order=args.max_order)
    try:
        branches = realize(spec)
    except NormalizationConflictError as err:
        raise SchemaError("$.summands", str(err)) from None
    _dump({"branches": [serialize.branch_to_json(b) for b in branches]},
          args.output)
    return 0


def _cmd_roundtrip(args) -> int:
    rep = roundtrip_check(serialize.spec_from_json(_load_json(args.input),
                                                   max_order=args.max_order))
    _dump(serialize.roundtrip_to_json(rep), args.output)
    if rep.conflicts:
        # The message realize prints for the same spec.
        print(f"error: $.summands: {rep.conflicts[0]}", file=sys.stderr)
        return 2
    if not rep.ok:
        print(f"error: round trip mismatch: {len(rep.missing)} missing and "
              f"{len(rep.extra)} extra classes", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {"validate": _cmd_validate, "resolve": _cmd_resolve,
             "realize": _cmd_realize, "roundtrip": _cmd_roundtrip,
             **dict.fromkeys(_VIEWS, _cmd_points)}


def _bounded_int(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    # argparse names the type by this name: "invalid int value: 'abc'".
    parse.__name__ = "int"
    return parse


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args never mutates the parser.
    parser = argparse.ArgumentParser(
        prog="expdirect",
        description="Exact formal invariants of exponential-type direct "
                    "images from branch-germ data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("validate", "check branch data against the schema and invariants"),
        ("invariants", "Newton polygon, slopes, irregularity per point"),
        ("decompose", "exponential factors, ranks, monodromy per point"),
        ("resolve", "blow-up chain for a polar part ({\"alpha\": ...} input)"),
        ("verify", "cross-check the decomposition with the blow-up oracle"),
        ("realize", "branch data realizing a formal description"),
        ("roundtrip", "realize then decompose and compare"),
        ("report", "full pipeline: invariants, decomposition, oracle"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", help="output file (default: stdout)")
        if name == "validate" or name in _VIEWS:
            p.add_argument("--truncation", type=_bounded_int(0),
                           default=DEFAULT_TRUNCATION,
                           help="declared exactness order of holomorphic parts")
        p.add_argument("--max-order", type=_bounded_int(1),
                       default=DEFAULT_ORDER_LIMIT,
                       help="cap on cyclotomic orders, checked before any work")
        if name in ("invariants", "report"):
            p.add_argument("--svg", help="write the Newton polygon(s) as SVG")
        if name == "report":
            p.add_argument("--oracle", choices=["on", "off"], default="on",
                           help="run the blow-up cross-check")
        if name == "resolve":
            p.add_argument("--text", action="store_true",
                           help="indented text instead of JSON")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SchemaError, json.JSONDecodeError, UnicodeDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ClassificationError as err:
        # A blow-up chain broke its expected normal form: a bug, like exit 3
        # from an oracle disagreement, not a data problem.
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        # Python's int/str conversion limit; any other ValueError is a bug.
        if "integer string conversion" not in str(err):
            raise
        print(f"error: an integer exceeds Python's integer string-conversion "
              f"limit of {sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
