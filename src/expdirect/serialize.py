"""JSON encodings for every external data shape.

All numbers are exact: rationals travel as "num/den" strings, cyclotomic
numbers as ``{"order", "coeffs"}`` meaning the sum of coeffs[k] * zeta_order^k
(emitted as stored: the minimal conductor and Zumbroich basis exponents;
parsed from any order and any integer exponents), polynomials as
coefficient lists.  Parsing rejects anything that is not an exact rational (the
coefficient domain is the union of the cyclotomic fields; floats or symbolic
strings are errors, not approximands).  Parse errors carry a JSON-path
location for the CLI's diagnostics.  Report encodings keep value leaves,
which ``dumps`` writes.

The order cap ``max_order`` (``--max-order``, or a file's
``options.max_order``) is checked before any work: every parser that reads a
cyclotomic number refuses a declared order above it, and
``check_order_bound`` refuses a unit of work (a point, a ``resolve`` alpha,
a spec) whose order bound, the lcm of its coefficient orders and
ramification indices, exceeds it; every order the pipeline builds for the
unit divides that bound.  The ``resolve`` and spec parsers check their
unit's bound; the pipeline checks a point's, since ``validate`` skips it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import lcm

from .branch import Branch
from .cyclotomic import CycloNum, CycloPoly
from .decomposition import ExponentialFactor, FormalDecomposition
from .laurent import LaurentPoly
from .newton import NewtonPolygon
from .realization import FormalModuleSpec, FormalSummand, RoundTripReport
from .resolution import CHART, CorollaryReport, ResolutionTree

__all__ = [
    "SchemaError",
    "check_order_bound",
    "rational_from_json",
    "cyclo_to_json", "cyclo_from_json",
    "cyclopoly_to_json", "cyclopoly_from_json",
    "laurent_to_json", "laurent_from_json",
    "branch_to_json", "branch_from_json",
    "problem_from_json", "resolve_from_json",
    "polygon_to_json",
    "decomposition_to_json",
    "spec_from_json",
    "roundtrip_to_json",
    "tree_to_json",
    "corollary_to_json",
    "dumps", "dumps_line",
]


class SchemaError(ValueError):
    """Invalid JSON shape or value; carries the offending path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# "num" or "num/den"; int() refuses digits past sys.get_int_max_str_digits().
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def rational_from_json(data, path: str) -> Fraction:
    if isinstance(data, bool):
        raise SchemaError(path, "expected an exact rational, got a boolean")
    if isinstance(data, int):
        return Fraction(data)
    if isinstance(data, float):
        raise SchemaError(path, "floating-point values are not exact; "
                                "write rationals as \"num/den\"")
    if isinstance(data, str):
        match = _RATIONAL.fullmatch(data)
        try:
            if match:
                return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError):
            pass
        raise SchemaError(path, f"not an exact rational: {data!r}")
    raise SchemaError(path, f"expected an exact rational, got {type(data).__name__}")


def _expect_dict(data, path: str) -> dict:
    if not isinstance(data, dict):
        raise SchemaError(path, f"expected an object, got {type(data).__name__}")
    return data


def _expect_int(data, path: str) -> int:
    if isinstance(data, bool) or not isinstance(data, int):
        raise SchemaError(path, f"expected an integer, got {data!r}")
    return data


def _expect_list(data, path: str) -> list:
    if not isinstance(data, list):
        raise SchemaError(path, f"expected an array, got {type(data).__name__}")
    return data


def _expect_name(data, path: str) -> str:
    if not isinstance(data, str) or not data:
        raise SchemaError(path, "expected a nonempty string")
    return data


def _int_key(key: str, path: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise SchemaError(path, f"expected an integer key, got {key!r}") from None


def cyclo_to_json(a: CycloNum) -> dict:
    return {
        "order": a.order,
        "coeffs": {str(e): str(c) for e, c in sorted(a.coeffs.items())},
    }


def cyclo_from_json(data, path: str = "$", *, max_order: int) -> CycloNum:
    """A cyclotomic number; an ``order`` above ``max_order`` is refused
    before any value is built.  The paths of its parts are written only
    into a refusal."""
    if isinstance(data, (int, str)):
        # Bare rationals are accepted as order-1 values.
        return CycloNum.from_rational(rational_from_json(data, path))
    obj = _expect_dict(data, path)
    order = obj.get("order")
    if type(order) is not int:
        order = _expect_int(order, f"{path}.order")
    if order > max_order:
        raise SchemaError(f"{path}.order", f"order {order} exceeds the order "
                                           f"cap {max_order} (--max-order)")
    coeffs = obj.get("coeffs", {})
    if type(coeffs) is not dict:
        coeffs = _expect_dict(coeffs, f"{path}.coeffs")
    terms = {}
    for key, val in coeffs.items():
        try:
            terms[int(key)] = rational_from_json(val, path)
        except ValueError:
            # Refused: read it again under its own path, which raises.
            where = f"{path}.coeffs.{key}"
            terms[_int_key(key, where)] = rational_from_json(val, where)
    try:
        return CycloNum(order, terms)
    except ValueError as err:
        raise SchemaError(path, str(err)) from None


def cyclopoly_to_json(p: CycloPoly) -> list:
    return [cyclo_to_json(c) for c in p.coeffs]


def cyclopoly_from_json(data, path: str = "$", *, max_order: int) -> CycloPoly:
    items = _expect_list(data, path)
    return CycloPoly([cyclo_from_json(c, f"{path}[{i}]", max_order=max_order)
                      for i, c in enumerate(items)])


def laurent_to_json(f: LaurentPoly) -> dict:
    return {"terms": {str(e): cyclo_to_json(c) for e, c in sorted(f.terms.items())}}


def laurent_from_json(data, path: str = "$", *, max_order: int) -> LaurentPoly:
    obj = _expect_dict(data, path)
    terms_obj = _expect_dict(obj.get("terms", {}), f"{path}.terms")
    terms = {}
    for key, val in terms_obj.items():
        e = _int_key(key, f"{path}.terms.{key}")
        terms[e] = cyclo_from_json(val, f"{path}.terms.{key}", max_order=max_order)
    return LaurentPoly(terms)


def branch_to_json(b: Branch) -> dict:
    return {
        "label": b.label,
        "p": b.p,
        "q": b.q,
        "alpha": laurent_to_json(b.alpha),
        "delta": laurent_to_json(b.delta),
        "m": b.m,
        "zeta": cyclopoly_to_json(b.zeta),
    }


def branch_from_json(data, path: str = "$", *, max_order: int) -> Branch:
    obj = _expect_dict(data, path)
    return Branch(
        label=_expect_name(obj.get("label"), f"{path}.label"),
        p=_expect_int(obj.get("p"), f"{path}.p"),
        q=_expect_int(obj.get("q"), f"{path}.q"),
        alpha=laurent_from_json(obj.get("alpha", {}), f"{path}.alpha",
                                max_order=max_order),
        delta=laurent_from_json(obj.get("delta", {}), f"{path}.delta",
                                max_order=max_order),
        m=_expect_int(obj.get("m"), f"{path}.m"),
        zeta=cyclopoly_from_json(obj.get("zeta", []), f"{path}.zeta",
                                 max_order=max_order),
    )


def problem_from_json(data, truncation: int, max_order: int):
    """(points, truncation, max_order), each point ``(c, k, branches)``; the
    file's ``options`` override ``truncation`` and ``max_order``."""
    obj = _expect_dict(data, "$")
    raw_points = _expect_list(obj.get("points", []), "$.points")
    file_opts = _expect_dict(obj.get("options", {}), "$.options")
    truncation = _expect_int(file_opts.get("truncation", truncation),
                             "$.options.truncation")
    if truncation < 0:
        raise SchemaError("$.options.truncation", "expected a nonnegative integer")
    max_order = _expect_int(file_opts.get("max_order", max_order), "$.options.max_order")
    if max_order < 1:
        raise SchemaError("$.options.max_order", "expected a positive integer")

    points, seen = [], set()
    for i, pt in enumerate(raw_points):
        pobj = _expect_dict(pt, f"$.points[{i}]")
        c = _expect_name(pobj.get("c"), f"$.points[{i}].c")
        k = _expect_int(pobj.get("k", 0), f"$.points[{i}].k")
        if (c, k) in seen:
            raise SchemaError(f"$.points[{i}]", f"duplicate point (c={c!r}, k={k})")
        seen.add((c, k))
        branches = [
            branch_from_json(b, f"$.points[{i}].branches[{j}]", max_order=max_order)
            for j, b in enumerate(_expect_list(pobj.get("branches", []),
                                               f"$.points[{i}].branches"))
        ]
        points.append((c, k, branches))
    return points, truncation, max_order


def check_order_bound(path: str, orders, cap: int) -> None:
    """Refuse a unit of work whose order bound, the lcm of ``orders``,
    exceeds ``cap``.  The lcm is taken one order at a time and refused as
    soon as it passes the cap, so the number named divides the bound and is
    at most cap², or a single order that passes the cap by itself."""
    bound = 1
    for order in orders:
        bound = order if order > cap else lcm(bound, order)
        if bound > cap:
            raise SchemaError(path, f"order bound {bound} (the lcm of its cyclotomic "
                                    f"orders and ramification indices, or a divisor "
                                    f"of it already past the cap) exceeds the order "
                                    f"cap {cap} (--max-order)")


def resolve_from_json(data, *, max_order: int) -> LaurentPoly:
    """The polar part ``alpha`` of a ``resolve`` input, refused past the
    order cap before it is checked to be polar."""
    alpha = laurent_from_json(_expect_dict(data, "$").get("alpha", {}), "$.alpha",
                              max_order=max_order)
    check_order_bound("$.alpha", [c.order for c in alpha.terms.values()], max_order)
    if not alpha.is_polar():
        raise SchemaError("$.alpha", "expected a nonzero purely polar part")
    return alpha


def polygon_to_json(poly: NewtonPolygon) -> dict:
    return {"edges": [[w.numerator, w.denominator, h.numerator, h.denominator]
                      for w, h in poly.edges]}


def factor_to_json(f: ExponentialFactor) -> dict:
    out = {
        "alpha": f.alpha,
        "members": [[label, i] for label, i in f.members],
        "rank_branchwise": f.rank_branchwise,
        "rank_distinct": f.rank_distinct,
        "rank_diverges": f.rank_diverges,
        "pole_order": f.pole_order,
    }
    if f.charpoly is not None:
        out["charpoly"] = f.charpoly
    return out


def decomposition_to_json(dec: FormalDecomposition) -> dict:
    out = {
        "p": dec.p,
        "star": dec.star_holds,
        "factors": [factor_to_json(f) for f in dec.factors],
    }
    if dec.star_witness is not None:
        out["star_witness"] = [list(dec.star_witness[0]), list(dec.star_witness[1])]
    return out


def spec_from_json(data, path: str = "$", *, max_order: int) -> FormalModuleSpec:
    """A well-formed spec whose order bound (``p`` and every summand
    coefficient) is within ``max_order``; the bound is refused at ``path``."""
    obj = _expect_dict(data, path)
    summands = []
    for i, s in enumerate(_expect_list(obj.get("summands", []), f"{path}.summands")):
        sobj = _expect_dict(s, f"{path}.summands[{i}]")
        summands.append(FormalSummand(
            alpha=laurent_from_json(sobj.get("alpha", {}),
                                    f"{path}.summands[{i}].alpha",
                                    max_order=max_order),
            rank=_expect_int(sobj.get("rank"), f"{path}.summands[{i}].rank"),
            charpoly=cyclopoly_from_json(sobj.get("charpoly", []),
                                         f"{path}.summands[{i}].charpoly",
                                         max_order=max_order),
        ))
    p = _expect_int(obj.get("p"), f"{path}.p")
    regular = _expect_int(obj.get("regular_rank", 0), f"{path}.regular_rank")
    try:
        spec = FormalModuleSpec(p=p, summands=tuple(summands), regular_rank=regular)
    except ValueError as err:
        raise SchemaError(path, str(err)) from None
    check_order_bound(path, [p, *(c.order for s in spec.summands
                                  for c in (*s.alpha.terms.values(),
                                            *s.charpoly.coeffs))], max_order)
    return spec


def roundtrip_to_json(rep: RoundTripReport) -> dict:
    def classes(entries):
        return [{"ramification": p0, "alpha": alpha, "rank": rank}
                for p0, alpha, rank in entries]

    out = {
        "ok": rep.ok,
        "spec_ramification": rep.spec_ramification,
        "computed_ramification": 0 if rep.decomposition is None else rep.decomposition.p,
        "matched": classes(rep.matched),
        "missing": classes(rep.missing),
        "extra": classes(rep.extra),
        "conflicts": list(rep.conflicts),
    }
    if rep.decomposition is not None:
        out["decomposition"] = decomposition_to_json(rep.decomposition)
    return out


def _tag_to_json(tag) -> dict:
    return {"kind": tag.kind.value, "pole_u": tag.pole_u, "pole_v": tag.pole_v}


def tree_to_json(tree: ResolutionTree) -> dict:
    n = len(tree.steps)
    return {
        "alpha": tree.alpha,
        "pole_order": tree.alpha.pole_order(),
        "blow_ups": n,
        "steps": [
            {"index": j, "chart": CHART, "shift": s.shift,
             "crossing": {"components": [j - 1, j],
                          "tag": _tag_to_json(s.crossing),
                          "projection_orders": [1, 1]}}
            for j, s in enumerate(tree.steps, 1)
        ],
        "components": [
            {"index": j, "pole_order": s.pole_order, "projection_order": 1,
             "distinguished": j == n}
            for j, s in enumerate(tree.steps, 1)
        ],
        "distinguished": n,
        "meeting_point": {"components": [n - 1, n],
                          "tag": _tag_to_json(tree.steps[-1].crossing)},
        "axis_points": [
            {"component": ap.component, "tag": _tag_to_json(ap.tag)}
            for ap in tree.axis_points
        ],
        "value_chart": {
            "num0": tree.ed_chart.num0,
            "numlin": tree.ed_chart.numlin,
            "den0": tree.ed_chart.den0,
        },
    }


def tree_to_text(tree: ResolutionTree) -> str:
    """The tree as text: one line per step, component and axis crossing,
    then the meeting point and the value chart.  Each value is written as
    its one-line JSON, which ``cyclo_from_json`` reads back."""
    def crossing(j: int, tag) -> str:
        return f"E{j - 1}/E{j}: {tag.kind.value} (u^{tag.pole_u} v^{tag.pole_v})"

    n = len(tree.steps)
    lines = [f"resolution of pole order {tree.alpha.pole_order()}: {n} point blow-ups"]
    for j, s in enumerate(tree.steps, 1):
        lines.append(f"  step {j}: chart {CHART}, recenter v by {dumps_line(s.shift)}; "
                     f"crossing {crossing(j, s.crossing)}")
    for j, s in enumerate(tree.steps, 1):
        mark = " [distinguished]" if j == n else ""
        lines.append(f"  component E{j}: pole order {s.pole_order}{mark}")
    for ap in tree.axis_points:
        lines.append(f"  axis crossing on E{ap.component}: {ap.tag.kind.value}")
    lines.append(f"  meeting point {crossing(n, tree.steps[-1].crossing)}")
    chart = tree.ed_chart
    lines.append(f"  value chart: num0 {dumps_line(chart.num0)}; "
                 f"numlin {dumps_line(chart.numlin)}; den0 {dumps_line(chart.den0)}")
    return "\n".join(lines) + "\n"


def corollary_to_json(rep: CorollaryReport) -> dict:
    return {
        "alpha": rep.factor.alpha,
        "consistent": rep.consistent,
        "membership_agrees": rep.membership_agrees,
        "star_agrees": rep.star_agrees,
        "members_by_blowup": sorted(rep.members_by_blowup),
        "members_by_polar": sorted(rep.members_by_polar),
        "star_by_blowup": rep.star_by_blowup,
        "star_by_polar": rep.star_by_polar,
        "points": [
            {"label": label, "point": point} for label, point in rep.points
        ],
    }


def dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte, for the
    shapes a document holds: values of exact type dict (str keys), list, str
    and int, bool and None, and CycloNum, LaurentPoly and CycloPoly leaves,
    written as their ``*_to_json`` data is.  Anything else raises TypeError:
    floats, Fractions, and subclasses of the exact types too.

    With ``indent`` set the stdlib falls back to its pure-Python encoder;
    this emitter builds the same text with one join per container.

    >>> print(dumps({"b": [1, None], "a": "\\u00e9", "c": {}}))
    {
      "a": "\\u00e9",
      "b": [
        1,
        null
      ],
      "c": {}
    }
    >>> print(dumps(CycloNum(4, {3: Fraction(-1, 2)})))
    {
      "coeffs": {
        "1": "1/2"
      },
      "order": 4
    }
    """
    return _emit(doc, "")


def dumps_line(value) -> str:
    """``dumps(value)`` on one line, with ``json.dumps``'s separators; each
    value leaf's ``*_from_json`` parser reads it back.

    >>> dumps_line([CycloNum(4, {3: Fraction(-1, 2)}), None, True])
    '[{"coeffs": {"1": "1/2"}, "order": 4}, null, true]'
    """
    return json.dumps(json.loads(dumps(value)), sort_keys=True)


def _emit(o, pad: str) -> str:
    # Dispatch on the exact type; bool, None and value leaves stop here.
    t = type(o)
    if t is not str and t is not dict and t is not list and t is not int:
        if t is CycloNum:
            return _cyclo_text(o, pad)
        if t is LaurentPoly:
            return _laurent_text(o, pad)
        if t is CycloPoly:
            return _emit(list(o.coeffs), pad)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        raise TypeError(f"{type(o).__name__} is not a report value")
    if t is str:
        return _quote(o)
    if t is int:
        return int.__repr__(o)
    if not o:
        return "{}" if t is dict else "[]"
    inner = pad + "  "
    if t is dict:
        return ("{\n" + inner
                + (",\n" + inner).join([_quote(k) + ": " + _emit(o[k], inner)
                                        for k in sorted(o)])
                + "\n" + pad + "}")
    return ("[\n" + inner + (",\n" + inner).join([_emit(v, inner) for v in o])
            + "\n" + pad + "]")


# Leaf keys need no escape and sort above a quote: sorting entries sorts keys.
def _laurent_text(f: LaurentPoly, pad: str) -> str:
    deep = pad + "    "
    terms = sorted([f'"{e}": {_cyclo_text(c, deep)}' for e, c in f.terms.items()])
    terms = f"{{\n{deep}" + f",\n{deep}".join(terms) + f"\n{pad}  }}" if terms else "{}"
    return f'{{\n{pad}  "terms": {terms}\n{pad}}}'


def _cyclo_text(a: CycloNum, pad: str) -> str:
    coeffs = f",\n{pad}    ".join(sorted(
        [f'"{e}": "{c!s}"' for e, c in a.coeffs.items()]))
    coeffs = f"{{\n{pad}    {coeffs}\n{pad}  }}" if coeffs else "{}"
    return f'{{\n{pad}  "coeffs": {coeffs},\n{pad}  "order": {a.order}\n{pad}}}'
