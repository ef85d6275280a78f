"""Spans and counters around the program's layers, installed from outside.

``install()`` replaces the functions and methods listed in ``SPANS`` and
``COUNTS`` with wrappers.  A function is replaced under every name that an
``expdirect`` module binds to it (``from .x import y`` makes a second
binding), and a method is replaced on its class.  Only the worker of a
traced run imports this module, so untraced runs never pay for it.

A span records its name, start, end and the index of the enclosing span
(-1 at the top).  Spans stay in memory in flat arrays and are written out
by ``dump`` when the pass ends.  The cyclotomic methods are called far too
often for one span each; they only bump counters, and their time is part
of the self time of the span that called them.
"""

from __future__ import annotations

import json
import sys
import types
from array import array
from time import perf_counter

# (module, function or Class.method) to wrap; the span is named
# "module.function".  run.py sums span self times into layer metrics by name.
SPANS = [
    ("cli", "main"),
    ("serialize", "branch_from_json"),
    ("serialize", "spec_from_json"),
    ("serialize", "polygon_to_json"),
    ("serialize", "decomposition_to_json"),
    ("serialize", "corollary_to_json"),
    ("serialize", "roundtrip_to_json"),
    ("branch", "validate"),
    ("branch", "validate_all"),
    ("branch", "unramify"),
    ("newton", "polygon_from_branches"),
    ("decomposition", "decompose"),
    ("decomposition", "star_condition"),
    ("resolution", "verify_corollary"),
    ("resolution", "build_resolution"),
    ("resolution", "strict_transform"),
    ("realization", "realize"),
    ("realization", "roundtrip_check"),
    ("realization", "orbit_closure"),
    ("laurent", "subst_root_power"),
    ("laurent", "BiRational.compose_monomial_map"),
    ("laurent", "BiRational.classify_at_point"),
]

# CycloNum method -> counter name.
COUNTS = {
    "__mul__": "mul", "__rmul__": "mul", "inv": "inv", "__pow__": "pow",
    "lift": "lift",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = {name: 0 for name in COUNTS.values()}
        self.max_order = 0
        self.blowups = 0

    def span(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_blowups(self, tree) -> None:
        self.blowups += len(tree.steps)

    def dump(self, path) -> dict:
        """Write the spans (raw arrays) to ``path``; return the counters."""
        with open(path, "wb") as fh:
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
        return {"names": self.names, "spans": len(self.span_name),
                "counts": self.counts, "max_order": self.max_order,
                "blowups": self.blowups}


def load_spans(path, count: int):
    """Read back what ``Tracer.dump`` wrote: (name, parent, start, end)."""
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, count)
    return arrays


def _rebind(original, replacement) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "expdirect" or name.startswith("expdirect."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install() -> Tracer:
    import expdirect.cli  # noqa: F401  (imports every layer)

    tracer = Tracer()

    for short, attr in SPANS:
        mod = sys.modules[f"expdirect.{short}"]
        name = f"{short}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.span(name, vars(cls)[meth]))
            continue
        original = getattr(mod, attr)
        hook = tracer._count_blowups if name == "resolution.build_resolution" else None
        _rebind(original, tracer.span(name, original, hook))

    cyclotomic = sys.modules["expdirect.cyclotomic"]
    for meth, counter in COUNTS.items():
        setattr(cyclotomic.CycloNum, meth,
                tracer.counter(counter, vars(cyclotomic.CycloNum)[meth]))

    # Every CycloNum is built through _check_order(order); track the largest
    # order that passed it.
    check_order = cyclotomic._check_order

    def tracked_check_order(order):
        check_order(order)
        if order > tracer.max_order:
            tracer.max_order = order

    cyclotomic._check_order = tracked_check_order

    # The CLI reads and writes JSON through the json module it imported.
    cli = sys.modules["expdirect.cli"]
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json))
    proxy.load = tracer.span("json.load", json.load)
    proxy.dumps = tracer.span("json.dumps", json.dumps)
    cli.json = proxy
    return tracer
