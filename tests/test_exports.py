"""The library exports what the pipeline calls.

Every golden input is run through its subcommand under ``sys.setprofile``,
plus ``report --oracle off --svg`` and ``resolve --text``.  Every function
in a module's ``__all__``, and every public or special method of a class
there, must be entered by one of those runs, or be listed in ``UNENTERED``
with the reason it stays.  Methods that Python generates (dataclass and
enum machinery) are not the package's code and are not checked; an alias
such as ``__radd__ = __add__`` shares its target's code, so it counts as
entered with it.
"""

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import expdirect
from expdirect.cli import main

GOLDEN = Path(__file__).parent / "golden"

# The exports no pipeline run enters, with the reason each one stays.  A
# reason names one of the kinds in REASONS.
UNENTERED = {
    "cyclotomic.totient":
        "bench-bound: bench/worker.py draws its kernel values with it",
    "cyclotomic.CycloNum.__pow__":
        "bench-bound: bench/tracer.py counts it by name",
    "laurent.LaurentPoly.__mul__":
        "bench-bound: bench/worker.py times the Laurent product",
    "branch.ValidationError.__init__":
        "error path: an invalid branch, exit 2 in test_cli.py",
    "serialize.SchemaError.__init__":
        "error path: a malformed input document, exit 2 in test_cli.py",
    "cyclotomic.CycloNum.__setattr__": "immutability guard: values are hashed",
    "cyclotomic.CycloPoly.__setattr__": "immutability guard: charpolys are shared",
    "laurent.LaurentPoly.__setattr__": "immutability guard: polar parts are shared",
    "laurent.BiRational.__setattr__": "immutability guard: chain forms are shared",
    "cyclotomic.CycloNum.__repr__": "repr: printed inside the Laurent repr",
    "cyclotomic.CycloPoly.__repr__": "repr: for debugging",
    "laurent.LaurentPoly.__repr__":
        "repr: the orbit-conflict message of realize and roundtrip names the "
        "orbit by it, and realization does not import serialize",
    "laurent.BiRational.__repr__": "repr: for debugging the chain",
}
REASONS = ("bench-bound:", "error path:", "immutability guard:", "repr:")


def _exported():
    """{qualified name: code} for each exported function, and for each
    public or special method of an exported class, written in the package."""
    package = Path(expdirect.__file__).parent
    out = {}
    for info in pkgutil.iter_modules(expdirect.__path__, "expdirect."):
        module = importlib.import_module(info.name)
        short = info.name.split(".", 1)[1]
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", value) for attr, value in vars(obj).items()
                           if not attr.startswith("_") or attr.endswith("__")]
            for qualified, value in members:
                if isinstance(value, (classmethod, staticmethod)):
                    value = value.__func__
                elif isinstance(value, property):
                    value = value.fget
                code = getattr(value, "__code__", None)
                if code is not None and Path(code.co_filename).parent == package:
                    out.setdefault(f"{short}.{qualified}", code)
    return out


def _entered(tmp_path) -> set:
    """The code objects that the pipeline runs enter."""
    out = str(tmp_path / "out")
    runs = [[case.parent.name, "--input", str(case), "--output", out]
            for case in sorted(GOLDEN.glob("*/*.in.json"))]
    runs += [
        ["report", "--oracle", "off", "--input",
         str(GOLDEN / "report" / "10_multi_point.in.json"), "--output", out,
         "--svg", str(tmp_path / "poly.svg")],
        ["resolve", "--text", "--input",
         str(GOLDEN / "resolve" / "04_q5_gap_cyclo4.in.json"), "--output", out],
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    return entered


def test_every_export_is_entered_by_a_pipeline_run(tmp_path):
    exported = _exported()
    entered = _entered(tmp_path)
    assert len(exported) > 50
    unentered = sorted(name for name, code in exported.items() if code not in entered)
    assert unentered == sorted(UNENTERED)
    assert all(reason.startswith(REASONS) for reason in UNENTERED.values())
