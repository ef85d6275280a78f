"""Each module of the package reaches another only through its public names.

A name with a leading underscore is private to the module that defines it.
Every ``src/expdirect/*.py`` is read with ``ast``: importing such a name
from another package module, or reading it as an attribute of an imported
package module, fails.  ``branch._ValidBranches`` is the one exception, a
type marker that ``decompose`` and the pipeline share by design.
"""

import ast
from pathlib import Path

import expdirect

PACKAGE = Path(expdirect.__file__).parent
ALLOWED = {"branch._ValidBranches"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _reaches(tree: ast.Module) -> list[str]:
    """``module.name`` for each private name of another package module that
    ``tree`` imports or reads."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    bound, out = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("expdirect"):
                continue  # another package's names
            source = module.removeprefix("expdirect").lstrip(".")
            for alias in node.names:
                if not source and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    out.append(f"{source}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("expdirect.") and alias.asname:
                    bound[alias.asname] = alias.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and _private(node.attr)):
            out.append(f"{bound[node.value.id]}.{node.attr}")
    return out


def test_reaches_finds_imports_and_reads():
    tree = ast.parse("from .a import _x, y\nfrom . import serialize as s\n"
                     "import expdirect.cli as c\ns._expect_dict(1)\nc.main\n"
                     "from .branch import _ValidBranches\nimport json\njson._x\n")
    assert _reaches(tree) == ["a._x", "branch._ValidBranches", "serialize._expect_dict"]


def test_no_module_reaches_another_modules_private_names():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = [n for n in _reaches(ast.parse(path.read_text())) if n not in ALLOWED]
        if names:
            found[path.name] = names
    assert found == {}
