"""The docstring examples of every expdirect module run and pass, and every
name a module exports resolves."""

import doctest
import importlib
import pkgutil

import expdirect


def _modules():
    return [importlib.import_module(info.name)
            for info in pkgutil.iter_modules(expdirect.__path__, "expdirect.")]


def test_docstring_examples_pass():
    attempted = 0
    for module in _modules():
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted >= 5


def test_every_exported_name_resolves():
    modules = [expdirect, *_modules()]
    exported = [m for m in modules if hasattr(m, "__all__")]
    assert len(exported) >= 10
    for module in exported:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
