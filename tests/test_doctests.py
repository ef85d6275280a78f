"""The docstring examples of every expdirect module run and pass."""

import doctest
import importlib
import pkgutil

import expdirect


def test_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(expdirect.__path__, "expdirect."):
        result = doctest.testmod(importlib.import_module(info.name))
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 5
