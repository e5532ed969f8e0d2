"""The public surface: every exported name resolves."""

import importlib

import pytest

MODULES = ["relpack", "relpack.chart", "relpack.cli", "relpack.curves",
           "relpack.discmap", "relpack.params", "relpack.verify"]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
