"""Every ``__all__`` in the package names something that exists.

A package ``__init__`` that still re-exports a deleted module fails here
rather than on the first ``from repro.x import *`` a user runs.
"""

import importlib
import pkgutil

import pytest

import repro


def _module_names():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name != "repro.__main__":
            names.append(info.name)
    return sorted(names)


MODULES = _module_names()


def test_walk_finds_the_subpackages():
    assert {"repro.cloud", "repro.mobile", "repro.analysis"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    missing = [symbol for symbol in exported if not hasattr(module, symbol)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    duplicates = sorted({symbol for symbol in exported if exported.count(symbol) > 1})
    assert not duplicates, f"{name}.__all__ repeats {duplicates}"
