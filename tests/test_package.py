"""The package's public names: every exported name resolves."""

import importlib
import pkgutil

import pytest

import bridgeint

MODULES = sorted(m.name for m in pkgutil.iter_modules(bridgeint.__path__)
                 if m.name != "__main__")


def test_package_exports_resolve():
    missing = [name for name in bridgeint.__all__ if not hasattr(bridgeint, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"bridgeint.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
