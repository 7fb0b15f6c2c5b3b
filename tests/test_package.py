"""The package's public names resolve, and importing the CLI stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_cli_import_loads_only_scipy_special():
    # scipy.optimize and scipy.sparse.linalg (about 90 ms to import) are kept
    # out on purpose: alpha1 bisects and the cell solves run numpy GMRES
    probe = ("import sys, bridgeint.cli; print(sorted(name for name, m in sys.modules.items() "
             "if name.startswith('scipy.') and name.count('.') == 1 "
             "and not name[6:].startswith('_') and hasattr(m, '__path__')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "['scipy.special']"
