"""Each waitkit module imports on its own, and the package namespace
re-exports nothing: callers import from waitkit.<module>."""

import os
import subprocess
import sys

import pytest

import waitkit

MODULES = ("bench", "checkpoint", "cli", "config", "errors", "evaluation",
           "tensor", "training", "transformer", "waitk")


def test_modules_cover_the_package():
    found = {name[:-3] for name in os.listdir(os.path.dirname(waitkit.__file__))
             if name.endswith(".py") and name != "__init__.py"}
    assert found == set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    # A fresh interpreter per module, so no other module's import order
    # can hide a missing import; then the namespace holds only submodules.
    code = (f"import sys, types, waitkit.{module}, waitkit\n"
            "print(' '.join(sorted(\n"
            "    n for n, v in vars(waitkit).items() if not n.startswith('_')\n"
            "    and not isinstance(v, types.ModuleType))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""

