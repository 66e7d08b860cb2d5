import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import gsvdkit

MODULES = ["gsvdkit"] + [
    f"gsvdkit.{info.name}" for info in pkgutil.iter_modules(gsvdkit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []


def test_package_exports_each_module_all():
    # "errors", then every public name of the seven modules, each bound to
    # the defining module's own object
    modules = [importlib.import_module(f"gsvdkit.{name}") for name in
               ("matcore", "gsvd", "quotient", "tikhonov", "subgeom", "stats", "jacobi")]
    assert gsvdkit.__all__[0] == "errors"
    assert sorted(gsvdkit.__all__[1:]) == sorted(x for m in modules for x in m.__all__)
    for m in modules:
        assert [x for x in m.__all__ if getattr(gsvdkit, x) is not getattr(m, x)] == []


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a cold `import gsvdkit, gsvdkit.cli`; the
    # package reaches the Beta CDF through scipy.special instead
    src = os.path.dirname(os.path.dirname(os.path.abspath(gsvdkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, gsvdkit, gsvdkit.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_import_leaves_scipy_special_unloaded():
    # scipy.special adds about 40 ms to a cold `import gsvdkit, gsvdkit.cli`;
    # jacobi imports it inside the two functions that need it
    src = os.path.dirname(os.path.dirname(os.path.abspath(gsvdkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, gsvdkit, gsvdkit.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
