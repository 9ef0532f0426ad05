"""The package's import surface, each in a fresh interpreter: `import
memaudit` loads no numpy, every exported name resolves from its submodule
on first use, and the command line sets OpenBLAS's idle timeout before
numpy loads."""

from conftest import child


def _child(code, **env):
    """stdout of a fresh interpreter running code, with OPENBLAS_THREAD_TIMEOUT
    set only as given."""
    result = child("-c", code, env={"OPENBLAS_THREAD_TIMEOUT": None, **env})
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_no_numpy():
    assert _child("import sys, memaudit\nprint('numpy' in sys.modules)") == "False\n"


EXPORTS = """
import importlib
from memaudit import *
import memaudit
listed = dir(memaudit)
for name in memaudit.__all__:
    obj = getattr(memaudit, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("memaudit.") and getattr(home, name) is obj, name
    assert globals()[name] is obj and name in listed, name
try:
    memaudit.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_exports_resolve_from_their_submodules():
    """Every __all__ name is its submodule's object, listed by dir() and
    bound by a star import; an unknown name raises AttributeError."""
    assert _child(EXPORTS) == "module 'memaudit' has no attribute 'no_such_name'\n"


TIMEOUT_AT_NUMPY = """
import os, sys
class Watch:
    seen = None
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and Watch.seen is None:
            Watch.seen = os.environ.get("OPENBLAS_THREAD_TIMEOUT", "unset")
sys.meta_path.insert(0, Watch())
import memaudit.cli
print(Watch.seen, os.environ["OPENBLAS_THREAD_TIMEOUT"])
"""


def test_cli_sets_the_blas_idle_timeout_before_numpy_loads():
    """OpenBLAS reads its idle timeout when numpy loads it, so the command
    line's default is in place by then; a value the caller set wins."""
    assert _child(TIMEOUT_AT_NUMPY) == "4 4\n"
    assert _child(TIMEOUT_AT_NUMPY, OPENBLAS_THREAD_TIMEOUT="28") == "28 28\n"
