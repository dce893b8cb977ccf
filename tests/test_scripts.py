"""Every script under scripts/ loads: its imports of the package resolve."""
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


def _load(path, monkeypatch):
    """Executes the module body (imports and constants) but not ``main``,
    which each script runs only under ``__main__``."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    # startup_profile.py pins BLAS threads in os.environ when loaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_loads_without_running_main(path, monkeypatch):
    assert callable(_load(path, monkeypatch).main)


def test_startup_profile_times_the_rows_of_both_trees(monkeypatch):
    """A row merged or renamed between the two trees is kept, in table
    order, so each tree's sum of rows covers its whole check table."""
    module = _load(next(p for p in SCRIPTS if p.name == "startup_profile.py"), monkeypatch)
    baseline = dict.fromkeys(["07b", "08a", "08b", "08c", "09a"])
    change = dict.fromkeys(["07b", "08ab", "08c", "09a", "10"])
    assert module._union_in_order([baseline, change]) == [
        "07b", "08ab", "08a", "08b", "08c", "09a", "10"
    ]
    assert module._union_in_order([change]) == list(change)
