"""Every script under scripts/ loads: its imports of the package resolve."""
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_loads_without_running_main(path, monkeypatch):
    """Executes the module body (imports and constants) but not ``main``,
    which each script runs only under ``__main__``."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    # startup_profile.py pins BLAS threads in os.environ when loaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
