"""Every script under scripts/ loads: its imports of the package resolve."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from boxqft.lattice import LatticeSpec, build_lattice

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


def test_fock_build_scaling_runs_one_row(monkeypatch):
    """One row of the build table, dimension 1,024 (h = 2, check 07's mode
    set): the field operator's a_k and b_dag_k on five modes fill half a
    diagonal each, 10 * 1024 / 2 entries, and both timings are taken."""
    module = _load(next(p for p in SCRIPTS if p.name == "fock_build_scaling.py"), monkeypatch)
    dim, build_s, norm_s, nnz, step = module.row(
        build_lattice(LatticeSpec()), 2, np.random.default_rng(0), repeat=1
    )
    assert (dim, nnz) == (1024, 5120)
    assert build_s > 0 and norm_s > 0 and step >= 0


def test_frequency_tail_study_runs_one_row(monkeypatch):
    """One row of the cutoff table, at cutoff 200: without the tail the
    error is the predicted 1/(pi * cutoff), and the tail takes it below
    the 1e-5 headroom of check 08a."""
    module = _load(next(p for p in SCRIPTS if p.name == "frequency_tail_study.py"), monkeypatch)
    bare, predicted, full = module.row(1.0, 0.0, 1e-6, 200.0)
    assert bare == pytest.approx(predicted, rel=0.05)
    assert full <= 1e-5


def test_spec_sweep_runs_one_spec(monkeypatch, capsys):
    """The sweep over one spec prints its summary; the drawn specs are
    ones ``validate_spec`` accepts, and spec 2's failing checks are the
    ones the full sweep lists for it (a wrong verdict item 10 is to mend)."""
    module = _load(next(p for p in SCRIPTS if p.name == "spec_sweep.py"), monkeypatch)
    monkeypatch.setattr(sys, "argv", ["spec_sweep.py", "--n-specs", "1"])
    module.main()
    assert "0 of 1 specs fail at least one check" in capsys.readouterr().out
    specs = module.draw_specs(np.random.default_rng(2026), 3)
    assert [(s.n_space, s.n_time) for s in specs] == [(10, 29), (48, 18), (48, 60)]
    assert module.failing_checks(specs[2], 2) == ["10f_interaction_fft_vs_direct"]


def test_mutation_sweep_counts_mutants_and_restores_the_table(monkeypatch):
    """Four values per entry of the 32-entry weight table; a survivor
    (retarded's t < 0 D+ weight) and a kill (feynman's t < 0 D- weight
    flipped, which check 02 fails) read as such, and the table is left
    as it was."""
    from boxqft import propagators
    from boxqft.propagators import KernelKind

    module = _load(next(p for p in SCRIPTS if p.name == "mutation_sweep.py"), monkeypatch)
    table = propagators._COEFFICIENTS
    before = dict(table)
    assert len(module.mutants(table)) == 128
    assert module.survives((KernelKind.RETARDED, 1, 0, 0.5), LatticeSpec(), 42)
    assert not module.survives((KernelKind.FEYNMAN, 1, 1, 1.0), LatticeSpec(), 42)
    assert table == before
