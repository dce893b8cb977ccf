"""What code outside the package relies on: the names each module exports
and the functions the benchmark's per-layer tracer looks up."""
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import boxqft

MODULES = sorted(f"boxqft.{info.name}" for info in pkgutil.iter_modules(boxqft.__path__))

#: Names the package no longer defines: test-only wrappers and helpers
#: whose work the surviving entries do, and second paths to a job that
#: one path now does.  New modules go at the end, so test ids keep their
#: numbers.
REMOVED = {
    "boxqft.fock": (
        "confirmation_inner", "hamiltonian_operator", "momentum_operator",
        "time_ordered_vev", "vev_adjoint_field", "vev_field_adjoint", "_svds_norm",
        "OscillatorQuadratures", "oscillator_quadratures", "_lanczos_norm",
        "LANCZOS_MAX_STEPS",
    ),
    "boxqft.lattice": ("is_negation_closed",),
    "boxqft.absorber": ("light_tight_check",),
    "boxqft.cli": ("_numerical_failures", "report_schema_version", "_attach_range_values",
                   "_RANGE_FLAGS"),
    "boxqft.dirac": ("DegenerateSolutionError", "DiracMatrixSet", "_sigma_dot"),
    "boxqft.suite": ("_frequency_spec", "sample_vev_pairs"),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize(("name", "removed"), list(REMOVED.items()))
def test_removed_names_are_gone(name, removed):
    module = importlib.import_module(name)
    for attr in removed:
        assert attr not in getattr(module, "__all__", ())
        assert not hasattr(module, attr)


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_layer_and_counter():
    """Constructing a Tracer looks up every traced function (it is not
    installed, so nothing is patched), and each work counter takes the
    parameters of the function it counts, as ``--trace 1`` runs call it."""
    tracer = _load_tracer()
    tracer.Tracer()
    functions = {
        key: getattr(importlib.import_module(module), name)
        for (module, name), key in tracer.LAYERS.items()
    }
    for key, (_, counter) in tracer.COUNTERS.items():
        assert list(inspect.signature(counter).parameters) == list(
            inspect.signature(functions[key]).parameters
        ), key


def test_traced_verify_counts_every_frequency_integral():
    """Installed around one run of the checks, the tracer's
    ``propagators.quad`` layer counts the three regulated integrals of
    check 08a and the three splits of check 08b, which reach the
    principal parts through ``verify_frequency_split``."""
    from boxqft.suite import run_all_checks

    tracer = _load_tracer().Tracer()
    tracer.begin_op(0)
    tracer.install()
    try:
        run_all_checks()
    finally:
        tracer.uninstall()
    assert tracer.op_totals()["propagators.quad.calls"] == 6
