"""Per-layer spans around the public functions of boxqft, installed from outside.

``Tracer.install`` replaces each listed function with a timing wrapper in
every ``boxqft`` module that binds it, including the by-name imports
(``cli`` and ``absorber`` import ``kernel_values``, ``cli`` and ``suite``
import ``eval_kernel``, ``suite`` imports the ``verify_*`` functions).
``uninstall`` puts the originals back, so untraced operations run the
program exactly as shipped.

A span records its layer key, the span that caused it, the operation id
and its start and end.  Self time is a span's duration minus the time
its child spans cover.  A wrapped call made directly inside a span of the
same key (recursion, or one ``dirac`` function calling another) stays
inside that span.  Spans are kept in memory and written out by the
caller when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.sparse

# (module, public function) -> layer key.  The keys name the per-layer
# metrics: ``<key>.calls`` and ``<key>.self_s``.
LAYERS: dict[tuple[str, str], str] = {
    ("boxqft.lattice", "build_lattice"): "lattice.build_lattice",
    ("boxqft.propagators", "kernel_values"): "propagators.kernel_values",
    ("boxqft.propagators", "eval_kernel"): "propagators.eval_kernel",
    ("boxqft.propagators", "frequency_integral_feynman"): "propagators.quad",
    ("boxqft.propagators", "verify_frequency_split"): "propagators.quad",
    ("boxqft.propagators", "verify_antisymmetry"): "propagators.verify",
    ("boxqft.propagators", "verify_decomposition"): "propagators.verify",
    ("boxqft.fock", "apply"): "fock.apply",
    ("boxqft.fock", "operator_matrix"): "fock.operator_matrix",
    ("boxqft.fock", "matrix_norm"): "fock.matrix_norm",
    ("boxqft.fock", "time_ordered_vev_detail"): "fock.vev",
    ("boxqft.fock", "antiparticle_phase_check"): "fock.checks",
    ("boxqft.fock", "antiparticle_energy_check"): "fock.checks",
    ("boxqft.fock", "momentum_sign_check"): "fock.checks",
    ("boxqft.fock", "reinterpretation_check"): "fock.checks",
    ("boxqft.fock", "translation_generator_check"): "fock.checks",
    ("boxqft.dirac", "gamma_matrices"): "dirac",
    ("boxqft.dirac", "clifford_residual"): "dirac",
    ("boxqft.dirac", "rest_frame_solutions"): "dirac",
    ("boxqft.dirac", "plane_wave_solution"): "dirac",
    ("boxqft.dirac", "dirac_residual"): "dirac",
    ("boxqft.dirac", "probability_current"): "dirac",
    ("boxqft.absorber", "interaction_sum"): "absorber.interaction_sum",
    ("boxqft.absorber", "kernel_difference_table"): "absorber.kernel_difference_table",
    ("boxqft.absorber", "emitted_spectrum"): "absorber.emitted_spectrum",
    ("boxqft.absorber", "project_light_tight"): "absorber.project_light_tight",
    ("boxqft.suite", "run_all_checks"): "suite.run_all_checks",
    ("boxqft.cli", "main"): "cli.main",
}


# Work counts computed from a call's arguments: layer key -> (counter
# name, function taking the wrapped function's parameters).
def _kernel_mode_points(momenta, frequencies, box_length, kind, t, x, step_at_zero=False):
    return np.broadcast(np.asarray(t), np.asarray(x)).size * len(momenta)


def _operator_columns(op, spec):
    return spec.basis_dim


def _norm_sparse_calls(mat):
    return int(scipy.sparse.issparse(mat))


def _interaction_pair_terms(a, b, kind, lattice, reverse_argument=False):
    return (lattice.spec.n_time * lattice.spec.n_space) ** 2


COUNTERS = {
    "propagators.kernel_values": ("mode_points", _kernel_mode_points),
    "fock.operator_matrix": ("columns", _operator_columns),
    "fock.matrix_norm": ("sparse_calls", _norm_sparse_calls),
    "absorber.interaction_sum": ("pair_terms", _interaction_pair_terms),
}

KEYS = sorted(set(LAYERS.values()))
#: Every per-operation total the tracer keeps, in report order.
METRIC_NAMES = [f"{key}.{part}" for key in KEYS for part in ("calls", "self_s")] + [
    f"{key}.{name}" for key, (name, _) in sorted(COUNTERS.items())
]


class Tracer:
    """Span recorder for the functions in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.op = -1
        self._stack: list[list] = []  # [key, child_ns, span index]
        self.spans: dict[str, list] = {
            "key": [], "parent": [], "op": [], "start_ns": [], "end_ns": []
        }
        self._totals: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object, object]] = []
        for (module_name, name), key in LAYERS.items():
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            wrapper = self._wrap(original, key, COUNTERS.get(key))
            for bound_in in _boxqft_modules():
                if getattr(bound_in, name, None) is original:
                    self._patches.append((bound_in, name, original, wrapper))

    def _wrap(self, fn, key, counter):
        stack = self._stack
        spans = self.spans
        keys, parents, ops = spans["key"], spans["parent"], spans["op"]
        starts, ends = spans["start_ns"], spans["end_ns"]
        totals = self._totals
        clock = time.perf_counter_ns
        calls_name, self_name = key + ".calls", key + ".self_s"
        if counter is not None:
            counter_name, count = f"{key}.{counter[0]}", counter[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            index = len(keys)
            keys.append(key)
            parents.append(stack[-1][2] if stack else -1)
            ops.append(self.op)
            ends.append(0)
            frame = [key, 0, index]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                totals[calls_name] += 1
                totals[self_name] += (duration - frame[1]) * 1e-9
                if counter is not None:
                    totals[counter_name] += count(*args, **kwargs)

        return traced

    def install(self) -> None:
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._patches:
            setattr(module, name, original)

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._totals.clear()

    def op_totals(self) -> dict[str, float]:
        """Calls, self seconds and work counts of the current operation."""
        return {name: float(self._totals.get(name, 0.0)) for name in METRIC_NAMES}

    def span_table(self) -> dict:
        """The recorded spans as columns, times relative to the first span."""
        origin = min(self.spans["start_ns"], default=0)
        key_ids = {key: i for i, key in enumerate(KEYS)}
        return {
            "keys": KEYS,
            "key": [key_ids[k] for k in self.spans["key"]],
            "parent": self.spans["parent"],
            "op": self.spans["op"],
            "start_ns": [t - origin for t in self.spans["start_ns"]],
            "end_ns": [t - origin for t in self.spans["end_ns"]],
        }


def _boxqft_modules():
    return [
        module for name, module in list(sys.modules.items())
        if name == "boxqft" or name.startswith("boxqft.")
    ]
