#!/usr/bin/env python3
"""Wall time and peak memory of Fock operator matrices by basis dimension.

For the field operator Psi(t, x) on the 2h+1 central modes of the default
lattice at occupation ceiling 1 (dimension 4^(2h+1): 64, 1,024, 2^14 and
2^18 for h = 1..4) this prints the time of one ``operator_matrix`` call,
the time of one ``hilbert_schmidt_norm`` of the result (the norm check 07
takes; the dense ``matrix_norm`` refuses every side above 128), the
number of stored entries, and the step in the process's peak resident
set size (ru_maxrss) across both.  Sizes run in ascending order, so each
step is the extra memory that size needed above every smaller one; a
step of 0 means it fit in pages already touched.  One untimed call at
dimension 64 runs first, so first-call costs (numpy's dispatch caches)
land in no row.  Times are the best of ``--repeat`` runs.

Usage:
    python3 scripts/fock_build_scaling.py [--half-widths 1,2,3,4]
        [--repeat 3] [--seed 42]
"""
from __future__ import annotations

import argparse
import pathlib
import resource
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from boxqft.fock import (
    field_operator,
    hilbert_schmidt_norm,
    mode_spec_from_lattice,
    operator_matrix,
)
from boxqft.lattice import LatticeSpec, build_lattice
from boxqft.suite import sample_points


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def row(lattice, half_width: int, rng, repeat: int):
    """One row of the table: (dimension, best build seconds, best norm
    seconds, stored entries, peak-RSS step in MB), over ``repeat`` field
    operators at points drawn from ``rng`` by ``suite.sample_points``."""
    spec = mode_spec_from_lattice(lattice, max_occupation=1, half_width=half_width)
    before = _peak_rss_mb()
    build_s = norm_s = float("inf")
    for t, x in zip(*sample_points(rng, spec.box_length, repeat)):
        op = field_operator(spec, float(t), float(x))
        start = time.perf_counter()
        mat = operator_matrix(op, spec)
        build_s = min(build_s, time.perf_counter() - start)
        start = time.perf_counter()
        hilbert_schmidt_norm(mat)
        norm_s = min(norm_s, time.perf_counter() - start)
    return spec.basis_dim, build_s, norm_s, mat.nnz, _peak_rss_mb() - before


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--half-widths", default="1,2,3,4",
                        help="comma-separated mode half-widths h, run in ascending order")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    half_widths = sorted(int(h) for h in args.half_widths.split(","))

    lattice = build_lattice(LatticeSpec())
    rng = np.random.default_rng(args.seed)
    warm = mode_spec_from_lattice(lattice, max_occupation=1, half_width=1)
    hilbert_schmidt_norm(operator_matrix(field_operator(warm, 0.0, 0.0), warm))
    print(f"{'dim':>7} {'build_ms':>10} {'norm_ms':>10} {'nnz':>9} {'rss_step_mb':>12}")
    for h in half_widths:
        dim, build_s, norm_s, nnz, step = row(lattice, h, rng, args.repeat)
        print(f"{dim:7d} {1e3 * build_s:10.2f} {1e3 * norm_s:10.2f} {nnz:9d} {step:12.1f}")


if __name__ == "__main__":
    main()
