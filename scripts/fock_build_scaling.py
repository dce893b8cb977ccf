#!/usr/bin/env python3
"""Wall time and peak memory of Fock operator matrices by basis dimension,
and the crossover between the two spectral-norm routes.

For the field operator Psi(t, x) on the 2h+1 central modes of the default
lattice at occupation ceiling 1 (dimension 4^(2h+1): 64, 1,024, 2^14 and
2^18 for h = 1..4) this prints the time of one ``operator_matrix`` call,
the time of one ``matrix_norm`` of the result, the number of stored
entries, and the step in the process's peak resident set size
(ru_maxrss) across both.  Sizes run in ascending order, so each step is
the extra memory that size needed above every smaller one; a step of 0
means it fit in pages already touched.  One untimed call at dimension
64 runs first, so first-call costs (LAPACK's workspace queries, numpy's
dispatch caches) land in no row.  Times are the best of ``--repeat`` runs.

A second table times both norm routes of ``matrix_norm`` on the field
operator at sides 9 to 1,024 (mode sets of 1 to 5 central modes at
ceilings 1 to 31): the exact dense 2-norm (LAPACK on ``toarray()``) and
Lanczos on A^H A from the fixed start vector (``fock._lanczos_norm``),
with the faster route, the relative difference of the two norms and the
route ``matrix_norm`` takes (dense up to ``fock.DENSE_NORM_MAX_SIDE``).
It is the measurement that sets that threshold.  Pin BLAS to one thread
(``OPENBLAS_NUM_THREADS=1``) to read it as the threshold's comment does.

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

from boxqft import fock
from boxqft.fock import field_operator, matrix_norm, mode_spec_from_lattice, operator_matrix
from boxqft.lattice import LatticeSpec, build_lattice

# (half-width h of the 2h+1 central modes, occupation ceiling), giving
# sides (ceiling+1)^(2(2h+1)) in ascending order: 9, 16, 36, 64, 64, 81,
# 100, 144, 196, 256, 324, 729, 1024, 1024.
NORM_MODE_SETS = (
    (0, 2), (0, 3), (0, 5), (0, 7), (1, 1), (0, 8), (0, 9),
    (0, 11), (0, 13), (0, 15), (0, 17), (1, 2), (0, 31), (2, 1),
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def norm_row(lattice, half_width: int, ceiling: int, rng, repeat: int):
    """One row of the norm table: (side, best dense seconds, best Lanczos
    seconds, relative difference of the two norms, route matrix_norm
    takes), over ``repeat`` field operators at points drawn from ``rng``."""
    spec = mode_spec_from_lattice(lattice, max_occupation=ceiling, half_width=half_width)
    dense_s = lanczos_s = float("inf")
    for _ in range(repeat):
        t, x = rng.uniform(-2.0, 2.0), rng.uniform(0.0, spec.box_length)
        mat = operator_matrix(field_operator(spec, float(t), float(x)), spec)
        start = time.perf_counter()
        dense = float(np.linalg.norm(mat.toarray(), 2))
        dense_s = min(dense_s, time.perf_counter() - start)
        start = time.perf_counter()
        lanczos = fock._lanczos_norm(mat)
        lanczos_s = min(lanczos_s, time.perf_counter() - start)
    route = "dense" if spec.basis_dim <= fock.DENSE_NORM_MAX_SIDE else "lanczos"
    return spec.basis_dim, dense_s, lanczos_s, abs(dense - lanczos) / dense, route


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
    matrix_norm(operator_matrix(field_operator(warm, 0.0, 0.0), warm))
    print(f"{'dim':>7} {'build_ms':>10} {'norm_ms':>10} {'nnz':>9} {'rss_step_mb':>12}")
    for h in half_widths:
        spec = mode_spec_from_lattice(lattice, max_occupation=1, half_width=h)
        before = _peak_rss_mb()
        build_s = norm_s = float("inf")
        for _ in range(args.repeat):
            t, x = rng.uniform(-2.0, 2.0), rng.uniform(0.0, spec.box_length)
            op = field_operator(spec, float(t), float(x))
            start = time.perf_counter()
            mat = operator_matrix(op, spec)
            build_s = min(build_s, time.perf_counter() - start)
            start = time.perf_counter()
            matrix_norm(mat)
            norm_s = min(norm_s, time.perf_counter() - start)
        step = _peak_rss_mb() - before
        print(f"{spec.basis_dim:7d} {1e3 * build_s:10.2f} {1e3 * norm_s:10.2f} "
              f"{mat.nnz:9d} {step:12.1f}")

    print()
    print(f"{'side':>6} {'dense_ms':>10} {'lanczos_ms':>10} {'faster':>7} {'rel_diff':>10} "
          f"{'matrix_norm':>12}")
    for h, ceiling in NORM_MODE_SETS:
        side, dense_s, lanczos_s, rel_diff, route = norm_row(lattice, h, ceiling, rng, args.repeat)
        print(f"{side:6d} {1e3 * dense_s:10.3f} {1e3 * lanczos_s:10.3f} "
              f"{'dense' if dense_s < lanczos_s else 'lanczos':>7} {rel_diff:10.1e} "
              f"{route:>12}")


if __name__ == "__main__":
    main()
