#!/usr/bin/env python3
"""Wall time and peak memory of the absorber's grid objects by grid size.

For each square grid n x n this prints the time to build the two
difference tables an absorber run uses (D+ and Hadamard), the time of
one project_light_tight call, the time of the two pair sums
(free_field_identity and dplus_direction_equivalence over every ordered
pair of two currents, as in the benchmark's `emission` calls, on the
tables just built), and the step in the process's peak resident set
size (ru_maxrss) across all three.  Sizes run in ascending order, so
each step is the extra memory that size needed above every smaller one;
a step of 0 means it fit in pages already touched.  Each
repetition uses a slightly different mass, so no table comes from the
cache.  Times are the best of ``--repeat`` runs.

Usage:
    python3 scripts/absorber_scaling.py [--sizes 16,32,64,128,256]
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

from boxqft.absorber import (
    dplus_direction_equivalence,
    free_field_identity,
    kernel_difference_table,
    project_light_tight,
    random_current,
)
from boxqft.lattice import LatticeSpec, build_lattice
from boxqft.propagators import KernelKind


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="16,32,64,128,256",
                        help="comma-separated grid sides, run in ascending order")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    sizes = sorted(int(s) for s in args.sizes.split(","))

    rng = np.random.default_rng(args.seed)
    print(f"{'n':>5} {'tables_ms':>10} {'project_ms':>11} {'pair_sums_ms':>13} "
          f"{'rss_step_mb':>12}")
    for n in sizes:
        before = _peak_rss_mb()
        table_s = project_s = pairs_s = float("inf")
        for rep in range(args.repeat):
            lattice = build_lattice(
                LatticeSpec(n_space=n, n_time=n, mass=1.0 + 1e-3 * (rep + n))
            )
            currents = [random_current(lattice, rng) for _ in range(2)]
            start = time.perf_counter()
            for kind in (KernelKind.WIGHTMAN_PLUS, KernelKind.HADAMARD):
                kernel_difference_table(lattice, kind)
            table_s = min(table_s, time.perf_counter() - start)
            start = time.perf_counter()
            project_light_tight(currents[0], lattice)
            project_s = min(project_s, time.perf_counter() - start)
            start = time.perf_counter()
            free_field_identity(currents, lattice)
            dplus_direction_equivalence(currents, lattice)
            pairs_s = min(pairs_s, time.perf_counter() - start)
        step = _peak_rss_mb() - before
        print(f"{n:5d} {1e3 * table_s:10.2f} {1e3 * project_s:11.2f} "
              f"{1e3 * pairs_s:13.2f} {step:12.1f}")


if __name__ == "__main__":
    main()
