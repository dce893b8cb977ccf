#!/usr/bin/env python3
"""Which named checks fail across the spec domain.

Draws ``--n-specs`` lattice specs that ``validate_spec`` accepts, from
``default_rng(--seed)``: L = 10^U(-1.5, 3), m = 10^U(-2.5, 2),
dt = 10^U(-3, 1), ``n_space`` even in 6-64 and ``n_time`` in 8-64, in
that order, a rejected spec redrawn whole.  Spec i runs every check at
seed i.  Prints each failing spec with the checks it fails, then the
number of failing specs per check.  A spec whose run raises is listed
under ``raised``.  Checks are run with their default tolerances, so the
table shows where the verdicts depend on the units or the spec.

Usage:
    python3 scripts/spec_sweep.py [--n-specs 400] [--seed 2026]
"""
from __future__ import annotations

import argparse
import collections
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from boxqft.lattice import LatticeSpec, NumericalFailure, ValidationError, validate_spec
from boxqft.suite import run_all_checks


def draw_specs(rng: np.random.Generator, n: int) -> list[LatticeSpec]:
    """``n`` specs from the domain above, each one ``validate_spec`` accepts."""
    specs = []
    while len(specs) < n:
        spec = LatticeSpec(
            box_length=float(10.0 ** rng.uniform(-1.5, 3.0)),
            mass=float(10.0 ** rng.uniform(-2.5, 2.0)),
            dt=float(10.0 ** rng.uniform(-3.0, 1.0)),
            n_space=2 * int(rng.integers(3, 33)),
            n_time=int(rng.integers(8, 65)),
        )
        try:
            validate_spec(spec)
        except ValidationError:
            continue
        specs.append(spec)
    return specs


def failing_checks(spec: LatticeSpec, seed: int) -> list[str]:
    """Names of the checks that fail at ``spec`` and ``seed``, or
    ``["raised"]`` if the run raises a validation or numerical error."""
    try:
        results = run_all_checks(spec, seed=seed)
    except (ValidationError, NumericalFailure):
        return ["raised"]
    return [r.name for r in results if not r.passed]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-specs", type=int, default=400)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args()

    specs = draw_specs(np.random.default_rng(args.seed), args.n_specs)
    counts: collections.Counter[str] = collections.Counter()
    n_failing = 0
    print(f"{'i':>4} {'L':>10} {'m':>10} {'dt':>10} {'n_space':>7} {'n_time':>6}  failing")
    for i, spec in enumerate(specs):
        failed = failing_checks(spec, i)
        if failed:
            n_failing += 1
            counts.update(failed)
            print(f"{i:4d} {spec.box_length:10.4g} {spec.mass:10.4g} {spec.dt:10.4g} "
                  f"{spec.n_space:7d} {spec.n_time:6d}  {' '.join(failed)}")
    print(f"\n{n_failing} of {len(specs)} specs fail at least one check")
    print(f"{'check':<40} {'specs':>5}")
    for name, count in counts.most_common():
        print(f"{name:<40} {count:5d}")


if __name__ == "__main__":
    main()
