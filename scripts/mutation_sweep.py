#!/usr/bin/env python3
"""Which single-entry mutants of the kernel weight table pass every check.

The table is ``propagators._COEFFICIENTS``: per kind, a (D+, D-) weight
pair for t >= 0 and one for t < 0.  Each mutant sets one entry to one of
the other values of {-1, -1/2, 0, 1/2, 1}, runs every named check on the
default spec at ``--seed`` and restores the entry.  The entries are set
in process; no source file is edited.  Prints each surviving mutant (one
that no named check fails, nor any raise), then the mutants and the
survivors per kind and per side of t = 0.

This is the weight-table family of ROADMAP item 23's mutation sweep.

Usage:
    python3 scripts/mutation_sweep.py [--seed 42]
"""
from __future__ import annotations

import argparse
import collections
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from boxqft import absorber, propagators
from boxqft.lattice import LatticeSpec, NumericalFailure, ValidationError
from boxqft.suite import all_passed, run_all_checks

VALUES = (-1.0, -0.5, 0.0, 0.5, 1.0)
SIDES = ("t >= 0", "t < 0")
COLUMNS = ("D+", "D-")


def mutants(table: dict) -> list[tuple]:
    """(kind, side, column, value) for every entry of ``table`` and every
    value of VALUES other than the entry's own."""
    return [
        (kind, side, column, value)
        for kind, pairs in table.items()
        for side, pair in enumerate(pairs)
        for column, weight in enumerate(pair)
        for value in VALUES
        if value != weight
    ]


def survives(mutant: tuple, spec: LatticeSpec, seed: int) -> bool:
    """Whether every named check passes with the one entry set; the
    difference tables cached per kind are rebuilt for the run."""
    kind, side, column, value = mutant
    table = propagators._COEFFICIENTS
    original = table[kind]
    pairs = [list(pair) for pair in original]
    pairs[side][column] = value
    table[kind] = tuple(tuple(pair) for pair in pairs)
    absorber._difference_table.cache_clear()
    try:
        return all_passed(run_all_checks(spec, seed=seed))
    except (ValidationError, NumericalFailure):
        return False
    finally:
        table[kind] = original
        absorber._difference_table.cache_clear()


def label(mutant: tuple) -> str:
    kind, side, column, value = mutant
    return f"{kind.value} {SIDES[side]} {COLUMNS[column]} = {value!r}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    spec = LatticeSpec()
    every = mutants(propagators._COEFFICIENTS)
    alive = [mutant for mutant in every if survives(mutant, spec, args.seed)]
    print("surviving mutants:")
    for mutant in alive:
        print(f"  {label(mutant)}")
    counts = collections.Counter((kind, side) for kind, side, _, _ in every)
    kept = collections.Counter((kind, side) for kind, side, _, _ in alive)
    print(f"\n{'kind':<12} {'side':<8} {'mutants':>7} {'survive':>7}")
    for kind, side in counts:
        print(f"{kind.value:<12} {SIDES[side]:<8} {counts[kind, side]:>7} {kept[kind, side]:>7}")
    print(f"\n{len(every)} mutants, {len(alive)} survive")


if __name__ == "__main__":
    main()
