#!/usr/bin/env python3
"""Convergence order of the translation-generator commutator check.

The commutator of the total momentum operator with the field operator
should equal i times the spatial derivative of the field.  The check
approximates that derivative with a centered difference, so its residual
must shrink like dx^2.  This script prints the residual, the ratio to
the previous row (expect ~4 when dx halves), and the local order
log2(ratio) (expect ~2).  One check call covers every step, so the
momentum operator, the field and their commutator are built once.

Usage:
    python3 scripts/translation_convergence.py [--half-width 2]
        [--t 0.3] [--x 1.7]
"""
from __future__ import annotations

import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from boxqft.fock import mode_spec_from_lattice, translation_generator_check
from boxqft.lattice import LatticeSpec, build_lattice


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--half-width", type=int, default=2,
                        help="modes used: the 2h+1 smallest-|k| (default 2)")
    parser.add_argument("--t", type=float, default=0.3)
    parser.add_argument("--x", type=float, default=1.7)
    args = parser.parse_args()

    lattice = build_lattice(LatticeSpec())
    spec = mode_spec_from_lattice(
        lattice, max_occupation=1, half_width=args.half_width
    )
    print(f"modes={spec.n_modes} basis_dim={spec.basis_dim} "
          f"t={args.t} x={args.x}")
    print(f"{'dx':>10} {'residual':>14} {'ratio':>8} {'order':>7}")
    dxs = (0.2, 0.1, 0.05, 0.025, 0.0125)
    previous = None
    for dx, residual in zip(dxs, translation_generator_check(spec, args.t, args.x, dxs)):
        if previous is None:
            print(f"{dx:10.4f} {residual:14.6e} {'-':>8} {'-':>7}")
        else:
            ratio = previous / residual
            print(f"{dx:10.4f} {residual:14.6e} {ratio:8.3f} "
                  f"{math.log2(ratio):7.4f}")
        previous = residual


if __name__ == "__main__":
    main()
