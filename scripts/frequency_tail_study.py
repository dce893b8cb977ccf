#!/usr/bin/env python3
"""Cutoff study for the regulated single-mode frequency integral.

Tabulates the error of the contour-regulated integral against its closed
form exp(-i w |t|) / (2 w) as the frequency cutoff grows, once with the
analytic large-frequency tail completion and once without it.  The bare
truncation error decays only like 1/(pi * cutoff) (the printed
``predicted`` column), which is why ``frequency_integral_feynman``
always adds the tail.

Usage:
    python3 scripts/frequency_tail_study.py [--mode-frequency 1.0]
        [--time 0.0] [--epsilon 1e-6]
"""
from __future__ import annotations

import argparse
import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from boxqft import frequency


def row(w: float, t: float, epsilon: float, cutoff: float) -> tuple[float, float, float]:
    """One table row: the errors against the closed form without and with
    the tail completion, and the predicted bare error 1/(pi * cutoff).
    The bare integral is the completed one less its tail."""
    target = np.exp(-1j * w * abs(t)) / (2.0 * w)
    spec = frequency.FrequencyIntegralSpec(w, t, epsilon, cutoff)
    full = frequency.frequency_integral_feynman(spec)
    bare = full - frequency._tail_completion(w, t, cutoff)
    return abs(bare - target), 1.0 / (math.pi * cutoff), abs(full - target)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode-frequency", type=float, default=1.0)
    parser.add_argument("--time", type=float, default=0.0)
    parser.add_argument("--epsilon", type=float, default=1e-6)
    args = parser.parse_args()

    w, t = args.mode_frequency, args.time
    target = np.exp(-1j * w * abs(t)) / (2.0 * w)
    print(f"mode_frequency={w} time={t} epsilon={args.epsilon}")
    print(f"closed form = {target.real:+.12f} {target.imag:+.12f}j")
    print(f"{'cutoff':>8} {'bare error':>14} {'predicted':>14} "
          f"{'with tail':>14}")
    for cutoff in (25.0, 50.0, 100.0, 200.0, 400.0):
        bare, predicted, full = row(w, t, args.epsilon, cutoff)
        print(f"{cutoff:8.0f} {bare:14.3e} {predicted:14.3e} {full:14.3e}")


if __name__ == "__main__":
    main()
