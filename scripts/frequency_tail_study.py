#!/usr/bin/env python3
"""Cutoff study for the regulated single-mode frequency integral.

Tabulates the error of the contour-regulated integral against its closed
form exp(-i w |t|) / (2 w) as the frequency cutoff grows, once with the
analytic large-frequency tail completion and once without it.  The bare
truncation error decays only like 1/(pi * cutoff) (the printed
``predicted`` column), which is why the tail completion is on by
default everywhere else in the package.

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

from boxqft.frequency import FrequencyIntegralSpec, frequency_integral_feynman


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
        spec = FrequencyIntegralSpec(
            mode_frequency=w, time=t, epsilon=args.epsilon,
            frequency_cutoff=cutoff,
        )
        bare = abs(frequency_integral_feynman(spec, include_tail=False) - target)
        full = abs(frequency_integral_feynman(spec, include_tail=True) - target)
        predicted = 1.0 / (math.pi * cutoff)
        print(f"{cutoff:8.0f} {bare:14.3e} {predicted:14.3e} {full:14.3e}")


if __name__ == "__main__":
    main()
