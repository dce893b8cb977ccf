"""Seeded workloads for the boxqft benchmark, with their output checks.

Each workload turns a ``numpy.random.Generator`` into a stream of
operations.  An operation is a list of ``boxqft`` command lines (the only
thing the program sees) plus a check that reads the files and captured
stdout the calls left behind.  A check returns the operation's
``tol_frac``: its worst gated residual divided by that residual's
tolerance.  It raises ``CheckFailed`` when an output is wrong.

Every operation draws a fresh ``--seed`` and ``--mass`` (mass in
[0.5, 2]), so a cache keyed on inputs cannot carry from one operation to
the next, just as it could not across separate CLI invocations.
"""
from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BOX_LENGTH = 10.0
N_SPACE = 64
MASS_RANGE = (0.5, 2.0)

# The kinds and their definitions follow the convention table of the
# package README; the reference below is written from that table alone.
KINDS = (
    "dplus", "dminus", "commutator", "hadamard",
    "retarded", "advanced", "dbar", "feynman",
)
KERNEL_T_COUNT = 100
KERNEL_X_COUNT = 64
KERNEL_SAMPLE_ROWS = 1024
KERNEL_ABS_TOL = 1e-12

# The `absorber` subcommand exits 1 when either identity residual it
# prints exceeds this gate.
ABSORBER_IDENTITY_TOL = 1e-10
_RESIDUAL_LINE = re.compile(
    r"^(free-field conversion|mode-sum consistency) residual = (\S+)$", re.M
)

# The inverted negative control must exceed its threshold, so its ratio
# is not an accuracy figure.
VERIFY_EXCLUDED_CHECKS = ("10e_",)


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


@dataclass
class Call:
    """One ``boxqft`` invocation: its argv tail and output subdirectory."""

    argv: list[str]
    subdir: str


@dataclass
class CallResult:
    code: int
    stdout: str
    stderr: str
    out_dir: Path


@dataclass
class Operation:
    """One unit of work; ``check`` returns the operation's ``tol_frac``."""

    label: str
    calls: list[Call]
    check: Callable[[list[CallResult]], float]


def _draw_seed_and_mass(rng: np.random.Generator) -> tuple[int, float]:
    seed = int(rng.integers(0, 2**31 - 1))
    mass = float(rng.uniform(*MASS_RANGE))
    return seed, mass


def _require_exit_zero(results: list[CallResult]) -> None:
    for result in results:
        if result.code != 0:
            raise CheckFailed(
                f"exit code {result.code}: {result.stderr.strip()[-300:]}"
            )


# --- verify -----------------------------------------------------------------

def verify_ops(rng: np.random.Generator):
    while True:
        seed, mass = _draw_seed_and_mass(rng)
        yield Operation(
            label=f"verify seed={seed} mass={mass!r}",
            calls=[Call(["verify", f"--seed={seed}", f"--mass={mass!r}"], "verify")],
            check=_check_verify,
        )


def _check_verify(results: list[CallResult]) -> float:
    _require_exit_zero(results)
    report = json.loads((results[0].out_dir / "verify_report.json").read_text())
    checks = report["checks"]
    if not checks:
        raise CheckFailed("verify_report.json lists no checks")
    failing = [c["name"] for c in checks if c["pass"] is not True]
    if failing:
        raise CheckFailed(f"checks not passing: {failing}")
    ratios = [
        c["max_residual"] / c["tolerance"]
        for c in checks
        if c["tolerance"] > 0 and not c["name"].startswith(VERIFY_EXCLUDED_CHECKS)
    ]
    return max(ratios)


# --- emission ---------------------------------------------------------------

def emission_ops(rng: np.random.Generator):
    while True:
        seed, mass = _draw_seed_and_mass(rng)
        common = [
            "absorber", "--n-space=64", "--n-time=64", "--n-currents=2",
            f"--seed={seed}", f"--mass={mass!r}",
        ]
        yield Operation(
            label=f"emission seed={seed} mass={mass!r}",
            calls=[Call(common, "raw"), Call(common + ["--project"], "projected")],
            check=_check_emission,
        )


def _check_emission(results: list[CallResult]) -> float:
    _require_exit_zero(results)
    summary = json.loads(
        (results[1].out_dir / "absorber_summary.json").read_text()
    )
    if summary["light_tight"] is not True:
        raise CheckFailed(f"projected currents not light-tight: {summary}")
    residuals = []
    for result in results:
        found = _RESIDUAL_LINE.findall(result.stdout)
        if len(found) != 2:
            raise CheckFailed(f"expected two residual lines, got {found}")
        residuals += [float(value) for _, value in found]
    return max(residuals) / ABSORBER_IDENTITY_TOL


# --- kernel-scan ------------------------------------------------------------

def kernel_scan_ops(rng: np.random.Generator):
    while True:
        seed, mass = _draw_seed_and_mass(rng)
        ts = None
        while ts is None or np.any(ts == 0.0):
            t_start = -float(rng.uniform(0.5, 3.0))
            t_stop = float(rng.uniform(0.5, 3.0))
            ts = np.linspace(t_start, t_stop, KERNEL_T_COUNT)
        x_start = -float(rng.uniform(0.0, BOX_LENGTH))
        x_stop = BOX_LENGTH + float(rng.uniform(0.0, BOX_LENGTH))
        xs = np.linspace(x_start, x_stop, KERNEL_X_COUNT)
        rows = rng.choice(ts.size * xs.size, size=KERNEL_SAMPLE_ROWS, replace=False)
        # The `=` form keeps argparse from reading a negative range as a flag.
        grid = [
            f"--t-range={t_start!r}:{t_stop!r}:{KERNEL_T_COUNT}",
            f"--x-range={x_start!r}:{x_stop!r}:{KERNEL_X_COUNT}",
            f"--seed={seed}", f"--mass={mass!r}",
        ]
        yield Operation(
            label=f"kernel-scan seed={seed} mass={mass!r}",
            calls=[Call(["kernel", f"--kind={kind}"] + grid, kind) for kind in KINDS],
            check=functools.partial(
                _check_kernel_scan, mass=mass, ts=ts, xs=xs, rows=np.sort(rows)
            ),
        )


def reference_kernels(mass: float, t: np.ndarray, x: np.ndarray) -> dict[str, np.ndarray]:
    """Every kind at paired points (t, x), as direct mode sums.

    Modes k_n = 2 pi n / L for n = -(N/2 - 1) .. N/2 - 1 and
    w_n = sqrt(m^2 + k_n^2); x is reduced into [0, L) first.
    """
    n = np.arange(-(N_SPACE // 2 - 1), N_SPACE // 2)
    k = 2.0 * np.pi * n / BOX_LENGTH
    w = np.sqrt(mass * mass + k * k)
    x = np.mod(x, BOX_LENGTH)
    tw = np.multiply.outer(t, w)
    kx = np.multiply.outer(x, k)
    dplus = np.sum(np.exp(-1j * (tw - kx)) / (2.0 * w), axis=-1) / BOX_LENGTH
    dminus = -np.sum(np.exp(1j * (tw + kx)) / (2.0 * w), axis=-1) / BOX_LENGTH
    commutator = dplus + dminus
    after, before = t > 0, t < 0
    retarded = np.where(after, commutator, 0.0)
    advanced = np.where(before, -commutator, 0.0)
    return {
        "dplus": dplus,
        "dminus": dminus,
        "commutator": commutator,
        "hadamard": (dplus - dminus) / 2.0,
        "retarded": retarded,
        "advanced": advanced,
        "dbar": (retarded + advanced) / 2.0,
        "feynman": np.where(after, dplus, 0.0) - np.where(before, dminus, 0.0),
    }


def _check_kernel_scan(
    results: list[CallResult], mass: float, ts: np.ndarray, xs: np.ndarray, rows: np.ndarray
) -> float:
    _require_exit_zero(results)
    want_t = np.repeat(ts, xs.size)
    want_x = np.tile(xs, ts.size)
    reference = reference_kernels(mass, want_t[rows], want_x[rows])
    worst = 0.0
    for kind, result in zip(KINDS, results):
        lines = (result.out_dir / f"kernel_{kind}.csv").read_text().splitlines()
        if lines[0] != "kind,t,x,re,im" or len(lines) != 1 + want_t.size:
            raise CheckFailed(f"{kind}: bad header or {len(lines) - 1} rows")
        prefix = kind + ","
        if not all(line.startswith(prefix) for line in lines[1:]):
            raise CheckFailed(f"{kind}: a row has the wrong kind column")
        values = np.loadtxt(lines[1:], delimiter=",", usecols=(1, 2, 3, 4), ndmin=2)
        if not (np.array_equal(values[:, 0], want_t) and np.array_equal(values[:, 1], want_x)):
            raise CheckFailed(f"{kind}: (t, x) columns differ from the requested grid")
        got = values[rows, 2] + 1j * values[rows, 3]
        err = float(np.max(np.abs(got - reference[kind])))
        if not err <= KERNEL_ABS_TOL:
            raise CheckFailed(f"{kind}: max error {err:.3e} against the reference")
        worst = max(worst, err)
    return worst / KERNEL_ABS_TOL


# --- host-speed probe --------------------------------------------------------
# The host's CPU speed swings by a quarter and more over seconds to
# minutes, and not alike for every kind of work: at the same moment a
# pure-Python loop, small-array numpy calls and a strided gather slow down
# by different amounts.  The probe is a fixed piece of each of the three,
# on fixed inputs, in the shapes of the three workloads' dominant layers.
# It is timed around every CLI call, and `op_ref` is operation time over
# probe time.  It never imports boxqft, so no change to the program moves it.

PROBE_LOOP = 150_000
PROBE_POINTS = [(t, x) for t in (-2.5, -0.7, 0.4, 1.9) for x in np.linspace(-3.0, 13.0, 30)]
PROBE_N_TIME = 64
PROBE_SLICES = 6
_PROBE_TABLE = np.exp(1j * np.arange((2 * PROBE_N_TIME - 1) * N_SPACE)).reshape(-1, N_SPACE)
_PROBE_JDIFF = (np.arange(N_SPACE)[:, None] - np.arange(N_SPACE)[None, :]) % N_SPACE
_PROBE_CURRENT = np.cos(np.arange(PROBE_N_TIME * N_SPACE)).reshape(PROBE_N_TIME, N_SPACE)


def probe() -> None:
    """Fixed work of the kinds the workloads do; its wall time gauges the host."""
    total = 0
    for i in range(PROBE_LOOP):  # interpreter, as in argument and report handling
        total += i * i
    for t, x in PROBE_POINTS:  # one-point mode sums, as in `kernel`
        reference_kernels(1.0, np.array([t]), np.array([x]))
    times = np.arange(PROBE_N_TIME)
    for shift in range(PROBE_SLICES):  # table gathers, as in `interaction_sum`
        rows = _PROBE_TABLE[times - shift + PROBE_N_TIME - 1]
        np.einsum("ij,ijk->k", _PROBE_CURRENT, rows[:, _PROBE_JDIFF])


WORKLOADS = {
    "verify": verify_ops,
    "emission": emission_ops,
    "kernel-scan": kernel_scan_ops,
}
