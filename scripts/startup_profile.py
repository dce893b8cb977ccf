#!/usr/bin/env python3
"""Where the time of a short boxqft run goes: imports, subcommands, checks.

Prints three tables:

1. the best-of-N wall time of a fresh interpreter that runs only
   ``pass``, ``import numpy``, or ``import boxqft.<module>`` for every
   module in ``src/boxqft``, with the number of ``scipy`` modules the
   import leaves loaded;
2. the best-of-N wall time of each subcommand at its defaults (``kernel``
   on a 100x64 grid, the shape of the benchmark's kernel-scan), each in a
   fresh interpreter writing into a temporary directory;
3. the best-of-N in-process wall time of each row of the check table
   that ``run_all_checks`` drives, after one untimed warm-up run.

BLAS is held at one thread.  Usage:
    python3 scripts/startup_profile.py [--repeat 5]
"""
from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
# Set before numpy loads OpenBLAS here; the child interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

SUBCOMMANDS = (
    ["verify"],
    # The benchmark's kernel-scan shape: a 100x64 grid, t of both signs
    # and never 0, x beyond [0, L); the `=` form keeps argparse from
    # reading a negative range as a flag.
    ["kernel", "--kind=feynman", "--t-range=-2.6:2.9:100", "--x-range=-4:16:64"],
    ["fock-vev"],
    ["dirac"],
    ["absorber"],
)
COUNT_SCIPY = (
    "import sys; {stmt}; "
    "print(sum(1 for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
)


def _best_run(argv: list[str], repeat: int, cwd: str) -> tuple[float, str]:
    """Best wall time of ``repeat`` fresh interpreters, and the last stdout."""
    best, out = float("inf"), ""
    for _ in range(repeat):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=cwd, env=ENV, capture_output=True, text=True)
        best = min(best, time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
        out = done.stdout
    return best, out


def import_table(repeat: int, cwd: str) -> None:
    modules = sorted(p.stem for p in (SRC / "boxqft").glob("*.py") if p.stem != "__init__")
    print(f"{'fresh interpreter':<28} {'best_s':>8} {'scipy_modules':>14}")
    for label, stmt in [("pass", "pass"), ("import numpy", "import numpy")] + [
        (f"import boxqft.{name}", f"import boxqft.{name}") for name in modules
    ]:
        seconds, out = _best_run([sys.executable, "-c", COUNT_SCIPY.format(stmt=stmt)],
                                 repeat, cwd)
        print(f"{label:<28} {seconds:8.3f} {int(out.split()[-1]):14d}")


def subcommand_table(repeat: int, cwd: str) -> None:
    width = max(len(" ".join(argv)) for argv in SUBCOMMANDS)
    print(f"\n{'subcommand (fresh interpreter)':<{width}} {'best_s':>8}")
    for argv in SUBCOMMANDS:
        out_dir = pathlib.Path(cwd) / argv[0]
        seconds, _ = _best_run(
            [sys.executable, "-m", "boxqft.cli", *argv, f"--out={out_dir}"], repeat, cwd
        )
        print(f"{' '.join(argv):<{width}} {seconds:8.3f}")


def check_table(repeat: int) -> None:
    sys.path.insert(0, str(SRC))
    from boxqft import suite
    from boxqft.lattice import LatticeSpec, build_lattice

    spec, seed = LatticeSpec(), 42
    start = time.perf_counter()
    suite.run_all_checks(spec, seed)
    first_run = time.perf_counter() - start
    lattice = build_lattice(spec)
    print(f"\n{'check table row (in process)':<44} {'best_ms':>8}")
    summed = 0.0
    for computation, *checks in suite._CHECK_TABLE:
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            computation(spec, lattice, seed)
            best = min(best, time.perf_counter() - start)
        summed += best
        ids = [check.name.split("_", 1)[0] for check in checks]
        label = ids[0] if len(ids) == 1 else f"{ids[0]}..{ids[-1]}"
        print(f"{label + ' ' + computation.__name__:<44} {1e3 * best:8.1f}")
    print(f"{'sum of rows':<44} {1e3 * summed:8.1f}")
    print(f"{'run_all_checks, first call (warm-up)':<44} {1e3 * first_run:8.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per entry; the best is printed (default 5)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    with tempfile.TemporaryDirectory() as cwd:
        import_table(args.repeat, cwd)
        subcommand_table(args.repeat, cwd)
    check_table(args.repeat)


if __name__ == "__main__":
    main()
