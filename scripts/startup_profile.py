#!/usr/bin/env python3
"""Where the time of a short boxqft run goes: imports, subcommands, checks.

Prints three tables:

1. the best-of-N wall time of a fresh interpreter that runs only
   ``pass``, ``import numpy``, or ``import boxqft.<module>`` for every
   module in ``src/boxqft``, with the number of ``scipy`` modules the
   import leaves loaded;
2. the best-of-N wall time of each subcommand at its defaults, each in a
   fresh interpreter writing into a temporary directory.  The ``kernel``
   rows run all eight kinds in turn in one interpreter, as the
   benchmark's kernel-scan does: on its 100x64 grid, and on a 256x256
   grid at ``--n-space=256``;
3. the best wall time of each row of the check table that
   ``run_all_checks`` drives, timed inside one long-lived interpreter
   after one untimed warm-up run.  Each of the N rounds calls a row
   ``ROW_CALLS`` times in a row and keeps the best, so a row's time is the
   best of N * ``ROW_CALLS`` calls: sub-millisecond rows then repeat
   between runs of the script.  Every call gets a fresh spec, its mass
   nudged by a relative 1e-9 per call, as each benchmark operation draws
   a fresh mass, so no per-spec cache of a row is warm when it is timed;
   the call's lattice is built before its timer starts.  The rows and
   their sum print in ms to three decimals.  With a baseline the rows are
   those of both trees in table order, so a row merged or renamed between
   them is timed on the tree that has it, and each "sum of rows" covers
   its tree's whole table.

Each fresh-interpreter row of tables 1 and 2 also prints the least peak
resident set size of its N runs, in MB (MiB, as the benchmark's
``peak_rss_mb``), read per child from the rusage that ``os.wait4``
returns when it reaps that child.

With ``--baseline DIR`` every row is timed on both ``DIR/src`` (for
example a ``git archive`` of the parent commit) and this checkout.  The
runs alternate between the two trees, the first tree swapping every
round, so both see the same host load; each row prints both best-of-N
times and their ratio (this checkout over the baseline), then both
peak sizes.  A row that the baseline lacks, or that fails there, prints
``-``.

BLAS is held at one thread.  Usage:
    python3 scripts/startup_profile.py [--repeat 5] [--baseline DIR]
"""
from __future__ import annotations

import argparse
import json
import math
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

KERNEL_KINDS = ("dplus", "dminus", "commutator", "hadamard", "retarded", "advanced", "dbar",
                "feynman")
# The benchmark's kernel-scan shape: a 100x64 grid, t of both signs and
# never 0, x beyond [0, L); the `=` form keeps argparse from reading a
# negative range as a flag.
KERNEL_SCAN = ["--t-range=-2.6:2.9:100", "--x-range=-4:16:64"]
KERNEL_256 = ["--n-space=256", "--t-range=-2.6:2.9:256", "--x-range=-4:16:256"]


def _every_kind(grid: list[str]) -> tuple[str, list[list[str]]]:
    return (f"kernel (8 kinds) {' '.join(grid)}",
            [["kernel", f"--kind={kind}", *grid] for kind in KERNEL_KINDS])


# One row each: a label and the argument lists that one fresh interpreter
# passes to boxqft.cli.main in turn.
SUBCOMMANDS = (
    ("verify", [["verify"]]),
    _every_kind(KERNEL_SCAN),
    _every_kind(KERNEL_256),
    ("fock-vev", [["fock-vev"]]),
    ("dirac", [["dirac"]]),
    ("absorber", [["absorber"]]),
)
CLI_CALLS = """
import json, sys
from boxqft.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
"""
COUNT_SCIPY = (
    "import sys; {stmt}; "
    "print(sum(1 for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
)
# Calls of a check-table row per round of table 3, each round printing
# its best.
ROW_CALLS = 20
# Runs in a child interpreter per tree: one warm-up run_all_checks, then
# the best of ROW_CALLS (argv[1]) timed calls of the row named by each
# line read from stdin, each call on a spec of its own.
CHECK_WORKER = """
import json, sys, time
from boxqft import suite
from boxqft.lattice import LatticeSpec, build_lattice
seed = 42
start = time.perf_counter()
suite.run_all_checks(LatticeSpec(), seed)
first = time.perf_counter() - start
rows = {row[0].__name__: row for row in suite._CHECK_TABLE}
print(json.dumps({"first": first, "rows": [
    [name, [check.name for check in checks]] for name, (_, *checks) in rows.items()
]}), flush=True)
calls, nudges = int(sys.argv[1]), 0
for line in sys.stdin:
    row = rows[line.strip()][0]
    best = float("inf")
    for _ in range(calls):
        nudges += 1
        spec = LatticeSpec(mass=1.0 + 1e-9 * nudges)
        lattice = build_lattice(spec)
        start = time.perf_counter()
        row(spec, lattice, seed)
        best = min(best, time.perf_counter() - start)
    print(best, flush=True)
"""


def _env(src: pathlib.Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src))


def _rounds(repeat: int, n_trees: int):
    """Tree indices in run order, round by round, the first tree swapping
    every round."""
    for round_ in range(repeat):
        yield range(n_trees) if round_ % 2 == 0 else reversed(range(n_trees))


def _run(argv: list[str], cwd: str, env: dict[str, str]) -> tuple[float, float, int, str, str]:
    """One fresh interpreter: its wall time, its peak resident set size in
    MB from the rusage os.wait4 returns for it, its exit code, stdout and
    stderr.  stderr goes to a file, so the child never blocks on a full
    pipe while stdout is read."""
    with tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=env, text=True,
                                 stdout=subprocess.PIPE, stderr=err)
        with child.stdout:
            out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return seconds, usage.ru_maxrss / 1024.0, child.returncode, out, err.read()


def _best_runs(argv: list[str], repeat: int, cwd: str,
               sources) -> list[tuple[float, float, str]]:
    """Best wall time and least peak RSS (MB) of ``repeat`` fresh
    interpreters per source tree, the runs alternating between the trees,
    and each tree's last stdout.  A failure in this checkout raises; one
    in the baseline reads inf."""
    best, rss, outs = [math.inf] * len(sources), [math.inf] * len(sources), [""] * len(sources)
    failed = [False] * len(sources)
    for order in _rounds(repeat, len(sources)):
        for i in order:
            if failed[i]:
                continue
            seconds, peak, code, out, err = _run(argv, cwd, _env(sources[i]))
            if code != 0:
                if sources[i] == SRC:
                    raise RuntimeError(f"{' '.join(argv)} exited {code}:\n{err}")
                best[i], rss[i], failed[i] = math.inf, math.inf, True
                continue
            best[i], rss[i], outs[i] = min(best[i], seconds), min(rss[i], peak), out
    return list(zip(best, rss, outs))


def _header(unit: str, n_trees: int) -> str:
    if n_trees == 1:
        return f"{'best_' + unit:>8}"
    return f"{'base_' + unit:>8} {'best_' + unit:>8} {'ratio':>6}"


def _cells(times: list[float], scale: float, digits: int) -> str:
    """The best times (baseline first), and with a baseline their ratio."""
    text = [f"{scale * t:8.{digits}f}" if math.isfinite(t) else f"{'-':>8}" for t in times]
    if len(times) == 2:
        ratio = times[1] / times[0] if all(map(math.isfinite, times)) else math.nan
        text.append(f"{ratio:6.2f}" if math.isfinite(ratio) else f"{'-':>6}")
    return " ".join(text)


def _rss_header(n_trees: int) -> str:
    return f"{'peak_MB':>8}" if n_trees == 1 else f"{'base_MB':>8} {'peak_MB':>8}"


def _rss_cells(peaks: list[float]) -> str:
    return " ".join(f"{p:8.1f}" if math.isfinite(p) else f"{'-':>8}" for p in peaks)


def import_table(repeat: int, cwd: str, sources) -> None:
    modules = sorted(p.stem for p in (SRC / "boxqft").glob("*.py") if p.stem != "__init__")
    print(f"{'fresh interpreter':<28} {_header('s', len(sources))} "
          f"{_rss_header(len(sources))} {'scipy_modules':>14}")
    for label, stmt in [("pass", "pass"), ("import numpy", "import numpy")] + [
        (f"import boxqft.{name}", f"import boxqft.{name}") for name in modules
    ]:
        runs = _best_runs([sys.executable, "-c", COUNT_SCIPY.format(stmt=stmt)],
                          repeat, cwd, sources)
        scipy_modules = int(runs[-1][2].split()[-1])
        print(f"{label:<28} {_cells([t for t, _, _ in runs], 1.0, 3)} "
              f"{_rss_cells([r for _, r, _ in runs])} {scipy_modules:14d}")


def subcommand_table(repeat: int, cwd: str, sources) -> None:
    width = max(len(label) for label, _ in SUBCOMMANDS)
    print(f"\n{'subcommand (fresh interpreter)':<{width}} {_header('s', len(sources))} "
          f"{_rss_header(len(sources))}")
    for label, calls in SUBCOMMANDS:
        out = f"--out={pathlib.Path(cwd) / calls[0][0]}"
        argv = [sys.executable, "-c", CLI_CALLS, json.dumps([call + [out] for call in calls])]
        runs = _best_runs(argv, repeat, cwd, sources)
        print(f"{label:<{width}} {_cells([t for t, _, _ in runs], 1.0, 3)} "
              f"{_rss_cells([r for _, r, _ in runs])}")


def _union_in_order(tables: list[dict]) -> list[str]:
    """The row names of every tree, each once, in table order: a row one
    tree lacks goes right after the row that precedes it in its own tree."""
    merged: list[str] = []
    for table in tables:
        at = 0
        for name in table:
            if name in merged:
                at = merged.index(name) + 1
            else:
                merged.insert(at, name)
                at += 1
    return merged


def check_table(repeat: int, sources) -> None:
    workers = [
        subprocess.Popen([sys.executable, "-c", CHECK_WORKER, str(ROW_CALLS)], env=_env(src),
                         text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        for src in sources
    ]
    try:
        hellos = [json.loads(worker.stdout.readline()) for worker in workers]
        tables = [dict(hello["rows"]) for hello in hellos]
        print(f"\n{'check table row (one interpreter per tree)':<44} "
              f"{_header('ms', len(sources))}")
        sums = [0.0] * len(sources)
        for name in _union_in_order(tables):
            checks = next(table[name] for table in reversed(tables) if name in table)
            best = [math.inf] * len(sources)
            for order in _rounds(repeat, len(sources)):
                for i in order:
                    if name in tables[i]:
                        workers[i].stdin.write(name + "\n")
                        workers[i].stdin.flush()
                        best[i] = min(best[i], float(workers[i].stdout.readline()))
            sums = [s + b if math.isfinite(b) else s for s, b in zip(sums, best)]
            ids = [check.split("_", 1)[0] for check in checks]
            label = ids[0] if len(ids) == 1 else f"{ids[0]}..{ids[-1]}"
            print(f"{label + ' ' + name:<44} {_cells(best, 1e3, 3)}")
        print(f"{'sum of rows':<44} {_cells(sums, 1e3, 3)}")
        print(f"{'run_all_checks, first call (warm-up)':<44} "
              f"{_cells([hello['first'] for hello in hellos], 1e3, 1)}")
    finally:
        for worker in workers:
            worker.stdin.close()
            worker.wait()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per entry; the best is printed (default 5)")
    parser.add_argument("--baseline", type=pathlib.Path, metavar="DIR",
                        help="a second checkout whose DIR/src is timed alternately "
                             "with this one")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    sources = [SRC]
    if args.baseline is not None:
        baseline = args.baseline.resolve() / "src"
        if not (baseline / "boxqft").is_dir():
            parser.error(f"--baseline: no boxqft package under {baseline}")
        sources = [baseline, SRC]
    with tempfile.TemporaryDirectory() as cwd:
        import_table(args.repeat, cwd, sources)
        subcommand_table(args.repeat, cwd, sources)
    check_table(args.repeat, sources)


if __name__ == "__main__":
    main()
