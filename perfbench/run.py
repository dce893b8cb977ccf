"""Benchmark of the boxqft command line, one workload per run.

Run from the root of a boxqft checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout and driven through
its public entry point ``boxqft.cli.main``, in this one process.  The
workload seed fixes every operation's inputs; each operation's outputs
are checked (see ``workloads.py``).  One untimed warm-up operation runs
first; once the timed loop has run for ``--seconds``, the warm-up
operation is repeated and its files must be byte-identical.

The host's CPU speed swings by a quarter and more between runs, so the
operation time is reported as ``op_ref``: each operation's wall time over
the time of a probe, a fixed piece of plain Python and numpy work timed
around its calls (see ``workloads.py``).  Wall seconds are printed and
recorded as well.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics from
the traced ones (see ``tracer.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Records of every operation, the environment and, for traced runs, the
spans are written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Check 07's dense SVDs run in OpenBLAS, so the thread count moves
# `verify` by about a third; it is fixed for every run.  With one thread
# `verify` slows and speeds with the host as the single-threaded probe
# does; with two, its op_ref spread over ten seeds was 13%, against 5%.
BLAS_THREADS = 1
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# Below this a residual of O(1) double-precision sums means nothing, and
# it keeps the headroom finite when every residual reads exactly 0.
TOL_FRAC_FLOOR = 1e-16


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="verify, emission or kernel-scan")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def fix_blas_threads() -> int:
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def measure_setup() -> list[float]:
    """Wall seconds for a fresh interpreter to import boxqft.cli.

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, which
    would quantise the reading, so the wait blocks and a timer kills a
    child that hangs.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", "import boxqft.cli"],
                                 cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"importing boxqft.cli in a fresh interpreter exited {code}")
    return times


def loaded_blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[Path(path).name] = int(getter())
                break
    return found


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    def blas_version(config):
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy.show_config(mode="dicts")),
        "scipy_blas": blas_version(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": blas_threads,
        "blas_threads_loaded": loaded_blas_threads(),
        "machine": platform.machine(),
    }


def probe_seconds() -> float:
    from workloads import probe

    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def run_calls(cli, op, op_dir: Path):
    """Run the operation's CLI calls; return (seconds, probe seconds, results).

    The probe seconds are the mean of the probe timed before each call and
    after the last, outside the timed spans.
    """
    from workloads import CallResult

    seconds = 0.0
    probes = []
    results = []
    for call in op.calls:
        probes.append(probe_seconds())
        out_dir = op_dir / call.subdir
        argv = call.argv + [f"--out={out_dir}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an uncaught error ends the real CLI with 1
                traceback.print_exc()
                code = 1
            seconds += time.perf_counter() - start
        results.append(CallResult(code, out.getvalue(), err.getvalue(), out_dir))
    probes.append(probe_seconds())
    return seconds, statistics.fmean(probes), results


def file_digests(directory: Path) -> dict[str, tuple[int, str]]:
    return {
        str(path.relative_to(directory)): (
            path.stat().st_size, hashlib.sha256(path.read_bytes()).hexdigest()
        )
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def execute(cli, op, op_dir: Path, op_id: int) -> dict:
    """Run and check one operation; a failure is recorded, never raised."""
    record = {"op": op_id, "label": op.label, "ok": False}
    try:
        record["seconds"], record["probe_s"], results = run_calls(cli, op, op_dir)
        digests = file_digests(op_dir)
        record["digests"] = digests
        record["bytes_written"] = sum(size for size, _ in digests.values())
        record["tol_frac"] = op.check(results)
        record["ok"] = True
    except Exception:  # the run goes on; the failure is counted and shown
        record["error"] = traceback.format_exc(limit=3)
        print(f"operation {op_id} failed: {op.label}\n{record['error']}", file=sys.stderr)
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)
    return record


def headroom_digits(tol_fracs: list[float]) -> float:
    """Decimal digits between the worst residual of the run and its tolerance.

    The per-operation ratios are rounding noise that moves by a factor of
    several between seeds, so the ratio itself cannot be compared across
    runs within a bound; its logarithm can, and a path that loses an
    order of magnitude of accuracy loses a whole digit.
    """
    if not tol_fracs:
        return 0.0
    return -math.log10(max(max(tol_fracs), TOL_FRAC_FLOOR))


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(records: list[dict]) -> list[dict]:
    return [r for r in records if r.get("timed") and not r.get("traced") and "seconds" in r]


def untraced_seconds(records: list[dict]) -> list[float]:
    return [r["seconds"] for r in untraced(records)]


def end_to_end_metrics(records: list[dict], setup_times: list[float]) -> dict:
    # The repeat duplicates the warm-up, so it adds no accuracy sample.
    tol_fracs = [r["tol_frac"] for r in records[:-1] if "tol_frac" in r]
    ok = sum(r["ok"] for r in records)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "op_ref": metric(
            statistics.median(r["seconds"] / r["probe_s"] for r in untraced(records)),
            "ratio"),
        "ok_frac": metric(ok / len(records), "frac"),
        "tol_digits": metric(headroom_digits(tol_fracs), "digits"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(records: list[dict], names: list[str]) -> dict:
    """Per-operation medians over the traced operations."""
    traced = [r for r in records if r.get("traced")]
    metrics = {
        name: metric(statistics.median(r["layers"][name] for r in traced),
                     "s" if name.endswith(".self_s") else "count")
        for name in names
    }
    metrics["cli.bytes_written"] = metric(
        statistics.median(r.get("bytes_written", 0) for r in traced), "B")
    metrics["trace.overhead"] = metric(
        statistics.median(r["seconds"] for r in traced if "seconds" in r)
        / statistics.median(untraced_seconds(records)), "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "boxqft" / "cli.py").is_file():
        print(f"error: no boxqft sources at {SRC}; run from a boxqft checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # The thread count must be in the environment before numpy loads OpenBLAS.
    blas_threads = fix_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    from boxqft import cli

    if Path(cli.__file__).resolve().parent != SRC / "boxqft":
        print(f"error: imported boxqft from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import METRIC_NAMES, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    setup_times = [] if args.trace else measure_setup()
    env = environment(blas_threads)
    print("environment " + json.dumps(env, sort_keys=True))

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"work-{run_name}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    ops = WORKLOADS[args.workload](np.random.default_rng(args.seed))
    records = []
    try:
        first = next(ops)
        warm = execute(cli, first, work_dir / "op0", 0)
        warm["timed"] = False
        records.append(warm)
        deadline = time.perf_counter() + args.seconds
        min_timed = 2 if args.trace else 1
        timed = 0
        while timed < min_timed or time.perf_counter() < deadline:
            op_id = len(records)
            traced = bool(args.trace) and timed % 2 == 1
            if traced:
                tracer.begin_op(op_id)
                tracer.install()
            try:
                record = execute(cli, next(ops), work_dir / f"op{op_id}", op_id)
            finally:
                if traced:
                    tracer.uninstall()
            record.update(timed=True, traced=traced)
            if traced:
                record["layers"] = tracer.op_totals()
            records.append(record)
            timed += 1
        repeat = execute(cli, first, work_dir / "repeat", len(records))
        repeat["timed"] = False
        if repeat["ok"] and repeat["digests"] != warm.get("digests"):
            repeat["ok"] = False
            repeat["error"] = "repeated operation wrote different bytes"
            print(f"determinism failed: {first.label}", file=sys.stderr)
        records.append(repeat)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    wall = {"op_s": statistics.median(untraced_seconds(records)),
            "probe_s": statistics.median(r["probe_s"] for r in untraced(records))}
    print(f"wall: op_s {wall['op_s']:.4f} s, probe_s {wall['probe_s']:.6f} s")
    if args.trace:
        metrics = layer_metrics(records, METRIC_NAMES)
    else:
        metrics = end_to_end_metrics(records, setup_times)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for record in records:
        record.pop("digests", None)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    summary = {"args": vars(args), "environment": env, "setup_times": setup_times,
               "wall": wall, "operations": records, "result": result}
    (OUT_DIR / f"{run_name}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if tracer is not None:
        (OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(tracer.span_table(), separators=(",", ":")) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
