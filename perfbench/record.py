"""Run the benchmark over many seeds and summarise its spread.

From the root of a boxqft checkout:

    python3 perfbench/record.py --runs 10 --sets 2 --out perfbench/trajectory/00-seed.json

For each set and workload this runs ``run.py --trace 0`` once per seed
(set ``s`` uses seeds ``1000*s + 1 .. 1000*s + runs``), one process at a
time, and then one ``--trace 1`` run per workload.  It reports, per
end-to-end metric, each set's median, quartiles and spread (the distance
between the quartiles as a share of the median), whether every spread
except that of ``setup_s`` is within the metric's bound in
``BENCHMARK.json``, and whether the second set's median is within the
bound of the first.  The wall seconds per operation and the probe's
wall seconds, which ``op_ref`` divides, are summarised the same way but
not checked.  The traced run gives the per-layer table and the share of
the operation each layer's self time takes.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
RUN_TIMEOUT_S = 600


def run_once(command, workload, seed, seconds, trace) -> tuple[dict, dict]:
    """Run the benchmark once; return its result line and its wall-time record."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(proc.stdout.strip().splitlines()[-1]), record["wall"]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def layer_shares(metrics: dict) -> dict:
    """Self time of each layer group over the traced operation's total."""
    self_times = {name[: -len(".self_s")]: m["value"]
                  for name, m in metrics.items() if name.endswith(".self_s")}
    total = sum(self_times.values())
    groups = {}
    for key, seconds in self_times.items():
        group = key.split(".")[0]
        groups[group] = groups.get(group, 0.0) + seconds
    return {
        "total_self_s": total,
        "by_module": {g: s / total for g, s in sorted(groups.items())} if total else {},
        "by_key": {k: s / total for k, s in sorted(self_times.items())} if total else {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="default: the workloads of BENCHMARK.json")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    started = time.time()

    sets = []
    for set_no in range(1, args.sets + 1):
        per_workload = {}
        for workload in workloads:
            results = []
            walls = []
            for i in range(1, args.runs + 1):
                seed = 1000 * set_no + i
                begin = time.perf_counter()
                result, wall = run_once(bench["command"], workload, seed, seconds, 0)
                results.append(result)
                walls.append(wall)
                print(f"set {set_no} {workload} seed {seed}: "
                      f"{time.perf_counter() - begin:.1f} s wall, "
                      + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                      + f", wall op_s={wall['op_s']:.6g}",
                      flush=True)
            per_workload[workload] = {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {
                    name: summarise([r["metrics"][name]["value"] for r in results])
                    for name in e2e
                },
                "wall": {
                    name: summarise([w[name] for w in walls]) for name in walls[0]
                },
            }
        sets.append(per_workload)

    verdicts = []
    for workload in workloads:
        for name, spec in e2e.items():
            for set_no, per_workload in enumerate(sets, start=1):
                spread = per_workload[workload]["metrics"][name]["spread"]
                if name != "setup_s":
                    verdicts.append({
                        "workload": workload, "metric": name, "set": set_no,
                        "test": "spread", "value": spread, "bound": spec["bound"],
                        "ok": spread <= spec["bound"],
                        "below_third": spread < spec["bound"] / 3,
                    })
            for later in range(1, len(sets)):
                change = worse_by(sets[0][workload]["metrics"][name]["median"],
                                  sets[later][workload]["metrics"][name]["median"],
                                  spec["better"])
                verdicts.append({
                    "workload": workload, "metric": name, "set": later + 1,
                    "test": "median_vs_set_1", "value": change, "bound": spec["bound"],
                    "ok": change <= spec["bound"],
                })

    traced = {}
    for workload in workloads:
        result, _ = run_once(bench["command"], workload, 1, seconds, 1)
        traced[workload] = {"result": result, "shares": layer_shares(result["metrics"])}
        print(f"traced {workload}: overhead "
              f"{result['metrics']['trace.overhead']['value']:.3f}, shares "
              + json.dumps({k: round(v, 3) for k, v in
                            traced[workload]["shares"]["by_module"].items()}),
              flush=True)

    record = {
        "label": args.label,
        "run_seconds": seconds,
        "runs_per_set": args.runs,
        "wall_s": time.time() - started,
        "sets": sets,
        "verdicts": verdicts,
        "traced": traced,
    }
    for v in verdicts:
        flag = "ok " if v["ok"] else "BAD"
        third = "" if v.get("below_third", True) else "  (above a third of the bound)"
        print(f"{flag} {v['workload']:12s} {v['metric']:13s} set {v['set']} "
              f"{v['test']:16s} {v['value']:+.4f} bound {v['bound']}{third}")
    for set_no, per_workload in enumerate(sets, start=1):
        for workload in workloads:
            wall = per_workload[workload]["wall"]["op_s"]
            print(f"    {workload:12s} wall op_s      set {set_no} spread "
                  f"{wall['spread']:+.4f} (not checked)")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(v["ok"] for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
