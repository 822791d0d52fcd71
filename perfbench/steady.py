"""Repeat benchmark runs over seeds and summarize each metric's spread.

    python3 perfbench/steady.py --workloads sweep_cold,figures --seeds 1-10

Run from the checkout root.  For every workload it runs
``perfbench/run.py`` once per seed (one after another), then prints per
end-to-end metric the median, the quartiles and the spread - the
distance between the quartiles (``statistics.quantiles(values, n=4)``)
as a share of the median - beside the metric's bound from
``BENCHMARK.json``; a spread above a third of its bound is flagged.
``--trace 1`` summarizes the per-layer metrics instead (no bounds).
When both ``sweep_explore`` and ``sweep_fleet`` ran, their median
``ops_per_s`` are compared, and a fleet slower than serial says so.
The summary is also written to ``.perfbench/steady-<workloads>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            out = run_once(workload, seed, seconds, args.trace)
            runs.append(out)
            print("%s seed %d: attempted %d failed %d %s" % (
                workload, seed, out["attempted"], out["failed"],
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in out["metrics"].items()
                         if k in bounds)), flush=True)
        metrics = {}
        print("== %s over %d seeds (%gs runs)" % (workload, len(runs), seconds))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                flag = "  <-- above a third of its bound"
            print("  %-40s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s%s" % (
                name, median, q1, q3, share,
                "" if bound is None else " (bound %.2f)" % bound, flag))
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": share, "values": values}
        summary[workload] = {
            "metrics": metrics,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
        }
    explore, fleet = summary.get("sweep_explore"), summary.get("sweep_fleet")
    if explore and fleet and args.trace == 0:
        serial = explore["metrics"]["ops_per_s"]["median"]
        remote = fleet["metrics"]["ops_per_s"]["median"]
        print("%s: sweep_fleet %.3f ops/s vs sweep_explore %.3f ops/s (medians)" % (
            "fleet slower than serial" if remote < serial else "fleet faster than serial",
            remote, serial))
    out = Path(".perfbench") / ("steady-%s-trace%d.json" % (
        args.workloads.replace(",", "_"), args.trace))
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
