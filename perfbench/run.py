"""The repository benchmark: one workload per invocation, from a checkout root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``perfbench/workloads.py``): ``sweep_cold``, ``sweep_explore``,
``figures``, ``sweep_fleet``.  Each runs in its own load process
(``perfbench/load.py``), a closed loop with one client and one
operation in flight; ``sweep_fleet`` operations keep two shards in
flight on its two fleet workers.  ``sweep_fleet`` is left out of
BENCHMARK.json: the fleet client polls for results every 50 ms, which
quantizes its operation latency too coarsely for a bound; run it by
hand to compare the fleet with serial ``sweep_explore``.  All times
are host time; the end-to-end ones are normalized to a reference host
speed (below).

``--trace 0`` prints the end-to-end metrics:

* ``ops_per_s`` - operations per second of operation time;
* ``op_p50_ms``, ``op_p90_ms`` - operation latency (sample count printed);
* ``setup_s`` - launch of a load process to its first timed operation:
  imports, artifact build, fleet boot and one untimed warm-up
  operation.  Set-up runs ``SETUPS`` times (set-up-only launches and
  the measured one) and the median is reported;
* ``peak_rss_mb`` - peak resident memory of the measured load process.

The four times are normalized to a reference host speed
(``calibrate.py``): each operation by the calibration slices timed on
either side of it in the load process, each set-up by a block of slices
the harness times right before launching it.  The shared host this runs
on drifts by tens of percent within minutes, which raw wall times carry
and normalized ones cancel.  The raw wall-clock figures are printed
beside them and kept in the full record.

``--trace 1`` prints the per-layer metrics from three loads of the same
seed, ``--seconds / 3`` each: untraced, traced, untraced.  Layer times
are self seconds per operation in the traced load; counts are summed
over its first ``load.COUNTED_OPS`` operations, so a seed fixes them;
``obs.tracing_overhead_pct`` compares the traced load's normalized time
with the untraced loads' around it, over the operations all three
completed.
``imports.s`` is the median of fresh interpreters importing
``repro.cli`` with bytecode caches present.  ``sim_accesses_per_s``
(simulated accesses x freshly evaluated configs per host second) and
``failed_frac`` come from the untraced loads.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(host tag, seed, sample counts, quartiles) goes to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``, and a traced
run's spans to ``.perfbench/traces/<workload>-seed<N>.json`` (Chrome
trace format).  Everything the benchmark writes stays under
``.perfbench/`` in the checkout.  Use ``perfbench/steady.py`` to repeat
runs over seeds and summarize them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep_cold", "sweep_explore", "figures", "sweep_fleet")
SETUPS = 5
IMPORT_SAMPLES = 5
#: Every load of one invocation must have ended this many seconds after
#: it started; a load still running then is killed and the run fails.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def quartiles(values):
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _kill_group(proc) -> None:
    """SIGKILL a load process's group (fleet processes included) and reap."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


class Harness:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.base = root / ".perfbench"
        self.workdir = self.base / "work" / ("%s-seed%d-%d" % (workload, seed, os.getpid()))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["REPRO_CACHE_DIR"] = str(self.workdir / "repro-cache")
        for name in ("REPRO_STRICT", "REPRO_FAULT_PLAN", "REPRO_FLEET_SECRET",
                     "PYTHONDONTWRITEBYTECODE", "REPRO_STORE_WRITE_CHUNK"):
            self.env.pop(name, None)
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def load(self, seconds: float, name: str, trace_out=None):
        """Run one load process; returns ``(setup_s, result)``.

        ``setup_s`` is the normalized set-up time: its wall time scaled by
        a calibration block timed right before the launch.  The result
        gains ``setup_wall_s`` and ``norm_latencies_s``.
        """
        setup_cal_s = calibrate.block_s()
        argv = [
            str(HERE / "load.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--seconds", repr(seconds),
            "--workdir", str(self.workdir / name),
        ]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable] + argv, cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        # A load that overruns is killed with its process group, which
        # closes its pipe and ends the read loop below.
        watchdog = threading.Timer(
            max(self.deadline - t0, 0.0), _kill_group, (proc,)
        )
        watchdog.start()
        setup_s = result = None
        try:
            for line in proc.stdout:
                if line == "ready\n" and setup_s is None:
                    setup_s = time.monotonic() - t0
                elif line.startswith("result "):
                    result = json.loads(line[len("result "):])
                else:
                    sys.stdout.write(line)
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            _kill_group(proc)
        if code != 0 or setup_s is None or result is None:
            raise BenchError("%s load failed (exit %s)" % (name, code))
        shutil.rmtree(self.workdir / name, ignore_errors=True)
        result["setup_wall_s"] = setup_s
        result["norm_latencies_s"] = calibrate.normalized(
            result["latencies_s"], result["calibration_s"]
        )
        return setup_s * calibrate.REFERENCE_SLICE_S / setup_cal_s, result

    def imports_s(self):
        code = (
            "import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)"
        )
        samples = []
        for i in range(IMPORT_SAMPLES + 1):  # the first writes bytecode caches
            out = subprocess.run(
                [sys.executable, "-c", code], cwd=self.root, env=self.env,
                capture_output=True, text=True, check=True,
                timeout=max(self.deadline - time.monotonic(), 1.0),
            )
            if i:
                samples.append(float(out.stdout))
        return samples


def host_tag():
    tag = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        import numpy

        tag["numpy"] = numpy.__version__
    except ImportError:
        tag["numpy"] = None
    return tag


def end_to_end(setups, result, key="norm_latencies_s"):
    lat = result[key]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * deciles[4], "ms"),
        "op_p90_ms": (1e3 * deciles[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def load_summary(*results):
    ops = sum(len(r["latencies_s"]) for r in results)
    busy = sum(sum(r["latencies_s"]) for r in results)
    return {
        "sim_accesses_per_s": (
            sum(r["fresh_accesses"] for r in results) / busy if busy else 0.0, "1/s"),
        "failed_frac": (
            sum(r["failed"] for r in results) / ops if ops else 0.0, "fraction"),
    }


def overhead_pct(before, traced, after):
    """Traced time over the mean of the untraced loads around it.

    Each sum covers the operations all three loads completed (the same
    seeded operations), and the before/traced/after order cancels a
    linear drift of host speed.
    """
    n = min(len(r["latencies_s"]) for r in (before, traced, after))
    lat = "norm_latencies_s"
    base = (sum(before[lat][:n]) + sum(after[lat][:n])) / 2
    return 100.0 * (sum(traced[lat][:n]) / base - 1.0) if base else 0.0


def compare_fleet(harness, ops_per_s) -> None:
    """Report the fleet against the newest serial ``sweep_explore`` result."""
    records = sorted(
        (harness.base / "results").glob("sweep_explore-seed*-trace0.json"),
        key=lambda p: p.stat().st_mtime,
    )
    if not records:
        print("fleet vs serial: no sweep_explore result in this checkout yet")
        return
    serial = json.loads(records[-1].read_text())
    serial_ops = serial["metrics"]["ops_per_s"]["value"]
    verdict = "fleet slower than serial" if ops_per_s < serial_ops else "fleet faster than serial"
    print("%s: sweep_fleet %.3f ops/s vs sweep_explore %.3f ops/s (seed %d)"
          % (verdict, ops_per_s, serial_ops, serial["seed"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload from the checkout root."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/repro", file=sys.stderr)
        return 2

    harness = Harness(root, args.workload, args.seed)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.trace:
            record = traced_run(harness, args)
        else:
            record = untraced_run(harness, args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(harness.workdir, ignore_errors=True)

    record.update(host=host_tag(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    results = harness.base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    metrics = record["metrics"]
    for name, entry in metrics.items():
        print("%-44s %14.6g %s" % (name, entry["value"], entry["unit"]))
    if args.workload == "sweep_fleet" and not args.trace:
        compare_fleet(harness, metrics["ops_per_s"]["value"])
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def _metrics(pairs):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def untraced_run(harness, args):
    loads = [harness.load(0, "setup-%d" % i) for i in range(SETUPS - 1)]
    setup_s, result = harness.load(args.seconds, "measured")
    loads.append((setup_s, result))
    setups = [s for s, _ in loads]
    wall_setups = [r["setup_wall_s"] for _, r in loads]
    lat = result["latencies_s"]
    summary = load_summary(result)
    wall = end_to_end(wall_setups, result, key="latencies_s")
    cal = result["calibration_s"]
    print("workload %s seed %d: %d ops (%d failed), latency samples %d; "
          "setup_s samples %s"
          % (args.workload, args.seed, len(lat), result["failed"], len(lat),
             ", ".join("%.3f" % s for s in setups)))
    print("wall clock: %s; calibration slice median %.2f ms (reference %.2f ms)"
          % (", ".join("%s %.6g" % (k, v) for k, (v, _) in wall.items()
                       if k != "peak_rss_mb"),
             1e3 * statistics.median(cal), 1e3 * calibrate.REFERENCE_SLICE_S))
    print("sim_accesses_per_s %.6g, failed_frac %.4f%s"
          % (summary["sim_accesses_per_s"][0], summary["failed_frac"][0],
             ", anchors_within %d" % result["anchors_within"]
             if result["anchors_within"] is not None else ""))
    return {
        "attempted": len(lat),
        "failed": result["failed"],
        "metrics": _metrics(end_to_end(setups, result)),
        "samples": {"ops": len(lat), "setups": len(setups)},
        "setup_s_quartiles": quartiles(setups),
        "latency_ms_quartiles": [
            1e3 * q for q in quartiles(result["norm_latencies_s"])],
        "wall": _metrics(wall),
        "wall_latency_ms_quartiles": [1e3 * q for q in quartiles(lat)],
        "calibration_ms_quartiles": [1e3 * q for q in quartiles(cal)],
        "summary": _metrics(summary),
    }


def traced_run(harness, args):
    third = args.seconds / 3.0
    traces = harness.base / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_out = traces / ("%s-seed%d.json" % (args.workload, args.seed))
    _, before = harness.load(third, "reference-before")
    _, traced = harness.load(third, "traced", trace_out=trace_out)
    _, after = harness.load(third, "reference-after")
    imports = harness.imports_s()
    layers = {"imports.s": (statistics.median(imports), "s")}
    layers.update(load_summary(before, after))
    layers.update((name, tuple(v)) for name, v in traced["layers"].items())
    layers["obs.tracing_overhead_pct"] = (overhead_pct(before, traced, after), "%")
    loads = (before, traced, after)
    print("wrote %s" % trace_out.relative_to(harness.root))
    return {
        "attempted": sum(len(r["latencies_s"]) for r in loads),
        "failed": sum(r["failed"] for r in loads),
        "metrics": _metrics(layers),
        "samples": {
            "reference_ops": len(before["latencies_s"]) + len(after["latencies_s"]),
            "traced_ops": len(traced["latencies_s"]),
            "imports": len(imports),
        },
        "imports_s_quartiles": quartiles(imports),
    }


if __name__ == "__main__":
    sys.exit(main())
