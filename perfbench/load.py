"""One benchmark load process: set up a workload, time its operations.

Started by ``run.py`` (never by hand) with ``PYTHONPATH`` pointing at the
program's sources::

    python3 perfbench/load.py --workload NAME --seed N --seconds S \\
        --workdir DIR [--trace-out PATH]

Protocol on standard output: the line ``ready`` right before the first
timed operation (the harness times set-up up to it), then one line
``result <json>`` at the end.  ``--seconds 0`` sets up, prints ``ready``
and tears down without timing anything.  Operations run one at a time
(a closed loop with one client); each is timed alone, and harness
bookkeeping between them is not.  Output checks run after the timed
window.  One calibration slice (``calibrate.py``) runs right before
the first operation and one after each, outside the operations' timing;
their times go with the result.  With ``--trace-out`` the program's
public calls are wrapped in spans (``tracer.py``), its own counters are
read through ``repro.obs.recorder.recording()``, and per-layer metrics
are reported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

#: Counts (simulated statistics, work done, calls) are summed over this
#: many leading operations, so that a seed fixes them exactly.
COUNTED_OPS = 8

#: Program counters reported per layer (summed over ``COUNTED_OPS``).
COUNTERS = (
    "sim.cache.trace_accesses",
    "sim.cache.llc.misses",
    "sim.cache.dram.line_reads",
    "sim.replay_batch.runs",
    "sim.replay_batch.configs",
    "core.runner.shards",
)
#: Failure counters, summed over every traced operation.
FAILURE_COUNTERS = ("core.resilience.retries", "core.resilience.quarantined")
FLEET_ROUTES = ("run", "result", "cache", "status")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def layer_metrics(tracer, counted, failures, n_ops, anchors_within, fleet):
    """Per-layer metrics ``{name: (value, unit)}`` of one traced run.

    The ``fleet.*`` metrics exist only for the fleet workload.
    """
    from repro.analysis import report

    table, op_s = tracer.layer_table()
    ops = max(n_ops, 1)
    out = {}

    def per_op(layer, metric=None):
        out[metric or layer + "_s"] = (table.get(layer, 0.0) / ops, "s/op")

    spans = [s for s in tracer.spans if s.op is not None and s.op >= 0]
    head = [s for s in spans if s.op < COUNTED_OPS]

    def arg_sum(selected, name, key):
        return sum((s.args or {}).get(key, 0) for s in selected if s.name == name)

    per_op("workloads.trace_build")
    out["workloads.trace_accesses"] = (
        arg_sum(head, "workloads.trace_build", "accesses"), "count")
    per_op("sim.artifact.get_or_build", "sim.artifact.build_s")
    per_op("sim.artifact.load")
    out["sim.artifact.bytes"] = (
        arg_sum(head, "sim.artifact.get_or_build", "bytes"), "bytes")
    per_op("sim.batch.sweep")
    maccesses = arg_sum(spans, "sim.batch.sweep", "maccesses")
    out["sim.batch.s_per_maccess"] = (
        table.get("sim.batch.sweep", 0.0) / maccesses if maccesses else 0.0,
        "s/Maccess",
    )
    for name in COUNTERS:
        out[name] = (counted.get(name, 0), "count")
    per_op("core.runner.config_sweep", "core.runner.sweep_self_s")
    per_op("core.runner.targets")
    for call in ("get", "put", "flush"):
        per_op("core.memo." + call)
    hits = [bool((s.args or {}).get("hit")) for s in spans if s.name == "core.memo.get"]
    head_hits = [
        bool((s.args or {}).get("hit")) for s in head if s.name == "core.memo.get"
    ]
    out["core.memo.hits"] = (sum(head_hits), "count")
    out["core.memo.misses"] = (len(head_hits) - sum(head_hits), "count")
    out["core.memo.hit_ratio"] = (sum(hits) / len(hits) if hits else 0.0, "fraction")
    per_op("workloads.network_functions")
    out["workloads.network_functions.calls"] = (
        sum(1 for s in head if s.name == "workloads.network_functions"), "count")
    per_op("analysis.run_sweep", "analysis.run_sweep_self_s")
    for fn in report.EXPERIMENTS:
        per_op("analysis." + fn.__name__)
    if fleet:
        calls = Counter(s.name for s in spans)
        head_calls = Counter(s.name for s in head)
        for route in FLEET_ROUTES:
            name = "fleet.http." + route
            busy = sum(s.end - s.start for s in spans if s.name == name)
            out["fleet.http_s." + route] = (busy / ops, "s/op")
            out["fleet.http_calls." + route] = (head_calls[name], "count")
        runs = calls["fleet.http.run"]
        out["fleet.result_polls_per_job"] = (
            calls["fleet.http.result"] / runs if runs else 0.0, "count")
    for name in FAILURE_COUNTERS:
        out[name] = (failures.get(name, 0), "count")
    out["unattributed_frac"] = (
        table.get("unattributed", 0.0) / op_s if op_s else 0.0, "fraction")
    out["anchors_within"] = (anchors_within or 0, "count")
    return out, table, op_s


def print_layer_table(workload, table, op_s, n_ops) -> None:
    print("layer table: %s, %d traced ops, %.4f s/op (self time on the op thread)"
          % (workload, n_ops, op_s / max(n_ops, 1)))
    for name, value in sorted(table.items(), key=lambda kv: -kv[1]):
        print("  %-44s %10.5f s/op %6.1f%%"
              % (name, value / max(n_ops, 1), 100 * value / op_s if op_s else 0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = None
    latencies, done, raised = [], [], set()
    fresh_accesses = 0
    counted, failures = Counter(), Counter()
    with contextlib.ExitStack() as cleanup:
        cleanup.callback(workload.teardown)
        workload.setup()
        with contextlib.ExitStack() as tracing:
            if args.trace_out:
                from repro.obs.recorder import recording
                from tracer import Tracer

                tracer = Tracer()
                tracing.callback(tracer.restore)
                tracer.install(args.workload)
                recorder = tracing.enter_context(recording())
            _emit("ready")
            import calibrate

            calibration = [calibrate.slice_s()] if args.seconds > 0 else []
            deadline = time.perf_counter() + args.seconds
            while args.seconds > 0 and time.perf_counter() < deadline:
                op = workload.next_op()
                output = None
                t0 = time.perf_counter()
                try:
                    if tracer is not None:
                        output = tracer.run_op(op.index, workload.run, op)
                    else:
                        output = workload.run(op)
                except Exception:
                    if not raised:
                        traceback.print_exc()
                    raised.add(op.index)
                latencies.append(time.perf_counter() - t0)
                calibration.append(calibrate.slice_s())
                done.append(op)
                if output is not None:
                    workload.finish(op, output)
                    fresh_accesses += workload.fresh_accesses(op, output)
                if tracer is not None:
                    snapshot = recorder.counters.as_dict()
                    if op.index < COUNTED_OPS:
                        counted.update({k: snapshot.get(k, 0) for k in COUNTERS})
                    failures.update(
                        {k: snapshot.get(k, 0) for k in FAILURE_COUNTERS}
                    )
                    recorder.reset()
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        wrong = workload.check([op for op in done if op.index not in raised])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "latencies_s": latencies,
        "calibration_s": calibration,
        "failed": len(raised | wrong),
        "fresh_accesses": fresh_accesses,
        "peak_rss_mb": peak_rss_mb,
        "anchors_within": getattr(workload, "anchors_within", None),
    }
    if tracer is not None:
        layers, table, op_s = layer_metrics(
            tracer, counted, failures, len(done), result["anchors_within"],
            fleet=args.workload == "sweep_fleet",
        )
        print_layer_table(args.workload, table, op_s, len(done))
        tracer.write_chrome_trace(args.trace_out)
        result["layers"] = {k: list(v) for k, v in layers.items()}
    _emit("result " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
