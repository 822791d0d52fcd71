"""Loopback-fleet fault suite: real worker processes, real deaths.

Every scenario asserts the ResilientMap contract holds when the "pool"
is a fleet of HTTP workers: faults degrade or retry exactly as they do
for a local process pool, and whatever survives is byte-identical to a
serial single-process run.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.cachesweep import run_sweep, sweep_all
from repro.config import CacheConfig, SocConfig
from repro.core.resilience import RetryPolicy
from repro.fleet.cache import RemoteMemoCache
from repro.fleet.executor import fleet_pool_factory
from repro.obs import recording
from repro.sim.artifact import TraceStore
from repro.validate import strict_mode

NAMES = ["tensorflow.gemm_unpacked", "chrome.compositing_linear"]
# Two distinct L1 geometries so the sharded path has >= 2 shards.
SOCS = [
    SocConfig(
        l1=CacheConfig(size_bytes=1024, associativity=2),
        l2=CacheConfig(size_bytes=4096, associativity=4),
    ),
    SocConfig(
        l1=CacheConfig(size_bytes=2048, associativity=4),
        l2=CacheConfig(size_bytes=8192, associativity=8),
    ),
]
FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.05, jitter=0.0)


def canon(document) -> str:
    return json.dumps(document, sort_keys=True)


def canon_data(documents) -> str:
    """Canon minus the ``batched`` engine-provenance flag.

    A resumed sweep honestly reports ``batched: false`` for rows loaded
    from the journal — exactly as a resumed *local* run does (the
    existing resume tests pin ``rows``, not provenance) — so resume
    comparisons cover the data: artifact, rows, failures.
    """
    return json.dumps(
        {
            name: {k: v for k, v in doc.items() if k != "batched"}
            for name, doc in documents.items()
        },
        sort_keys=True,
    )


def write_plan(tmp_path, faults: dict) -> str:
    path = tmp_path / "fault-plan.json"
    path.write_text(json.dumps({"faults": faults}))
    return str(path)


@pytest.fixture
def local_docs(tmp_path):
    """The fault-free serial ground truth for NAMES x SOCS."""
    store = TraceStore(tmp_path / "local-traces")
    return sweep_all(NAMES, socs=SOCS, store=store, jobs=1)


class TestFleetFaults:
    def test_worker_killed_mid_sweep_retries_on_sibling(
        self, tmp_path, make_fleet, local_docs
    ):
        plan = write_plan(
            tmp_path, {"tensorflow.gemm_unpacked": ["kill"]}
        )
        harness = make_fleet(2, env_extra={"REPRO_FAULT_PLAN": plan})
        store = TraceStore(tmp_path / "fleet-traces")
        with strict_mode(False), recording() as rec:
            documents = sweep_all(
                NAMES, socs=SOCS, store=store, jobs=2, retry_policy=FAST,
                pool_factory=fleet_pool_factory(harness.manifest()),
            )
            assert rec.counters.get("core.resilience.retries") >= 1
        assert canon(documents) == canon(local_docs)

    def test_whole_fleet_dead_quarantines_and_degrades(
        self, tmp_path, make_fleet
    ):
        harness = make_fleet(2)
        harness.kill_worker(0)
        harness.kill_worker(1)
        store = TraceStore(tmp_path / "fleet-traces")
        with strict_mode(False), recording() as rec:
            documents = sweep_all(
                NAMES, socs=SOCS, store=store, jobs=2, retry_policy=FAST,
                pool_factory=fleet_pool_factory(harness.manifest()),
            )
            assert rec.counters.get("core.resilience.quarantined") == len(NAMES)
        # Degraded aggregates: every workload contributes a failure
        # document instead of aborting or hanging the sweep.
        for name in NAMES:
            assert documents[name]["rows"] == []
            (failure,) = documents[name]["failures"]
            assert failure["config"] == "*"
            assert failure["attempts"] == FAST.max_attempts
            assert "dead" in failure["error"]

    def test_gateway_restart_then_resume_is_bit_identical(
        self, tmp_path, make_fleet, local_docs
    ):
        # Phase 1 quarantines one workload (its fault plan always
        # raises) while the other completes and journals.
        plan = write_plan(
            tmp_path,
            {"tensorflow.gemm_unpacked": ["raise:outage"] * FAST.max_attempts},
        )
        harness = make_fleet(2, env_extra={"REPRO_FAULT_PLAN": plan})
        store = TraceStore(tmp_path / "fleet-traces")
        checkpoint = str(tmp_path / "sweep.ckpt")
        manifest = harness.manifest()
        with strict_mode(False):
            phase1 = sweep_all(
                NAMES, socs=SOCS, store=store, jobs=2, retry_policy=FAST,
                checkpoint=checkpoint,
                pool_factory=fleet_pool_factory(manifest),
            )
        assert phase1["tensorflow.gemm_unpacked"]["rows"] == []
        assert canon(phase1["chrome.compositing_linear"]) == canon(
            local_docs["chrome.compositing_linear"]
        )

        # Restart the gateway on the same port, then resume: the
        # journaled workload replays from its checkpoint, the
        # quarantined one (fault plan now exhausted) computes fresh.
        old_port = harness.gateway[1]
        harness.kill_gateway()
        assert harness.start_gateway(port=old_port) == old_port
        with strict_mode(False), recording() as rec:
            phase2 = sweep_all(
                NAMES, socs=SOCS, store=store, jobs=2, retry_policy=FAST,
                checkpoint=checkpoint, resume=True,
                pool_factory=fleet_pool_factory(manifest),
            )
            assert rec.counters.get("core.resilience.resumed") >= 1
        assert canon_data(phase2) == canon_data(local_docs)
        # The freshly-computed workload (not resumed) still reports the
        # batch engine, like the local baseline.
        assert phase2["tensorflow.gemm_unpacked"]["batched"] is True

    def test_hung_worker_times_out_and_requeues(
        self, tmp_path, make_fleet, local_docs
    ):
        plan = write_plan(
            tmp_path, {"tensorflow.gemm_unpacked": ["hang:60"]}
        )
        harness = make_fleet(2, env_extra={"REPRO_FAULT_PLAN": plan})
        store = TraceStore(tmp_path / "fleet-traces")
        policy = RetryPolicy(
            max_attempts=3, backoff_base_s=0.05, jitter=0.0, timeout_s=3.0
        )
        with strict_mode(False), recording() as rec:
            documents = sweep_all(
                NAMES, socs=SOCS, store=store, jobs=2, retry_policy=policy,
                pool_factory=fleet_pool_factory(harness.manifest()),
            )
            assert rec.counters.get("core.resilience.timeouts") >= 1
        assert canon(documents) == canon(local_docs)

    def test_shared_cache_short_circuits_second_client(
        self, tmp_path, make_fleet, local_docs
    ):
        harness = make_fleet(2)
        gateway_url = "http://127.0.0.1:%d" % harness.gateway[1]
        store = TraceStore(tmp_path / "fleet-traces")
        name = "tensorflow.gemm_unpacked"
        factory = fleet_pool_factory(harness.manifest())

        # Client 1 computes over the fleet and publishes to the shared
        # cache at the gateway.
        with recording() as rec:
            first = run_sweep(
                name, socs=SOCS, store=store, jobs=2, retry_policy=FAST,
                cache=RemoteMemoCache(gateway_url), pool_factory=factory,
            )
            assert rec.counters.get("fleet.cache.puts") >= 1
        assert canon(first) == canon(local_docs[name])

        # Every worker dies; a second client still succeeds, because the
        # gateway's cache answers before any job is ever dispatched.
        harness.kill_worker(0)
        harness.kill_worker(1)
        with recording() as rec:
            second = run_sweep(
                name, socs=SOCS, store=store, jobs=2, retry_policy=FAST,
                cache=RemoteMemoCache(gateway_url), pool_factory=factory,
            )
            assert rec.counters.get("fleet.cache.hits") >= 1
        assert canon(second) == canon(first)
