"""Dispatcher tests: weighted rotation, eviction, revival."""

from __future__ import annotations

import time

import pytest

from repro.fleet.dispatch import FleetDispatcher
from repro.fleet.manifest import FleetManifest
from repro.fleet.wire import FleetNoWorkersError
from repro.obs import recording
from tests.fleet.conftest import inprocess_manifest


def _manifest(ports_weights, **overrides):
    doc = {
        "workers": [
            {"host": "127.0.0.1", "port": port, "weight": weight}
            for port, weight in ports_weights
        ],
        "gateway": {"host": "127.0.0.1", "port": 0},
        "probe_interval_s": 0.1,
    }
    doc.update(overrides)
    return FleetManifest.from_dict(doc)


class TestWeightedRoundRobin:
    def test_equal_weights_alternate(self):
        dispatcher = FleetDispatcher(_manifest([(1, 1), (2, 1)]))
        picks = [dispatcher.pick().port for _ in range(6)]
        assert picks == [1, 2, 1, 2, 1, 2]

    def test_smooth_weighting_interleaves(self):
        # Classic smooth-WRR: weight 2:1 yields A B A, not A A B.
        dispatcher = FleetDispatcher(_manifest([(1, 2), (2, 1)]))
        picks = [dispatcher.pick().port for _ in range(6)]
        assert picks == [1, 2, 1, 1, 2, 1]
        assert picks.count(1) == 4 and picks.count(2) == 2

    def test_rotation_is_deterministic(self):
        a = FleetDispatcher(_manifest([(1, 3), (2, 2), (3, 1)]))
        b = FleetDispatcher(_manifest([(1, 3), (2, 2), (3, 1)]))
        assert [a.pick().port for _ in range(12)] == [
            b.pick().port for _ in range(12)
        ]


class TestEviction:
    def test_failed_worker_is_skipped(self):
        dispatcher = FleetDispatcher(_manifest([(1, 1), (2, 1)]))
        first = dispatcher.pick()
        dispatcher.report_failure(first)
        assert all(
            dispatcher.pick().port != first.port for _ in range(6)
        )
        assert [spec.port for spec in dispatcher.alive_workers()] != []

    def test_all_dead_raises_no_workers(self):
        # Ports point at nothing, so revival probes fail fast too.
        manifest = _manifest([(1, 1), (2, 1)], probe_interval_s=1e9)
        dispatcher = FleetDispatcher(manifest)
        with recording() as rec:
            for spec in list(dispatcher.alive_workers()):
                dispatcher.report_failure(spec)
            with pytest.raises(FleetNoWorkersError):
                dispatcher.pick()
            assert rec.counters.get("fleet.dispatch.no_workers") == 1
            assert rec.counters.get("fleet.dispatch.evicted") == 2

    def test_double_report_evicts_once(self):
        dispatcher = FleetDispatcher(_manifest([(1, 1), (2, 1)]))
        spec = dispatcher.pick()
        with recording() as rec:
            dispatcher.report_failure(spec)
            dispatcher.report_failure(spec)
            assert rec.counters.get("fleet.dispatch.evicted") == 1


class TestRevival:
    def test_restarted_worker_rejoins_after_probe_interval(self, worker_servers):
        (server,) = worker_servers(1)
        manifest = inprocess_manifest([server], probe_interval_s=0.05)
        dispatcher = FleetDispatcher(manifest)
        spec = dispatcher.pick()
        dispatcher.report_failure(spec)
        with pytest.raises(FleetNoWorkersError):
            dispatcher.pick()
        time.sleep(0.1)  # past the probe interval; /health answers again
        with recording() as rec:
            assert dispatcher.pick() == spec
            assert rec.counters.get("fleet.dispatch.revived") == 1

    def test_dead_worker_stays_dead_after_probe(self):
        manifest = _manifest([(1, 1)], probe_interval_s=0.01)
        dispatcher = FleetDispatcher(manifest)
        dispatcher.report_failure(dispatcher.pick())
        time.sleep(0.05)
        with pytest.raises(FleetNoWorkersError):
            dispatcher.pick()

    def test_version_skewed_worker_stays_evicted(self, worker_servers, monkeypatch):
        # A worker restarted on a divergent tree answers /health fine,
        # but handing it jobs would 409 every one — keep it evicted.
        (server,) = worker_servers(1)
        manifest = inprocess_manifest([server], probe_interval_s=0.05)
        dispatcher = FleetDispatcher(manifest)
        spec = dispatcher.pick()
        dispatcher.report_failure(spec)
        monkeypatch.setattr(
            "repro.fleet.dispatch.code_version_hash", lambda: "somebody-elses-tree"
        )
        time.sleep(0.1)
        with recording() as rec:
            with pytest.raises(FleetNoWorkersError):
                dispatcher.pick()
            assert rec.counters.get("fleet.dispatch.version_skew") == 1
        # Versions re-converge (e.g. the worker restarts on the synced
        # tree): the next probe revives it.
        monkeypatch.undo()
        time.sleep(0.1)
        assert dispatcher.pick() == spec

    def test_draining_worker_is_not_revived(self, worker_servers):
        (server,) = worker_servers(1, drain_grace_s=60.0)
        # Park a job so the drain keeps the server alive and answering
        # /health with draining=true for the duration of the test.
        from repro.core.memo import code_version_hash as real_hash
        from repro.fleet.wire import PROTOCOL, encode_obj, http_json

        url = "http://127.0.0.1:%d" % server.port
        status, _doc = http_json(
            "POST",
            url + "/run",
            {
                "protocol": PROTOCOL,
                "version": real_hash(),
                "init": None,
                "fn": encode_obj(time.sleep),
                "args": encode_obj((30,)),
                "kwargs": encode_obj({}),
            },
        )
        assert status == 200
        status, _doc = http_json("POST", url + "/drain", {})
        assert status == 200
        manifest = inprocess_manifest([server], probe_interval_s=0.05)
        dispatcher = FleetDispatcher(manifest)
        dispatcher.report_failure(dispatcher.pick())
        time.sleep(0.1)
        with pytest.raises(FleetNoWorkersError):
            dispatcher.pick()


class TestElasticNodes:
    def test_add_worker_joins_rotation(self):
        dispatcher = FleetDispatcher(_manifest([(1, 1)]))
        from repro.fleet.manifest import WorkerSpec

        dispatcher.add_worker(WorkerSpec(host="127.0.0.1", port=2))
        picks = [dispatcher.pick().port for _ in range(4)]
        assert sorted(set(picks)) == [1, 2]

    def test_readd_revives_and_updates_weight(self):
        from repro.fleet.manifest import WorkerSpec

        dispatcher = FleetDispatcher(_manifest([(1, 1), (2, 1)], probe_interval_s=1e9))
        spec = [s for s in dispatcher.alive_workers() if s.port == 1][0]
        dispatcher.report_failure(spec)
        assert all(dispatcher.pick().port == 2 for _ in range(3))
        # Re-registration revives immediately — no probe interval wait.
        dispatcher.add_worker(WorkerSpec(host="127.0.0.1", port=1, weight=2))
        picks = [dispatcher.pick().port for _ in range(6)]
        assert picks.count(1) == 4 and picks.count(2) == 2

    def test_remove_worker_leaves_rotation_entirely(self):
        from repro.fleet.manifest import WorkerSpec

        dispatcher = FleetDispatcher(_manifest([(1, 1), (2, 1)]))
        dispatcher.remove_worker(WorkerSpec(host="127.0.0.1", port=1))
        assert [s.port for s in dispatcher.alive_workers()] == [2]
        assert all(dispatcher.pick().port == 2 for _ in range(4))
        # Removing the last node makes the fleet empty, not revivable.
        dispatcher.remove_worker(WorkerSpec(host="127.0.0.1", port=2))
        with pytest.raises(FleetNoWorkersError):
            dispatcher.pick()

    def test_remove_unknown_worker_is_noop(self):
        from repro.fleet.manifest import WorkerSpec

        dispatcher = FleetDispatcher(_manifest([(1, 1)]))
        with recording() as rec:
            dispatcher.remove_worker(WorkerSpec(host="127.0.0.1", port=99))
            assert rec.counters.get("fleet.dispatch.removed") == 0
        assert [s.port for s in dispatcher.alive_workers()] == [1]
