"""FleetExecutor semantics: the future contract ResilientMap relies on."""

from __future__ import annotations

import time

import pytest

from repro.core.resilience import ResilientMap, RetryPolicy
from repro.fleet.executor import FleetExecutor, fleet_pool_factory
from repro.fleet.wire import FleetError, FleetNoWorkersError
from repro.validate import strict_mode


def _triple(x):
    return 3 * x


def _lose(key):
    raise KeyError(key)


def _nap(seconds):
    time.sleep(seconds)
    return "rested"


FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.01, jitter=0.0)


class TestFutures:
    def test_submit_resolves_result(self, inprocess_fleet):
        executor = FleetExecutor(inprocess_fleet(1))
        try:
            assert executor.submit(_triple, 14).result(timeout=10) == 42
        finally:
            executor.shutdown()

    def test_remote_exception_is_original_type(self, inprocess_fleet):
        executor = FleetExecutor(inprocess_fleet(1))
        try:
            future = executor.submit(_lose, "token")
            with pytest.raises(KeyError, match="token"):
                future.result(timeout=10)
        finally:
            executor.shutdown()

    def test_dead_fleet_raises_no_workers_into_future(self, inprocess_fleet):
        manifest = inprocess_fleet(
            0, dead_ports=[1], probe_interval_s=1e9, poll_interval_s=0.01
        )
        executor = FleetExecutor(manifest)
        try:
            future = executor.submit(_triple, 1)
            with pytest.raises(FleetNoWorkersError):
                future.result(timeout=10)
        finally:
            executor.shutdown()

    def test_kill_aborts_inflight_poll_threads(self, inprocess_fleet):
        executor = FleetExecutor(inprocess_fleet(1))
        future = executor.submit(_nap, 30.0)
        time.sleep(0.1)  # let the job land on the worker
        executor.kill()
        with pytest.raises(FleetError, match="torn down"):
            future.result(timeout=10)
        assert executor.processes() == []
        executor.shutdown(wait=True)

    def test_one_slot_serializes_submissions(self, inprocess_fleet):
        executor = FleetExecutor(inprocess_fleet(1))
        try:
            futures = [executor.submit(_triple, n) for n in range(4)]
            assert [f.result(timeout=20) for f in futures] == [0, 3, 6, 9]
        finally:
            executor.shutdown()


class TestResilientMapIntegration:
    def test_map_over_fleet_matches_local(self, inprocess_fleet):
        factory = fleet_pool_factory(inprocess_fleet(2))
        values, failures = ResilientMap(
            _triple, [1, 2, 3, 4, 5], policy=FAST, jobs=2, pool_factory=factory
        ).run()
        assert values == [3, 6, 9, 12, 15]
        assert failures == []

    def test_dead_fleet_quarantines_instead_of_hanging(self, inprocess_fleet):
        manifest = inprocess_fleet(
            0, dead_ports=[1, 2], probe_interval_s=1e9, poll_interval_s=0.01
        )
        with strict_mode(False):
            values, failures = ResilientMap(
                _triple, [1, 2, 3], names=["a", "b", "c"], policy=FAST,
                jobs=2, pool_factory=fleet_pool_factory(manifest),
            ).run()
        assert values == [None, None, None]
        assert {f.target for f in failures} == {"a", "b", "c"}
        assert all(f.attempts == FAST.max_attempts for f in failures)
        assert all("dead" in f.error for f in failures)
