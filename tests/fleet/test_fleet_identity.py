"""Property: a fleet sweep is byte-identical to a serial local sweep.

The loopback fleet (two real worker processes behind a gateway, spawned
once per module) is driven through the same ``sweep_all`` entry point as
a local run, over Hypothesis-drawn workload subsets, geometry grids, and
job counts.  The
contract covers the documents, the checkpoint journals the fleet writes,
and a local ``--resume`` from those journals.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cachesweep import sweep_all, workload_names
from repro.config import CacheConfig, SocConfig
from repro.core.resilience import RetryPolicy, SweepCheckpoint, sweep_key
from repro.fleet.executor import fleet_pool_factory
from repro.sim.artifact import TraceStore
from tests.fleet.conftest import FleetHarness

_L1S = [
    CacheConfig(size_bytes=1024, associativity=2),
    CacheConfig(size_bytes=2048, associativity=4),
]
_L2S = [
    CacheConfig(size_bytes=4096, associativity=4),
    CacheConfig(size_bytes=8192, associativity=8),
]
GRID = [SocConfig(l1=l1, l2=l2) for l1 in _L1S for l2 in _L2S]
FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.05, jitter=0.0)


def canon(document) -> str:
    return json.dumps(document, sort_keys=True)


def canon_data(documents) -> str:
    """Canon minus the ``batched`` engine-provenance flag.

    A fully-resumed sweep reports ``batched: false`` (rows came from the
    journal, not the batch engine) regardless of fleet vs. local, so the
    resume comparison covers the data: artifact, rows, failures.
    """
    return json.dumps(
        {
            name: {k: v for k, v in doc.items() if k != "batched"}
            for name, doc in documents.items()
        },
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def fleet2(tmp_path_factory):
    harness = FleetHarness(tmp_path_factory.mktemp("fleet-identity"))
    harness.start_worker()
    harness.start_worker()
    harness.start_gateway()
    yield harness
    harness.stop()


class TestFleetBitIdentity:
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_fleet_matches_local_and_resumes(self, fleet2, data):
        names = data.draw(
            st.lists(
                st.sampled_from(workload_names()),
                min_size=1, max_size=2, unique=True,
            ),
            label="workloads",
        )
        socs = data.draw(
            st.lists(st.sampled_from(GRID), min_size=1, max_size=3, unique=True),
            label="socs",
        )
        jobs = data.draw(st.integers(min_value=2, max_value=4), label="jobs")
        base = Path(tempfile.mkdtemp(prefix="fleet-identity-"))

        local = sweep_all(
            names, socs=socs, store=TraceStore(base / "local"), jobs=1
        )
        checkpoint = str(base / "sweep.ckpt")
        fleet = sweep_all(
            names, socs=socs, store=TraceStore(base / "fleet"),
            jobs=jobs, retry_policy=FAST, checkpoint=checkpoint,
            pool_factory=fleet_pool_factory(fleet2.manifest()),
        )
        assert canon(fleet) == canon(local)

        # The journals the fleet wrote resume a local run to the same
        # bytes — checkpoint/resume semantics are fleet-agnostic.
        resumed = sweep_all(
            names, socs=socs, store=TraceStore(base / "fleet"),
            jobs=1, retry_policy=FAST, checkpoint=checkpoint, resume=True,
            pool_factory=None,
        )
        assert canon_data(resumed) == canon_data(local)

    def test_fleet_checkpoint_matches_local_checkpoint(self, fleet2):
        """The journal entries themselves, not just the documents, agree."""
        names = [workload_names()[0]]
        # Two distinct L1 geometries, so the single-workload path shards
        # across the fleet (one shard per L1 group) instead of staying
        # in-process.
        socs = [GRID[0], GRID[3]]
        base = Path(tempfile.mkdtemp(prefix="fleet-journal-"))
        local_ckpt = str(base / "local.ckpt")
        fleet_ckpt = str(base / "fleet.ckpt")

        local = sweep_all(
            names, socs=socs, store=TraceStore(base / "local"), jobs=1,
            retry_policy=FAST, checkpoint=local_ckpt,
        )
        fleet = sweep_all(
            names, socs=socs, store=TraceStore(base / "fleet"),
            jobs=2, retry_policy=FAST, checkpoint=fleet_ckpt,
            pool_factory=fleet_pool_factory(fleet2.manifest()),
        )
        assert canon(fleet) == canon(local)

        from repro.sim.timing import TimingParameters

        # The same journal key ConfigSweep derives for this sweep.
        artifact = local[names[0]]["artifact"]
        key = "%s:%s" % (artifact, sweep_key((TimingParameters(), 2.0)))
        local_journal = SweepCheckpoint(local_ckpt, key=key)
        fleet_journal = SweepCheckpoint(fleet_ckpt, key=key)
        try:
            local_entries = local_journal.entries()
            fleet_entries = fleet_journal.entries()
        finally:
            local_journal.close()
            fleet_journal.close()
        assert local_entries
        assert canon(fleet_entries) == canon(local_entries)
