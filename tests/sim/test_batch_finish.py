"""Edge cases of the batch finish (flush and accounting from pass state).

The batch engine finishes each config straight from its shared L1/LLC
passes instead of rebuilding a hierarchy.  Each case here is compared
against per-access :meth:`CacheHierarchy.replay` (stats *and* published
``sim.cache.*`` counters) and run with ``strict=True``, so the
conservation invariants are armed on both sides.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CACHE_LINE_BYTES, CacheConfig, SocConfig
from repro.obs import recording
from repro.sim.batch import _SharedOutcomes, _hierarchy_results, sweep_batch
from repro.sim.cache import CacheHierarchy
from repro.sim.timing import TimingSimulator
from repro.sim.trace import MemoryTrace


def make_soc(l1_bytes, l1_assoc, llc_bytes, llc_assoc) -> SocConfig:
    return SocConfig(
        l1=CacheConfig(size_bytes=l1_bytes, associativity=l1_assoc),
        l2=CacheConfig(size_bytes=llc_bytes, associativity=llc_assoc),
    )


def line_trace(accesses) -> MemoryTrace:
    """A trace from ``(line, is_write)`` pairs."""
    return MemoryTrace(
        addresses=np.array(
            [line * CACHE_LINE_BYTES for line, _ in accesses], dtype=np.uint64
        ),
        is_write=np.array([w for _, w in accesses], dtype=bool),
    )


def cache_counters(rec) -> dict:
    return {
        name: value
        for name, value in rec.counters.as_dict().items()
        if name.startswith("sim.cache.")
    }


def oracle(trace, soc, flush=True):
    """Per-access replay on a fresh hierarchy: (stats, counters)."""
    with recording() as rec:
        stats = CacheHierarchy(soc).replay(trace, flush=flush, strict=True)
    return stats, cache_counters(rec)


def batched(trace, socs, flush=True):
    """One ``sweep_batch`` over ``socs``: (stats, timings, counters)."""
    with recording() as rec:
        stats, timings = sweep_batch(trace, socs, flush=flush, strict=True)
    return stats, timings, cache_counters(rec)


def llc_snapshot(llc_pass):
    """The LLC pass's final residents: (set, tag, dirty) lists."""
    return [column.tolist() for column in llc_pass.sets]


#: Two L1 geometries (8 sets x 2 ways, 32 sets x 1 way) and a trace
#: both miss on identically: cold reads, writes to 3 fresh lines that
#: stay resident (no dirty L1 victim in either geometry), then reads
#: that push those lines out of the 4-set LLC.  The dirty lines flush in
#: a different order in each geometry (16, 9, 3 under 8 sets; 3, 9, 16
#: under 32), and every flush install misses and evicts.
SHARED_L1S = ((1024, 2), (2048, 1))
SHARED_LLC = (512, 2)


def shared_stream_trace() -> MemoryTrace:
    cold = [(100 + i, False) for i in range(32)]
    writes = [(9, True), (16, True), (3, True)]
    evict = [(line, False) for line in (20, 28, 13, 21, 7, 15)]
    return line_trace(cold + writes + evict)


class TestSharedLlcPass:
    def socs(self):
        return [make_soc(l1b, l1a, *SHARED_LLC) for l1b, l1a in SHARED_L1S]

    def test_geometries_share_one_llc_pass(self):
        trace = shared_stream_trace()
        outcomes = _SharedOutcomes(trace)
        first, second = (outcomes.l1(soc.l1) for soc in self.socs())
        assert first is not second
        assert first.stream_key == second.stream_key
        assert first.dirty_lines != second.dirty_lines  # flush order differs
        llc_cfg = self.socs()[0].l2
        assert outcomes.llc(self.socs()[0].l1, llc_cfg) is outcomes.llc(
            self.socs()[1].l1, llc_cfg
        )

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_each_config_equals_itself_alone(self, order):
        trace = shared_stream_trace()
        socs = [self.socs()[i] for i in order]
        together, timings, _ = batched(trace, socs)
        for soc, stats, timing in zip(socs, together, timings):
            alone, alone_timings, alone_counters = batched(trace, [soc])
            assert stats == alone[0]
            assert timing == alone_timings[0]
            assert (stats, alone_counters) == oracle(trace, soc)
            assert timing == TimingSimulator(soc).replay(trace)
            assert stats.l1.writebacks == 3  # the flush ran

    def test_finish_leaves_shared_pass_state_untouched(self):
        trace = shared_stream_trace()
        socs = self.socs()
        outcomes = _SharedOutcomes(trace)
        l1_passes = [outcomes.l1(soc.l1) for soc in socs]
        llc_pass = outcomes.llc(socs[0].l1, socs[0].l2)
        before = (
            llc_snapshot(llc_pass),
            llc_pass.dirty,
            [list(p.dirty_lines) for p in l1_passes],
        )
        with recording() as rec:
            first = _hierarchy_results(outcomes, socs, True, 0.0, rec, True)
            second = _hierarchy_results(outcomes, socs, True, 0.0, rec, True)
        assert first == second
        assert before == (
            llc_snapshot(llc_pass),
            llc_pass.dirty,
            [list(p.dirty_lines) for p in l1_passes],
        )


#: L1: 1 set x 4 ways; LLC: 2 sets x 1 way (set = line parity).  Lines
#: 0 and 4 end dirty in the L1 but were evicted from LLC set 0 by line
#: 2, which an L1 writeback then made dirty.  The L1 flush of 0 thus
#: evicts dirty 2 from the full LLC set, and the flush of 4 evicts the
#: dirty 0 that the flush itself installed.
DIRTY_EVICTION_SOC = (256, 4, 128, 1)
DIRTY_EVICTION_TRACE = [
    (0, True), (4, True), (2, True), (0, False), (4, False), (1, False),
    (3, False),
]


class TestFlushEvictsDirtyLlcLines:
    def test_precondition_holds_in_serial_end_state(self):
        soc = make_soc(*DIRTY_EVICTION_SOC)
        hierarchy = CacheHierarchy(soc)
        hierarchy.replay(line_trace(DIRTY_EVICTION_TRACE), flush=False)
        llc_set0 = hierarchy.llc._sets[0]
        assert list(llc_set0.items()) == [(1, True)]  # line 2, dirty, full
        l1_dirty = [tag for tag, dirty in hierarchy.l1._sets[0].items() if dirty]
        assert l1_dirty == [0, 4]  # tags: 1 set, so tag == line
        assert not hierarchy.llc.contains(0) and not hierarchy.llc.contains(4)

    def test_matches_per_access_replay(self):
        soc = make_soc(*DIRTY_EVICTION_SOC)
        trace = line_trace(DIRTY_EVICTION_TRACE)
        (stats,), (timing,), counters = batched(trace, [soc])
        assert (stats, counters) == oracle(trace, soc)
        assert timing == TimingSimulator(soc).replay(trace)
        # Two flush installs, each missing and evicting a dirty line to
        # DRAM; then the LLC flush writes back the last install.
        unflushed, _ = oracle(trace, soc, flush=False)
        assert stats.llc.accesses == unflushed.llc.accesses + 2
        assert stats.llc.misses == unflushed.llc.misses + 2
        assert stats.llc.writebacks == unflushed.llc.writebacks + 3


def no_flush_cases():
    shared = [make_soc(l1b, l1a, *SHARED_LLC) for l1b, l1a in SHARED_L1S]
    return {
        "dirty-eviction": (
            line_trace(DIRTY_EVICTION_TRACE), [make_soc(*DIRTY_EVICTION_SOC)]
        ),
        "shared-llc-pass": (shared_stream_trace(), shared),
    }


class TestNoFlush:
    @pytest.mark.parametrize("case", sorted(no_flush_cases()))
    def test_matches_per_access_replay(self, case):
        trace, socs = no_flush_cases()[case]
        stats, _, counters = batched(trace, socs, flush=False)
        expected = [oracle(trace, soc, flush=False) for soc in socs]
        assert stats == [s for s, _ in expected]
        merged = {}
        for _, one in expected:
            for name, value in one.items():
                merged[name] = merged.get(name, 0) + value
        assert counters == merged
        # The flush matters here: it adds L1 writebacks in every config.
        flushed, _, _ = batched(trace, socs)
        for got, full in zip(stats, flushed):
            assert got.l1.writebacks < full.l1.writebacks
