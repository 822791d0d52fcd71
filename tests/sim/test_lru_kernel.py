"""Differential tests of the batch engine's LRU kernel.

:func:`repro.sim.batch._lru` computes one geometry's LRU outcomes for a
whole access stream at once: per access a hit or a miss, each evicting
miss's victim and its dirty bit, and the final contents.  Every case
here replays the same stream through per-access :meth:`Cache.access`
and requires all of it to match exactly.  The last cases check what the
L1 and LLC passes build from the kernel: the LLC event order and the
LLC's final contents.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CACHE_LINE_BYTES, CacheConfig, SocConfig
from repro.sim import batch
from repro.sim.batch import _SharedOutcomes, _chain, _lru
from repro.sim.cache import Cache, CacheHierarchy
from repro.sim.trace import MemoryTrace


def cache_config(num_sets, assoc) -> CacheConfig:
    return CacheConfig(
        size_bytes=num_sets * assoc * CACHE_LINE_BYTES, associativity=assoc
    )


def reference(lines, writes, num_sets, assoc):
    """``(miss, evictions, final)`` from per-access ``Cache.access``.

    ``evictions`` holds ``(access index, victim line, victim dirty)``;
    ``final`` holds ``(set, tag, dirty)``, sets ascending and LRU to MRU
    within a set.
    """
    cache = Cache(cache_config(num_sets, assoc))
    miss, evictions = [], []
    for i, (line, write) in enumerate(zip(lines, writes)):
        hit, victim = cache.access(line, write)
        miss.append(not hit)
        if victim is not None:
            evictions.append((i, *victim))
    final = [
        (set_idx, tag, dirty)
        for set_idx, lines_in_set in enumerate(cache._sets)
        for tag, dirty in lines_in_set.items()
    ]
    return miss, evictions, final


def kernel(lines, writes, num_sets, assoc):
    """The kernel's outcomes in :func:`reference`'s form."""
    lines = np.asarray(lines, dtype=np.int64)
    flags = np.asarray(writes, dtype=bool)
    miss, evict_at, victims, victim_dirty, residents, resident_dirty = _lru(
        lines, flags if flags.any() else None, _chain(lines), num_sets, assoc
    )
    evictions = sorted(
        zip(evict_at.tolist(), victims.tolist(), victim_dirty.tolist())
    )
    final = [
        (line % num_sets, line // num_sets, dirty)
        for line, dirty in zip(residents.tolist(), resident_dirty.tolist())
    ]
    return miss.tolist(), evictions, final


def assert_matches(lines, writes, num_sets, assoc):
    expected = reference(lines, writes, num_sets, assoc)
    assert kernel(lines, writes, num_sets, assoc) == expected
    return expected


def random_stream(seed, n, num_lines, write_share=0.3):
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, num_lines, size=n).tolist()
    writes = (rng.random(n) < write_share).tolist()
    return lines, writes


class TestReuseWindows:
    """Windows resolved by the sliding test and by chunked counting."""

    @pytest.mark.parametrize("assoc", [2, 4, 8])
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_long_window_with_few_distinct_lines(self, assoc, extra):
        # Line 0, then a window of length >> 2*assoc that cycles over
        # assoc - 1 lines (repeats start inside the first assoc
        # positions), then `extra` fresh lines, then line 0 again: the
        # window holds assoc - 1 + extra distinct lines, so the reuse
        # hits iff extra == 0.  Line 99 comes first so the set holds
        # more than assoc lines in every case.
        filler = [1 + i % (assoc - 1 or 1) for i in range(40 * assoc)]
        fresh = [100 + i for i in range(extra)]
        lines = [99, 0] + filler + fresh + [0]
        writes = [i % 7 == 0 for i in range(len(lines))]
        miss, _, _ = assert_matches(lines, writes, 1, assoc)
        assert miss[-1] == (assoc - 1 + extra >= assoc)

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    def test_exactly_assoc_distinct_lines(self, assoc):
        # Every reuse window holds exactly `assoc` other lines: all miss.
        lines = [i % (assoc + 1) for i in range(20 * (assoc + 1))]
        miss, _, _ = assert_matches(lines, [False] * len(lines), 1, assoc)
        assert all(miss)
        # One line fewer and every reuse hits.
        lines = [i % assoc for i in range(20 * assoc)]
        miss, _, _ = assert_matches(lines, [False] * len(lines), 1, assoc)
        assert sum(miss) == assoc

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_small_counting_budget(self, monkeypatch, budget):
        monkeypatch.setattr(batch, "_COUNT_BUDGET", budget)
        rng = np.random.default_rng(budget)
        hot = rng.integers(0, 4, size=3000)
        cold = rng.integers(4, 40, size=3000)
        lines = np.where(rng.random(3000) < 0.9, hot, cold).tolist()
        writes = (rng.random(3000) < 0.1).tolist()
        for num_sets, assoc in ((1, 4), (1, 8), (2, 4), (4, 2)):
            assert_matches(lines, writes, num_sets, assoc)


class TestGeometries:
    @pytest.mark.parametrize("num_sets,assoc", [(1, 1), (1, 3), (4, 1), (1, 16)])
    def test_degenerate_geometries(self, num_sets, assoc):
        for seed in range(4):
            lines, writes = random_stream(seed, 600, 12)
            assert_matches(lines, writes, num_sets, assoc)

    def test_more_than_65536_sets(self):
        num_sets = 1 << 17
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 4 * num_sets, size=4000)
        # Reuse some lines, including ones in sets above 65535.
        lines[2000:] = lines[rng.integers(0, 2000, size=2000)]
        writes = (rng.random(4000) < 0.3).tolist()
        _, evictions, _ = assert_matches(lines.tolist(), writes, num_sets, 1)
        assert any(line % num_sets >= 65536 for _, line, _ in evictions)

    def test_read_only_stream(self):
        lines, _ = random_stream(9, 800, 30)
        _, evictions, final = assert_matches(lines, [False] * 800, 2, 4)
        assert evictions and not any(dirty for *_, dirty in evictions)
        assert not any(dirty for *_, dirty in final)


class TestShortStreams:
    def test_empty_stream(self):
        assert kernel([], [], 4, 2) == ([], [], [])

    @pytest.mark.parametrize("write", [False, True])
    def test_one_run(self, write):
        assert assert_matches([5], [write], 4, 2) == ([True], [], [(1, 1, write)])

    def test_empty_trace_through_the_passes(self):
        trace = MemoryTrace(
            addresses=np.zeros(0, dtype=np.uint64),
            is_write=np.zeros(0, dtype=bool),
        )
        outcomes = _SharedOutcomes(trace)
        l1_pass = outcomes.l1(cache_config(2, 2))
        llc_pass = outcomes.llc(cache_config(2, 2), cache_config(4, 2))
        assert (l1_pass.acc, l1_pass.miss, l1_pass.ev_lines.size) == (0, 0, 0)
        assert (llc_pass.acc, llc_pass.fetch_hits.size, llc_pass.dirty) == (0, 0, 0)


@settings(max_examples=60)
@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 63), st.booleans()), max_size=3000
    ),
    num_sets=st.sampled_from([1, 2, 4, 8]),
    assoc=st.sampled_from([1, 2, 3, 4, 8]),
)
def test_matches_per_access_cache(accesses, num_sets, assoc):
    lines = [line for line, _ in accesses]
    writes = [write for _, write in accesses]
    assert_matches(lines, writes, num_sets, assoc)


def line_trace(accesses) -> MemoryTrace:
    """A trace from ``(line, is_write)`` pairs."""
    return MemoryTrace(
        addresses=np.array(
            [line * CACHE_LINE_BYTES for line, _ in accesses], dtype=np.uint64
        ),
        is_write=np.array([w for _, w in accesses], dtype=bool),
    )


class TestPasses:
    def test_writeback_precedes_the_fetch_that_evicts(self):
        # 1 set x 1 way: the read of line 1 evicts dirty line 0, and the
        # read of line 2 evicts clean line 1.
        trace = line_trace([(0, True), (1, False), (2, False)])
        l1_pass = _SharedOutcomes(trace).l1(cache_config(1, 1))
        assert l1_pass.ev_lines.tolist() == [0, 0, 1, 2]
        assert l1_pass.ev_is_wb.tolist() == [False, True, False, False]
        assert l1_pass.fetch_runs.tolist() == [0, 1, 2]
        assert (l1_pass.miss, l1_pass.wb, l1_pass.dirty_lines) == (3, 1, ())

    @pytest.mark.parametrize("seed", range(6))
    def test_llc_final_state_per_set(self, seed):
        rng = np.random.default_rng(seed)
        accesses = list(
            zip(
                rng.integers(0, 96, size=1500).tolist(),
                (rng.random(1500) < 0.4).tolist(),
            )
        )
        trace = line_trace(accesses)
        soc = SocConfig(l1=cache_config(2, 2), l2=cache_config(8, 4))
        hierarchy = CacheHierarchy(soc)
        hierarchy.replay(trace, flush=False)
        expected = [
            (set_idx, tag, dirty)
            for set_idx, lines_in_set in enumerate(hierarchy.llc._sets)
            for tag, dirty in lines_in_set.items()
        ]
        llc_pass = _SharedOutcomes(trace).llc(soc.l1, soc.l2)
        assert list(zip(*(column.tolist() for column in llc_pass.sets))) == expected
        assert llc_pass.dirty == sum(dirty for *_, dirty in expected)
        assert any(dirty for *_, dirty in expected)

    def test_pass_state_is_read_only(self):
        trace = line_trace([(i % 11, i % 3 == 0) for i in range(200)])
        outcomes = _SharedOutcomes(trace)
        l1_pass = outcomes.l1(cache_config(2, 2))
        llc_pass = outcomes.llc(cache_config(2, 2), cache_config(2, 2))
        arrays = [l1_pass.ev_lines, l1_pass.ev_is_wb, l1_pass.fetch_runs]
        arrays += [llc_pass.fetch_hits, *llc_pass.sets]
        for array in arrays:
            with pytest.raises(ValueError):
                array[:1] = 0
