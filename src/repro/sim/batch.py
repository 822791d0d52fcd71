"""Config-batched replay: N cache configurations over one trace, one pass.

A design-space sweep replays the *same* run stream under many cache
geometries.  The serial path (:meth:`repro.sim.cache.CacheHierarchy.
replay_fast`) costs one full Python-level loop over the trace per
configuration; this module factors that work by what actually differs
between configurations:

* **L1 pass** — the L1's behaviour depends only on its own geometry
  (sets x ways), so configs sharing an L1 geometry share one pass over
  the :meth:`repro.sim.trace.MemoryTrace.line_runs` stream.  The pass
  records the *LLC event stream* it induces: for every L1 miss, an
  optional dirty-victim writeback-install followed by the line fetch.
* **LLC pass** — each (L1 stream, LLC geometry) pair replays only that
  event stream, which is as long as the L1 miss traffic, not the trace.
* **One LRU kernel** — both passes are :func:`_lru`, an exact NumPy
  computation of a stream's LRU outcomes (misses, victims, dirty bits,
  final contents) from each access's previous and next access to its
  line, without stepping through the stream (Mattson-style stack
  reasoning).  It shares no code with the serial ``replay_fast`` loops,
  which stay the independent oracle.
* **Timing** — the event-driven model's cache state evolves through the
  same ``Cache.access`` sequence as the hierarchy replay, so its
  per-event outcomes (L1 hit / LLC hit / DRAM miss) are exactly the
  passes above.  Runs between latency events only accumulate integer
  issue gaps, so the ``pending`` value at each event is a prefix-sum
  difference over the shared run counts; the per-config loop touches
  only latency events, with the *same float expressions in the same
  order* as the serial engine.  The loop is cached by exactly what it
  reads — the L1 stream, the fetches' LLC outcomes and the timing
  constants — so LLC geometries with the same outcomes share it.

After the passes each config finishes straight from its shared pass
state (:func:`_finish_config`), without building a
:class:`~repro.sim.cache.CacheHierarchy` and without mutating the
passes, which other configs and the timing engine share (their
arrays are read-only).  Its strict conservation checks and
``sim.cache.*`` counters go through ``CacheHierarchy._account``, the
same code the serial ``_finish`` runs.
:func:`replay_batch` and :func:`replay_timing_batch` are bit-identical
per config to serial ``replay_fast`` (property-tested in
``tests/sim/test_replay_batch.py``).  :func:`sweep_batch` evaluates both
engines from one set of shared passes — the sweep executor's fast path.

Counters: each batch publishes ``sim.replay_batch.batches`` /
``.configs`` / ``.runs``, plus ``.shared_trace_hits`` (config
evaluations that reused an already-materialized run stream — a memoized
trace or a loaded artifact).  Per-config ``sim.cache.*`` /
``sim.timing.*`` counters are identical to a serial sweep's; the
differential test in ``tests/sim/test_replay_equivalence.py`` pins
this.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque

import numpy as np

from repro.obs.recorder import get_recorder
from repro.sim.cache import CacheHierarchy, CacheStats, HierarchyStats
from repro.sim.timing import TimingParameters, TimingResult, TimingSimulator
from repro.sim.trace import MemoryTrace
from repro.validate.strict import invariant, resolve_strict


def _line_runs_for_batch(trace: MemoryTrace):
    """The trace's run columns as int64 lines, plus a shared-memo flag."""
    shared = bool(getattr(trace, "_line_runs_cache", None))
    run_lines, run_counts, run_writes = trace.line_runs()
    if run_lines.size and int(run_lines.max()) > np.iinfo(np.int64).max:
        raise ValueError(
            "replay_batch requires line addresses < 2**63; "
            "use the serial replay for exotic address spaces"
        )
    return run_lines.astype(np.int64), run_counts, run_writes, shared


def _publish_batch(recorder, n, num_runs, shared) -> None:
    if not recorder.enabled:
        return
    counters = recorder.counters
    counters.add("sim.replay_batch.batches", 1)
    counters.add("sim.replay_batch.configs", n)
    counters.add("sim.replay_batch.runs", num_runs)
    if shared:
        counters.add("sim.replay_batch.shared_trace_hits", n)


#: Element budget of one counting round in :func:`_count_misses`; bounds
#: the round's temporaries, not its result.
_COUNT_BUDGET = 1 << 20


def _frozen(*arrays):
    """Mark shared arrays read-only: geometries, configs and engines
    share chains and pass state, so a stray write must raise."""
    for array in arrays:
        array.flags.writeable = False


def _chain(lines: np.ndarray):
    """Each access's previous and next access to the same line.

    Returns ``(by_line, prev, nxt)``: ``by_line`` lists the positions
    grouped by line, in time order within a line; ``prev``/``nxt`` hold
    a position or ``-1``.  It depends only on the stream, so every
    geometry replaying that stream shares it.
    """
    by_line = np.argsort(lines, kind="stable")
    grouped = lines[by_line]
    same = grouped[1:] == grouped[:-1]
    earlier = by_line[:-1][same]
    later = by_line[1:][same]
    prev = np.full(lines.size, -1, dtype=np.int64)
    nxt = np.full(lines.size, -1, dtype=np.int64)
    prev[later] = earlier
    nxt[earlier] = later
    _frozen(by_line, prev, nxt)
    return by_line, prev, nxt


def _rank_in_group(keys: np.ndarray) -> np.ndarray:
    """Each element's index within its run of equal keys."""
    at = np.arange(keys.size)
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return at - np.maximum.accumulate(np.where(starts, at, 0))


def _window_max(values: np.ndarray, width: int) -> np.ndarray:
    """``out[i] = max(values[i:i + width])`` for every full window."""
    out, span = values, 1
    while 2 * span <= width:
        out = np.maximum(out[:-span], out[span:])
        span *= 2
    if span < width:
        out = np.maximum(out[: span - width], out[width - span:])
    return out


def _count_misses(prev_s, ends, starts, assoc, miss_s) -> None:
    """Resolve reuse windows by counting their new lines, chunk by chunk.

    The reuse at ``ends[i]`` of the line last touched at ``starts[i]``
    misses iff at least ``assoc`` positions in between are the first
    access of their line since ``starts[i]``.  Each window is scanned in
    chunks that double in size until the count reaches ``assoc`` (a
    miss) or the window ends (a hit).
    """
    cur = starts + 1
    found = np.zeros(ends.size, dtype=np.int64)
    step = assoc
    live = np.ones(ends.size, dtype=bool)
    while True:
        ends, starts, cur, found = ends[live], starts[live], cur[live], found[live]
        if not ends.size:
            return
        step = min(2 * step, max(assoc, _COUNT_BUDGET // ends.size))
        stop = np.minimum(cur + step, ends)
        length = stop - cur
        offset = np.cumsum(length) - length
        flat = np.arange(int(offset[-1] + length[-1])) + np.repeat(
            cur - offset, length
        )
        fresh = np.concatenate(
            ([0], np.cumsum(prev_s[flat] < np.repeat(starts, length)))
        )
        found = found + fresh[offset + length] - fresh[offset]
        over = found >= assoc
        miss_s[ends[over]] = True
        live = ~over & (stop < ends)
        cur = stop


def _lru(lines, writes, chain, num_sets: int, assoc: int):
    """Exact write-back LRU over one access stream, without simulating it.

    ``lines`` are the accessed lines in time order, ``writes`` their
    write flags (``None`` for a stream without writes) and ``chain`` is
    :func:`_chain` of ``lines``.  Per access this equals ``Cache.access``
    on a cold cache of ``num_sets`` x ``assoc``: a write, or a miss
    filled by a write, leaves the line dirty.  Returns ``(miss,
    evict_at, victims, victim_dirty, residents, resident_dirty)``:
    whether each access missed; the accesses whose miss evicted a line,
    with that line and its dirty bit; and the final contents, sets
    ascending and LRU to MRU within a set, with their dirty bits.

    Works in set-stable order, where each set's accesses are contiguous
    and in time order.  A reuse of a line last touched at ``p`` misses
    iff its set saw ``assoc`` distinct other lines since ``p``; those
    are the positions in the window whose own previous access is before
    ``p``.  LRU evicts a set's lines in the order their residencies end
    (at their last access before the eviction), so the k-th evicting
    miss of a set (its misses after the first ``assoc``) evicts the
    set's k-th ended residency that is not still resident at the end.
    A residency is dirty iff a write falls between its filling miss and
    its last access.
    """
    n = lines.size
    by_line, prev, nxt = chain
    set_of = lines % num_sets
    key = set_of.astype(np.uint16) if num_sets <= 65536 else set_of
    order = np.argsort(key, kind="stable")
    sorted_sets = set_of[order]
    rank = np.empty(n + 1, dtype=np.int64)
    rank[order] = np.arange(n)
    rank[n] = -1  # prev/nxt == -1 maps to -1
    prev_s = rank[prev[order]]

    # Reuses hit if their window has fewer than assoc positions or their
    # set never holds more than assoc lines; a window whose first assoc
    # positions are all new lines misses.
    miss_s = prev_s < 0
    far = np.flatnonzero(~miss_s & (prev_s < np.arange(n) - assoc))
    crowded = np.bincount(set_of[prev < 0], minlength=num_sets) > assoc
    far = far[crowded[sorted_sets[far]]]
    if far.size:
        start = prev_s[far]
        new = _window_max(prev_s, assoc)[start + 1] < start
        miss_s[far[new]] = True
        _count_misses(prev_s, far[~new], start[~new], assoc, miss_s)

    fills = np.flatnonzero(miss_s)
    evicting = fills[_rank_in_group(sorted_sets[fills]) >= assoc]
    lasts = np.flatnonzero(nxt[order] < 0)
    resident = _rank_in_group(sorted_sets[lasts][::-1])[::-1] < assoc
    ended = np.zeros(n, dtype=bool)
    refills = prev_s[fills]
    ended[refills[refills >= 0]] = True
    ended[lasts[~resident]] = True
    victims = order[np.flatnonzero(ended)]
    residents = order[lasts[resident]]

    miss = np.empty(n, dtype=bool)
    miss[order] = miss_s
    if writes is None:
        victim_dirty = np.zeros(victims.size, dtype=bool)
        resident_dirty = np.zeros(residents.size, dtype=bool)
    else:
        at = np.arange(n)
        fill = np.maximum.accumulate(np.where(miss[by_line], at, 0))
        written = np.concatenate(([0], np.cumsum(writes[by_line])))
        dirty = np.empty(n, dtype=bool)
        dirty[by_line] = written[1:] > written[fill]
        victim_dirty = dirty[victims]
        resident_dirty = dirty[residents]
    return (
        miss, order[evicting], lines[victims], victim_dirty,
        lines[residents], resident_dirty,
    )


class _L1Pass:
    """One distinct L1 geometry's replay of the shared run stream.

    The LLC event stream it induces is ``ev_lines`` with ``ev_is_wb``:
    per L1 miss, the dirty victim's writeback-install (if any) and then
    the line fetch; ``fetch_runs`` are the missing runs.
    ``stream_key`` fingerprints that stream: two L1 geometries whose
    streams collide — common in sweeps, e.g. every geometry too small
    for the working set misses identically — share LLC passes and
    timing event loops downstream.  ``dirty_lines`` are the lines still
    dirty at the end, in serial flush order (sets ascending, LRU to MRU
    in a set).  Its arrays are read-only.
    """

    __slots__ = (
        "acc", "hits", "miss", "wb", "dirty_lines", "ev_lines", "ev_is_wb",
        "fetch_runs", "stream_key",
    )


class _LlcPass:
    """One (L1 stream, LLC geometry) pair's replay of the event stream.

    ``sets`` is the final contents as sorted read-only arrays ``(set,
    tag, dirty)``, LRU to MRU within a set; ``dirty`` counts the dirty
    lines among them.  ``fetch_hits`` is each fetch event's LLC outcome
    and ``hits_key`` its digest.
    """

    __slots__ = (
        "acc", "hits", "miss", "wb", "dram_reads", "dram_writes", "sets",
        "dirty", "fetch_hits", "hits_key",
    )


class _SharedOutcomes:
    """Memoized per-geometry passes over one trace's run stream.

    Every batched entry point builds one of these; configs sharing an L1
    geometry share its :class:`_L1Pass`, and each (L1 stream, LLC
    geometry) pair shares its :class:`_LlcPass` — including between the
    hierarchy and timing engines inside :func:`sweep_batch`, whose
    cache state evolves identically.
    """

    def __init__(self, trace: MemoryTrace):
        self.run_lines, self.run_counts, self.run_writes, self.shared = (
            _line_runs_for_batch(trace)
        )
        self.num_accesses = len(trace)
        self.num_runs = int(self.run_lines.shape[0])
        self._l1 = {}
        self._llc = {}
        self._chains = {}
        self._pendings = {}
        self._prefix = None

    @staticmethod
    def _key(cfg):
        return (cfg.num_sets, cfg.associativity)

    def l1(self, cfg) -> _L1Pass:
        key = self._key(cfg)
        pass_ = self._l1.get(key)
        if pass_ is None:
            pass_ = self._l1[key] = self._run_l1(cfg.num_sets, cfg.associativity)
        return pass_

    def llc(self, l1_cfg, llc_cfg) -> _LlcPass:
        l1_pass = self.l1(l1_cfg)
        key = (l1_pass.stream_key, self._key(llc_cfg))
        pass_ = self._llc.get(key)
        if pass_ is None:
            pass_ = self._llc[key] = self._run_llc(
                l1_pass, llc_cfg.num_sets, llc_cfg.associativity
            )
        return pass_

    def _chain_of(self, key, lines):
        """Memoized :func:`_chain`: key ``None`` is the run stream, an L1
        ``stream_key`` that pass's event stream."""
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = _chain(lines)
        return chain

    def _run_l1(self, num_sets: int, assoc: int) -> _L1Pass:
        """The L1 over the run stream, recording induced LLC events.

        One lookup per run, as in ``CacheHierarchy._replay_line_runs``;
        a run's other accesses are hits.  On a miss the dirty victim's
        writeback-install event comes *before* the fetch event.
        """
        lines = self.run_lines
        writes = self.run_writes if self.run_writes.any() else None
        miss, evict_at, victims, victim_dirty, residents, resident_dirty = _lru(
            lines, writes, self._chain_of(None, lines), num_sets, assoc
        )
        fetch_runs = np.flatnonzero(miss)
        writeback = np.full(lines.size, -1, dtype=np.int64)
        writeback[evict_at[victim_dirty]] = victims[victim_dirty]
        writeback = writeback[fetch_runs]
        has_wb = writeback >= 0
        slot = np.arange(fetch_runs.size) + np.cumsum(has_wb)
        wb_slot = slot[has_wb] - 1
        ev_lines = np.empty(fetch_runs.size + wb_slot.size, dtype=np.int64)
        ev_lines[slot] = lines[fetch_runs]
        ev_lines[wb_slot] = writeback[has_wb]
        ev_is_wb = np.zeros(ev_lines.size, dtype=bool)
        ev_is_wb[wb_slot] = True
        _frozen(ev_lines, ev_is_wb, fetch_runs)
        pass_ = _L1Pass()
        pass_.acc = int(self.run_counts.sum())
        pass_.miss = int(fetch_runs.size)
        pass_.hits = pass_.acc - pass_.miss
        pass_.wb = int(wb_slot.size)
        pass_.dirty_lines = tuple(residents[resident_dirty].tolist())
        pass_.ev_lines, pass_.ev_is_wb = ev_lines, ev_is_wb
        pass_.fetch_runs = fetch_runs
        digest = hashlib.blake2b(ev_lines.tobytes(), digest_size=16)
        digest.update(np.packbits(ev_is_wb).tobytes())
        digest.update(fetch_runs.tobytes())
        pass_.stream_key = digest.digest()
        return pass_

    def _run_llc(self, l1_pass: _L1Pass, num_sets: int, assoc: int) -> _LlcPass:
        """The LLC over one L1 event stream.

        Writeback-installs are writes (write-allocate: the install is
        dirty and the fill a DRAM read); fetches install clean.  Every
        miss reads a line from DRAM and every dirty victim writes one
        back.  Per fetch the LLC hit outcome is kept for the timing
        engine.
        """
        lines = l1_pass.ev_lines
        writes = l1_pass.ev_is_wb if l1_pass.wb else None
        miss, _, _, victim_dirty, residents, resident_dirty = _lru(
            lines, writes, self._chain_of(l1_pass.stream_key, lines),
            num_sets, assoc,
        )
        fetch_hits = ~miss[~l1_pass.ev_is_wb]
        sets = (residents % num_sets, residents // num_sets, resident_dirty)
        _frozen(fetch_hits, *sets)
        pass_ = _LlcPass()
        pass_.acc = int(lines.size)
        pass_.miss = pass_.dram_reads = int(np.count_nonzero(miss))
        pass_.hits = pass_.acc - pass_.miss
        pass_.wb = pass_.dram_writes = int(np.count_nonzero(victim_dirty))
        pass_.sets = sets
        pass_.dirty = int(np.count_nonzero(resident_dirty))
        pass_.fetch_hits = fetch_hits
        pass_.hits_key = hashlib.blake2b(
            np.packbits(fetch_hits).tobytes(), digest_size=16
        ).digest()
        return pass_

    def pendings(self, l1_cfg):
        """Issue-gap counts at each fetch event, plus the final pending.

        Between latency events every run is an L1 hit contributing its
        whole ``count``, and an event run contributes ``+1`` before and
        ``count - 1`` after materialization, so pending at event *e* in
        run ``E[e]`` telescopes to ``prefix[E[e]] - prefix[E[e-1]]``
        (``prefix`` the exclusive cumulative sum of run counts, with
        ``prefix[E[0]] + 1`` for the first event) — the exact integer
        sequence the serial loop materializes.
        """
        l1_pass = self.l1(l1_cfg)
        key = l1_pass.stream_key
        cached = self._pendings.get(key)
        if cached is None:
            if self._prefix is None:
                self._prefix = np.concatenate(
                    ([0], np.cumsum(self.run_counts, dtype=np.int64))
                )
            prefix = self._prefix
            fetch_runs = l1_pass.fetch_runs
            total = int(prefix[-1])
            if not fetch_runs.size:
                cached = ([], total)
            else:
                at_event = prefix[fetch_runs]
                pend = np.empty(fetch_runs.size, dtype=np.int64)
                pend[0] = at_event[0] + 1
                pend[1:] = at_event[1:] - at_event[:-1]
                cached = (pend.tolist(), total - int(at_event[-1]) - 1)
            self._pendings[key] = cached
        return cached


def _finish_config(
    soc, l1_pass, llc_pass, num_accesses, flush, instructions_hint,
    recorder, strict,
) -> HierarchyStats:
    """One config's stats, finished straight from its shared passes.

    Equals ``CacheHierarchy._finish`` on the serial end state.  The L1
    flush installs the L1 pass's dirty lines, in serial flush order,
    write-allocate into copies of the LLC sets they touch, each built
    from that set's slice of the LLC pass's final-resident arrays; the
    LLC flush then writes back every line still dirty, counted as the
    LLC pass's ``dirty`` corrected by the touched sets.  The pass
    objects are shared between configs and engines, so they are only
    read.
    """
    l1_wb = l1_pass.wb
    llc_acc, llc_hits, llc_miss, llc_wb = (
        llc_pass.acc, llc_pass.hits, llc_pass.miss, llc_pass.wb,
    )
    dram_reads, dram_writes = llc_pass.dram_reads, llc_pass.dram_writes
    if flush:
        num_sets, assoc = soc.l2.num_sets, soc.l2.associativity
        res_sets, res_tags, res_dirty = llc_pass.sets
        touched = {}
        dirty = llc_pass.dirty
        l1_wb += len(l1_pass.dirty_lines)
        for line in l1_pass.dirty_lines:
            set_idx = line % num_sets
            tag = line // num_sets
            od = touched.get(set_idx)
            if od is None:
                lo, hi = np.searchsorted(res_sets, (set_idx, set_idx + 1))
                od = touched[set_idx] = OrderedDict(
                    zip(res_tags[lo:hi].tolist(), res_dirty[lo:hi].tolist())
                )
            llc_acc += 1
            if tag in od:
                llc_hits += 1
                od.move_to_end(tag)
                if not od[tag]:
                    od[tag] = True
                    dirty += 1
                continue
            llc_miss += 1
            if len(od) >= assoc:
                _, victim_dirty = od.popitem(last=False)
                if victim_dirty:
                    llc_wb += 1
                    dram_writes += 1
                    dirty -= 1
            od[tag] = True
            dirty += 1
            dram_reads += 1
        llc_wb += dirty
        dram_writes += dirty
    deltas = (
        l1_pass.acc, l1_pass.hits, l1_pass.miss, l1_wb,
        llc_acc, llc_hits, llc_miss, llc_wb,
        dram_reads, dram_writes,
    )
    CacheHierarchy._account(num_accesses, deltas, recorder, strict)
    return HierarchyStats(
        l1=CacheStats(*deltas[:4]),
        llc=CacheStats(*deltas[4:8]),
        dram_line_reads=dram_reads,
        dram_line_writes=dram_writes,
        instructions_hint=instructions_hint or float(num_accesses),
    )


def replay_batch(
    trace: MemoryTrace,
    socs,
    flush: bool = True,
    instructions_hint: float = 0.0,
    strict: bool | None = None,
) -> list[HierarchyStats]:
    """Replay ``trace`` under every SoC in ``socs`` in one shared pass.

    Returns one :class:`HierarchyStats` per config, in input order,
    each bit-identical to ``CacheHierarchy(soc).replay_fast(trace,
    flush=flush, instructions_hint=instructions_hint)`` — including the
    published ``sim.cache.*`` counters.
    """
    socs = list(socs)
    if not socs:
        return []
    strict = resolve_strict(strict)
    recorder = get_recorder()
    outcomes = _SharedOutcomes(trace)
    with recorder.span("sim.cache.replay_batch"):
        results = _hierarchy_results(
            outcomes, socs, flush, instructions_hint, recorder, strict
        )
        _publish_batch(recorder, len(socs), outcomes.num_runs, outcomes.shared)
        return results


def _hierarchy_results(
    outcomes, socs, flush, instructions_hint, recorder, strict
) -> list[HierarchyStats]:
    num_accesses = outcomes.num_accesses
    if strict:
        CacheHierarchy._check_line_runs(
            num_accesses, outcomes.run_lines, outcomes.run_counts
        )
    return [
        _finish_config(
            soc,
            outcomes.l1(soc.l1),
            outcomes.llc(soc.l1, soc.l2),
            num_accesses,
            flush,
            instructions_hint,
            recorder,
            strict,
        )
        for soc in socs
    ]


def replay_timing_batch(
    trace: MemoryTrace,
    simulators,
    instructions_per_access: float = 2.0,
    strict: bool | None = None,
) -> list[TimingResult]:
    """Event-driven timing for N simulators over one shared trace pass.

    ``simulators`` is a sequence of :class:`TimingSimulator` (each
    carries its SoC geometry and :class:`TimingParameters`).  Returns
    one :class:`TimingResult` per simulator, in input order, each
    bit-identical to ``sim.replay_fast(trace, instructions_per_access)``
    — the per-event float expressions match the serial engine's exactly.
    """
    simulators = list(simulators)
    if not simulators:
        return []
    strict = resolve_strict(strict)
    recorder = get_recorder()
    outcomes = _SharedOutcomes(trace)
    with recorder.span("sim.timing.replay_batch"):
        results = _timing_results(
            outcomes, simulators, instructions_per_access, recorder, strict
        )
        _publish_batch(
            recorder, len(simulators), outcomes.num_runs, outcomes.shared
        )
        return results


def _timing_clock(
    pendings, final_pending, fetch_hits, params, issue_gap, strict
):
    """The serial timing recurrence over one config's latency events.

    Returns ``(clock, dram_misses, mshr_overflows, completion_disorder)``
    with the same float expressions in the same order as the serial
    engine — ``pendings`` supplies the integer issue-gap counts the
    serial loop would have accumulated between events.
    """
    llc_penalty = params.llc_hit_cycles * 0.25  # partially overlapped
    mshrs = params.mshrs
    dram_cycles = params.dram_cycles
    issue_interval = params.dram_issue_interval_cycles
    anchor = 0.0
    in_flight: deque[float] = deque()
    next_dram_slot = 0.0
    dram_misses = 0
    mshr_overflows = 0
    completion_disorder = 0
    for pending, llc_hit in zip(pendings, fetch_hits):
        if llc_hit:
            anchor = anchor + pending * issue_gap + llc_penalty
            continue
        dram_misses += 1
        clock = anchor + pending * issue_gap
        while in_flight and in_flight[0] <= clock:
            in_flight.popleft()
        if len(in_flight) >= mshrs:
            clock = max(clock, in_flight[0])
            while in_flight and in_flight[0] <= clock:
                in_flight.popleft()
        start = max(clock, next_dram_slot)
        if strict:
            if in_flight and start + dram_cycles < in_flight[-1]:
                completion_disorder += 1
            if len(in_flight) >= mshrs:
                mshr_overflows += 1
        in_flight.append(start + dram_cycles)
        next_dram_slot = start + issue_interval
        anchor = clock
    clock = anchor + final_pending * issue_gap
    if in_flight:
        clock = max(clock, in_flight[-1])
    return clock, dram_misses, mshr_overflows, completion_disorder


def _timing_results(
    outcomes, simulators, instructions_per_access, recorder, strict
) -> list[TimingResult]:
    num_accesses = outcomes.num_accesses
    clocks = {}
    results = []
    for sim in simulators:
        issue_gap = instructions_per_access / sim.soc.sustained_ipc
        l1_pass = outcomes.l1(sim.soc.l1)
        llc_pass = outcomes.llc(sim.soc.l1, sim.soc.l2)
        # The clock reads only the issue gaps (fixed by the L1 stream),
        # the fetches' LLC outcomes and the timing constants, so configs
        # agreeing on those share one event loop, whatever their LLC
        # geometry; `_finish` still runs once per simulator.
        key = (l1_pass.stream_key, llc_pass.hits_key, sim.params, issue_gap)
        cached = clocks.get(key)
        if cached is None:
            pendings, final_pending = outcomes.pendings(sim.soc.l1)
            cached = clocks[key] = _timing_clock(
                pendings, final_pending, llc_pass.fetch_hits.tolist(),
                sim.params, issue_gap, strict,
            )
        clock, dram_misses, mshr_overflows, completion_disorder = cached
        if strict:
            invariant(
                completion_disorder == 0,
                "timing.mshr_ordering",
                "%d DRAM completions issued out of order" % completion_disorder,
            )
        results.append(
            sim._finish(
                _TraceLength(num_accesses),
                clock,
                dram_misses,
                issue_gap,
                recorder,
                fast=True,
                strict=strict,
                mshr_overflows=mshr_overflows,
            )
        )
    return results


class _TraceLength:
    """Stand-in passing only ``len(trace)`` to ``TimingSimulator._finish``."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n


# ----------------------------------------------------------------------
# Sharded execution: the multicore decomposition of one sweep plan
# ----------------------------------------------------------------------

def plan_shards(items, jobs: int):
    """Partition sweep items into independent shard work lists.

    ``items`` is a sequence whose elements carry their SoC as the last
    tuple field (e.g. ``(index, soc)`` or ``(index, label, soc)``).
    Configs sharing an L1 geometry land in the same shard, so each
    shard's worker runs that L1 pass exactly once — the same sharing the
    single-process engine gets from :class:`_SharedOutcomes`.  When
    there are fewer distinct L1 geometries than worker slots, the
    largest groups split in half (each half redundantly recomputes one
    L1 pass, but the LLC and timing work — the bulk of a sweep —
    parallelizes).

    Deterministic: the same items and ``jobs`` always produce the same
    plan, in the same order, so fault plans can key on stable shard
    names and reruns schedule identically.
    """
    items = list(items)
    if not items:
        return []
    groups: dict = {}
    for item in items:
        groups.setdefault(_SharedOutcomes._key(item[-1].l1), []).append(item)
    shards = list(groups.values())
    want = min(max(int(jobs), 1), len(items))
    while len(shards) < want:
        shards.sort(key=len, reverse=True)  # stable: ties keep plan order
        biggest = shards[0]
        if len(biggest) < 2:
            break
        half = (len(biggest) + 1) // 2
        shards[0:1] = [biggest[:half], biggest[half:]]
    shards.sort(key=lambda shard: shard[0][0])
    return shards


class ShardEvaluator:
    """Per-process executor for shards of one sweep plan.

    A pool worker builds one of these over the memory-mapped artifact's
    trace and reuses it across every shard dispatched to the worker, so
    shards sharing an L1 geometry (a split group) share passes exactly
    like the single-process engine.  Results flow through the same
    ``_hierarchy_results`` / ``_timing_results`` per-config finish as
    :func:`sweep_batch`, so per-config stats, timings, and
    published ``sim.cache.*`` / ``sim.timing.*`` counters are
    bit-identical to it (and therefore to serial replay).

    What is deliberately *not* published here: the plan-level
    ``sim.replay_batch.*`` records.  Those belong to the dispatching
    parent (:func:`publish_sweep_plan`) exactly once per sweep, so a
    parallel run's merged registry equals the single-process batched
    registry instead of counting one batch per shard.
    """

    def __init__(
        self,
        trace: MemoryTrace,
        params: TimingParameters | None = None,
        instructions_per_access: float = 2.0,
    ):
        self.outcomes = _SharedOutcomes(trace)
        self.params = params or TimingParameters()
        self.instructions_per_access = instructions_per_access

    def evaluate(
        self,
        socs,
        flush: bool = True,
        instructions_hint: float = 0.0,
        strict: bool | None = None,
    ):
        """``(stats, timings)`` for this shard's configs, in input order."""
        socs = list(socs)
        if not socs:
            return [], []
        strict = resolve_strict(strict)
        recorder = get_recorder()
        simulators = [TimingSimulator(soc, self.params) for soc in socs]
        with recorder.span("sim.cache.replay_shard"):
            stats = _hierarchy_results(
                self.outcomes, socs, flush, instructions_hint, recorder, strict
            )
        with recorder.span("sim.timing.replay_shard"):
            timings = _timing_results(
                self.outcomes, simulators, self.instructions_per_access,
                recorder, strict,
            )
        return stats, timings


def publish_sweep_plan(recorder, n_configs: int, num_runs: int, shared: bool = True) -> None:
    """The two plan-level batch records a sharded sweep's parent owns.

    :func:`sweep_batch` publishes one ``sim.replay_batch.*`` record per
    engine (cache, then timing — the latter always a shared-trace hit).
    When the shards run in pool workers, the parent publishes these
    records exactly once over the whole plan, so the merged registry is
    identical to a single-process batched sweep of the same configs.
    """
    _publish_batch(recorder, n_configs, num_runs, shared)
    _publish_batch(recorder, n_configs, num_runs, True)


def sweep_batch(
    trace: MemoryTrace,
    socs,
    params: TimingParameters | None = None,
    instructions_per_access: float = 2.0,
    flush: bool = True,
    instructions_hint: float = 0.0,
    strict: bool | None = None,
):
    """Hierarchy stats *and* timing for every SoC from one set of passes.

    The sweep executor's fast path: because the timing engine's cache
    state evolves through the same access sequence as the hierarchy
    replay, both engines share the per-geometry passes.  Returns
    ``(stats, timings)``, each a list in ``socs`` order and bit-identical
    to the corresponding serial ``replay_fast`` call.  Publishes the
    same two batch counter records as calling :func:`replay_batch` then
    :func:`replay_timing_batch`.
    """
    socs = list(socs)
    if not socs:
        return [], []
    strict = resolve_strict(strict)
    recorder = get_recorder()
    outcomes = _SharedOutcomes(trace)
    shared_params = params or TimingParameters()
    simulators = [TimingSimulator(soc, shared_params) for soc in socs]
    with recorder.span("sim.cache.replay_batch"):
        stats = _hierarchy_results(
            outcomes, socs, flush, instructions_hint, recorder, strict
        )
        _publish_batch(recorder, len(socs), outcomes.num_runs, outcomes.shared)
    with recorder.span("sim.timing.replay_batch"):
        timings = _timing_results(
            outcomes, simulators, instructions_per_access, recorder, strict
        )
        # The timing engine reuses the runs materialized above.
        _publish_batch(recorder, len(socs), outcomes.num_runs, True)
    return stats, timings


def timing_batch_for_socs(
    trace: MemoryTrace,
    socs,
    params: TimingParameters | None = None,
    instructions_per_access: float = 2.0,
    strict: bool | None = None,
) -> list[TimingResult]:
    """:func:`replay_timing_batch` over SoCs sharing one parameter set."""
    shared = params or TimingParameters()
    return replay_timing_batch(
        trace,
        [TimingSimulator(soc, shared) for soc in socs],
        instructions_per_access=instructions_per_access,
        strict=strict,
    )


__all__ = [
    "ShardEvaluator",
    "plan_shards",
    "publish_sweep_plan",
    "replay_batch",
    "replay_timing_batch",
    "sweep_batch",
    "timing_batch_for_socs",
]
