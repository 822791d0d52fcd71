"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload is a class with one life cycle, driven by ``load.py``:
``setup()`` once (it ends with an untimed warm-up operation, so lazy
imports are paid there), then per timed operation ``next_op()``,
``run(op)`` (the only timed call) and ``finish(op, output)``; after the
timed window ``check(done)`` returns the indices of operations whose
output is wrong; ``teardown()`` always runs.  The program only ever
receives the generated inputs: workload names and cache geometries for
the sweeps, nothing for ``figures``.

Every sweep grid is 3 distinct L1 geometries x 3 distinct LLC geometries
(9 distinct configs), so ``ConfigSweep.evaluate`` never sees a duplicate
geometry and every grid costs the same number of L1 passes.  The tiers
straddle the sweep traces' working sets: 16-256 kB L1s around the 64 kB
GEMM operand and 0.5-8 MB LLCs around the 512 kB composited texture.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

#: Geometry tiers: every grid takes one L1 from each L1 tier and one LLC
#: from each LLC tier, so each grid spans small to large caches and grids
#: cost alike (a grid's cost grows with its LLC sizes).
L1_TIERS_KB = ((16, 32), (64,), (128, 256))
L1_WAYS = (2, 4, 8, 16)
LLC_TIERS_KB = ((512, 1024), (2048,), (4096, 8192))
LLC_WAYS = (4, 8, 16)

#: Operations of ``sweep_explore``/``sweep_fleet`` come in blocks of this
#: many; each block after the first has one that repeats an earlier grid.
REPEAT_EVERY = 4


class SweepOp:
    """One operation: a sweep workload name and its geometry grid."""

    __slots__ = ("index", "workload", "socs", "repeat_of")

    def __init__(self, index, workload, socs=None, repeat_of=None):
        self.index = index
        self.workload = workload
        self.socs = socs
        self.repeat_of = repeat_of


class _Deck:
    """Deals items of a shuffled deck, reshuffled when used up."""

    def __init__(self, items, rng):
        self._items = list(items)
        self._rng = rng
        self._cards = []

    def deal(self):
        if not self._cards:
            self._cards = list(self._items)
            self._rng.shuffle(self._cards)
        return self._cards.pop()


def _tiers(sizes_kb, ways, **fields):
    from repro.config import KB, CacheConfig

    return [
        [CacheConfig(size_bytes=s * KB, associativity=w, **fields)
         for s in tier for w in ways]
        for tier in sizes_kb
    ]


class SweepOps:
    """The seeded operation stream of the sweep workloads.

    Operation ``i`` sweeps ``cachesweep.WORKLOADS`` name ``i % 4`` (in
    sorted order).  Each workload deals the geometries of each tier from
    its own shuffled deck, without replacement until the deck is used
    up, so a run sweeps every geometry about equally often and runs of
    different seeds do alike work.  A fresh grid never equals an earlier
    one or the warm-up grid.  With ``repeats``, one operation at a
    seeded position of each block of :data:`REPEAT_EVERY` after the
    first repeats a seeded earlier grid of the same workload instead.
    """

    #: The warm-up sweeps the cheapest trace on a grid fixed across seeds.
    WARM_UP_WORKLOAD = "tensorflow.gemm_packed"

    def __init__(self, seed: int, repeats: bool):
        from repro.analysis.cachesweep import workload_names

        self._rng = random.Random(seed)
        self._names = workload_names()
        tiers = (
            _tiers(L1_TIERS_KB, L1_WAYS)
            + _tiers(LLC_TIERS_KB, LLC_WAYS, hit_latency_cycles=20)
        )
        self._decks = {
            name: [_Deck(tier, self._rng) for tier in tiers]
            for name in self._names
        }
        warm = random.Random(0)
        self._warm_up = self._grid([warm.choice(tier) for tier in tiers])
        self._seen = {self._key(self._warm_up)}
        self._repeats = repeats
        self._fresh = {name: [] for name in self._names}
        self._repeat_slot = None
        self.ops = []

    @staticmethod
    def _grid(caches):
        from repro.config import SocConfig

        return [SocConfig(l1=a, l2=b) for a in caches[:3] for b in caches[3:]]

    @staticmethod
    def _key(socs):
        from repro.config import soc_cache_label

        return tuple(soc_cache_label(s) for s in socs)

    def _fresh_grid(self, workload):
        while True:
            socs = self._grid([deck.deal() for deck in self._decks[workload]])
            if self._key(socs) not in self._seen:
                self._seen.add(self._key(socs))
                return socs

    def warm_up(self) -> SweepOp:
        """An operation outside the stream, on a grid no op will use."""
        return SweepOp(-1, self.WARM_UP_WORKLOAD, self._warm_up)

    def next(self) -> SweepOp:
        i = len(self.ops)
        workload = self._names[i % len(self._names)]
        if i % REPEAT_EVERY == 0:
            self._repeat_slot = (
                i + self._rng.randrange(REPEAT_EVERY)
                if self._repeats and i >= REPEAT_EVERY
                else None
            )
        earlier = self._fresh[workload]
        if i == self._repeat_slot and earlier:
            source = self.ops[self._rng.choice(earlier)]
            op = SweepOp(i, workload, source.socs, repeat_of=source.index)
        else:
            op = SweepOp(i, workload, self._fresh_grid(workload))
            earlier.append(i)
        self.ops.append(op)
        return op


def _rows_json(document) -> str:
    return json.dumps(document["rows"], sort_keys=True)


def _empty_store(directory: Path):
    from repro.sim.artifact import TraceStore

    shutil.rmtree(directory, ignore_errors=True)
    return TraceStore(directory)


class SweepWorkload:
    """Shared body of the sweep workloads.

    Checks, all outside the timed window:

    * every document has no quarantined geometry and one row per config,
      in grid order;
    * a (workload, config) pair gives the identical row in every
      operation that evaluates it, and a repeated grid gives the rows of
      the operation it repeats;
    * one seeded operation per workload is re-run through the serial
      oracle, ``run_sweep(..., batch=False)`` with no memo cache, and
      must give bit-identical rows.
    """

    repeats = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.documents = {}
        self.stream = None

    def setup(self) -> None:
        self.stream = SweepOps(self.seed, self.repeats)
        self.prepare()
        self.run(self.stream.warm_up())
        self.cleanup()

    def prepare(self) -> None:
        """Set-up before the warm-up operation."""

    def cleanup(self) -> None:
        """Untimed clean-up after each operation."""

    def next_op(self) -> SweepOp:
        return self.stream.next()

    def run(self, op: SweepOp) -> dict:
        raise NotImplementedError

    def finish(self, op: SweepOp, document: dict) -> None:
        self.documents[op.index] = document
        self.cleanup()

    def teardown(self) -> None:
        pass

    def check(self, done) -> set:
        from repro.analysis import cachesweep
        from repro.config import soc_cache_label

        wrong = set()
        rows_seen = {}
        for op in done:
            doc = self.documents.get(op.index)
            if doc is None:
                continue
            labels = [soc_cache_label(s) for s in op.socs]
            if doc["failures"] or [r["config"] for r in doc["rows"]] != labels:
                wrong.add(op.index)
                continue
            for row in doc["rows"]:
                text = json.dumps(row, sort_keys=True)
                if rows_seen.setdefault((op.workload, row["config"]), text) != text:
                    wrong.add(op.index)
            if op.repeat_of is not None:
                source = self.documents.get(op.repeat_of)
                if source is None or _rows_json(source) != _rows_json(doc):
                    wrong.add(op.index)
        rng = random.Random(self.seed)
        fresh = {}
        for op in done:
            if op.repeat_of is None and op.index in self.documents:
                fresh.setdefault(op.workload, []).append(op)
        store = _empty_store(self.workdir / "oracle")
        for workload in sorted(fresh):
            op = rng.choice(fresh[workload])
            serial = cachesweep.run_sweep(
                workload, socs=op.socs, batch=False, store=store
            )
            if _rows_json(serial) != _rows_json(self.documents[op.index]):
                wrong.add(op.index)
        return wrong

    def fresh_accesses(self, op: SweepOp, document: dict) -> int:
        """Simulated accesses x configs this operation evaluated afresh."""
        if op.repeat_of is not None:
            return 0
        return sum(row["accesses"] for row in document["rows"])


class SweepCold(SweepWorkload):
    """First-run ``cachesweep``: an empty trace store and memo cache per op."""

    def run(self, op):
        from repro.analysis import cachesweep
        from repro.core.memo import MemoCache
        from repro.sim.artifact import TraceStore

        directory = self.workdir / "cold" / str(op.index)
        cache = MemoCache(directory / "memo")
        try:
            return cachesweep.run_sweep(
                op.workload,
                socs=op.socs,
                store=TraceStore(directory / "traces"),
                cache=cache,
            )
        finally:
            cache.close()

    def cleanup(self):
        shutil.rmtree(self.workdir / "cold", ignore_errors=True)


class SweepExplore(SweepWorkload):
    """Fresh grids over prebuilt artifacts through one memo cache."""

    repeats = True

    def prepare(self):
        from repro.core.memo import MemoCache

        self.build_artifacts()
        self.cache = MemoCache(self.workdir / "memo")

    def build_artifacts(self):
        from repro.analysis import cachesweep

        self.store = _empty_store(self.workdir / "traces")
        for name in cachesweep.workload_names():
            self.store.get_or_build(name, cachesweep.WORKLOADS[name])

    def run(self, op):
        from repro.analysis import cachesweep

        return cachesweep.run_sweep(
            op.workload, socs=op.socs, store=self.store, cache=self.cache
        )

    def teardown(self):
        cache = getattr(self, "cache", None)
        if cache is not None:
            cache.close()


class SweepFleet(SweepExplore):
    """The ``sweep_explore`` stream, sharded over a 2-worker HTTP fleet.

    Jobs go through a loopback gateway with two registered, HMAC-signed
    workers, and the memo cache is the gateway's ``RemoteMemoCache``, as
    the CLI promotes it for ``--fleet``.  No retry policy is set (the
    CLI default), so a failed shard fails its operation, and every
    operation that ends while a fleet process is dead counts as failed.
    """

    JOBS = 2

    def prepare(self):
        from localfleet import LocalFleet
        from repro.fleet import fleet_pool_factory
        from repro.fleet.cache import RemoteMemoCache

        self.dead_from = None
        self.fleet = LocalFleet(self.workdir / "fleet")
        manifest = self.fleet.start()
        self.pool_factory = fleet_pool_factory(manifest)
        self.build_artifacts()
        self.cache = RemoteMemoCache(
            manifest.gateway.base_url, secret=manifest.load_secret()
        )

    def run(self, op):
        from repro.analysis import cachesweep

        return cachesweep.run_sweep(
            op.workload, socs=op.socs, store=self.store, cache=self.cache,
            jobs=self.JOBS, pool_factory=self.pool_factory,
        )

    def finish(self, op, document):
        super().finish(op, document)
        if self.dead_from is None and not self.fleet.alive():
            self.dead_from = op.index

    def check(self, done):
        wrong = super().check(done)
        if self.dead_from is not None:
            wrong.update(op.index for op in done if op.index >= self.dead_from)
        return wrong

    def teardown(self):
        super().teardown()
        fleet = getattr(self, "fleet", None)
        if fleet is not None:
            fleet.stop()


class Figures:
    """Analytic figure regeneration: one ``all_results(cache=None)`` per op.

    The seed selects nothing: the figures take no input.  Every
    regeneration must be non-degraded and give exactly the anchors, and
    the ``score_figures`` pass count, of the warm-up regeneration.
    """

    def __init__(self, seed: int, workdir: Path):
        self.count = 0
        self.verdicts = {}

    @staticmethod
    def _score(results):
        from repro.analysis.scorecard import score_figures

        anchors = json.dumps([r.anchors for r in results], sort_keys=True)
        return anchors, score_figures(results).passed

    def setup(self):
        self.reference = self._score(self.run(None))
        self.anchors_within = self.reference[1]

    def next_op(self):
        op = SweepOp(self.count, "figures")
        self.count += 1
        return op

    def run(self, op):
        from repro.analysis import report

        return report.all_results(cache=None)

    def finish(self, op, results):
        degraded = any(r.notes.startswith("DEGRADED") for r in results)
        self.verdicts[op.index] = (
            not degraded and self._score(results) == self.reference
        )

    def check(self, done):
        return {op.index for op in done if not self.verdicts.get(op.index)}

    def fresh_accesses(self, op, results):
        return 0

    def teardown(self):
        pass


WORKLOADS = {
    "sweep_cold": SweepCold,
    "sweep_explore": SweepExplore,
    "figures": Figures,
    "sweep_fleet": SweepFleet,
}
