"""Worker selection: smooth weighted round-robin with eviction + revival.

The dispatcher is the gateway's picture of fleet health: the gateway
(:mod:`repro.fleet.gateway`) runs the fleet's only one, and clients
reach workers through it.  Each
:class:`~repro.fleet.manifest.WorkerSpec` gets a node with the classic
smooth-WRR state (current weight accumulates by configured weight; the
largest current weight wins and pays back the total), which interleaves
a ``[2, 1]``-weighted fleet as A-B-A rather than A-A-B.

A transport failure evicts the node immediately — every subsequent pick
skips it, so a dead worker costs one failed request, not one per shard.
Evicted nodes are re-probed (``GET /health``) at most once per
``probe_interval_s`` and rejoin the rotation on success, so a restarted
worker is picked up without restarting the sweep.  A probe that answers
with a *different* ``code_version_hash`` keeps the node evicted
(``fleet.dispatch.version_skew``) — a worker restarted on a divergent
tree would otherwise rejoin and 409 every job it's handed; same for a
worker that reports itself ``draining``.  When every node is dead,
:meth:`FleetDispatcher.pick` raises
:class:`~repro.fleet.wire.FleetNoWorkersError`; the gateway answers
``POST /run`` with a 502 carrying that message and a ``no_workers``
flag, the executor re-raises it through the item's future, and
ResilientMap charges the attempt and ultimately quarantines — a
fleet-wide outage degrades exactly like a repeatedly-crashing local
pool.

Elastic fleets grow and shrink the node table at runtime: the gateway
calls :meth:`FleetDispatcher.add_worker` on registration and
:meth:`FleetDispatcher.remove_worker` on drain or lease expiry.
"""

from __future__ import annotations

import threading
import time

from repro.core.memo import code_version_hash
from repro.fleet.manifest import FleetManifest, WorkerSpec
from repro.fleet.wire import FleetNoWorkersError, FleetTransportError, http_json
from repro.obs.recorder import get_recorder


class _Node:
    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.current = 0
        self.alive = True
        self.last_probe_s = 0.0


def _count(event: str, n: float = 1) -> None:
    get_recorder().counters.add("fleet.dispatch." + event, n)


class FleetDispatcher:
    """Thread-safe worker selection over a manifest's worker list.

    The gateway owns one for its lifetime, so eviction knowledge is
    shared by every client and survives a client's pool teardown after
    a timeout.
    """

    def __init__(
        self,
        manifest: FleetManifest,
        probe_timeout_s: float = 2.0,
        secret: str | None = None,
    ):
        self.manifest = manifest
        self.probe_timeout_s = probe_timeout_s
        self.secret = secret
        self._nodes = [_Node(spec) for spec in manifest.workers]
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def pick(self) -> WorkerSpec:
        """The next worker by smooth weighted round-robin.

        Raises :class:`FleetNoWorkersError` when the whole fleet is dead
        (after attempting due revival probes).
        """
        self._revive_due()
        with self._lock:
            alive = [node for node in self._nodes if node.alive]
            if not alive:
                _count("no_workers")
                raise FleetNoWorkersError(
                    "all %d fleet workers are dead" % len(self._nodes)
                )
            total = sum(node.spec.weight for node in alive)
            for node in alive:
                node.current += node.spec.weight
            best = max(alive, key=lambda node: node.current)
            best.current -= total
            _count("dispatched")
            return best.spec

    def report_failure(self, spec: WorkerSpec) -> None:
        """Evict ``spec`` after a transport failure."""
        with self._lock:
            for node in self._nodes:
                if node.spec == spec and node.alive:
                    node.alive = False
                    node.last_probe_s = time.monotonic()
                    node.current = 0
                    _count("evicted")

    def add_worker(self, spec: WorkerSpec) -> None:
        """Admit (or refresh) a dynamically-registered worker.

        Matching is by host+port: a re-registration updates the weight
        and revives the node with smooth-WRR state reset, so a restarted
        member rejoins the rotation immediately instead of waiting out a
        probe interval.
        """
        with self._lock:
            for node in self._nodes:
                if node.spec.host == spec.host and node.spec.port == spec.port:
                    node.spec = spec
                    node.alive = True
                    node.current = 0
                    node.last_probe_s = 0.0
                    _count("readded")
                    return
            self._nodes.append(_Node(spec))
            _count("added")

    def remove_worker(self, spec: WorkerSpec) -> None:
        """Drop a worker from the rotation entirely (drain/lease expiry).

        Unlike eviction, a removed node is not probed for revival — it
        must re-register to come back.
        """
        with self._lock:
            before = len(self._nodes)
            self._nodes = [
                node
                for node in self._nodes
                if not (node.spec.host == spec.host and node.spec.port == spec.port)
            ]
            if len(self._nodes) < before:
                _count("removed")

    def alive_workers(self) -> list:
        with self._lock:
            return [node.spec for node in self._nodes if node.alive]

    def snapshot(self) -> list:
        """(spec, alive) pairs for status displays."""
        with self._lock:
            return [(node.spec, node.alive) for node in self._nodes]

    # ------------------------------------------------------------------
    def _revive_due(self) -> None:
        """Probe evicted nodes whose back-off has elapsed.

        Claims each due node under the lock (by stamping
        ``last_probe_s``) so concurrent picks don't duplicate probes,
        then probes with the lock released — a slow probe must not stall
        dispatch to healthy workers.
        """
        now = time.monotonic()
        interval = self.manifest.probe_interval_s
        due = []
        with self._lock:
            for node in self._nodes:
                if not node.alive and now - node.last_probe_s >= interval:
                    node.last_probe_s = now
                    due.append(node)
        for node in due:
            try:
                status, doc = http_json(
                    "GET",
                    node.spec.base_url + "/health",
                    timeout=self.probe_timeout_s,
                    secret=self.secret,
                )
            except FleetTransportError:
                continue
            if status != 200 or not doc.get("ok"):
                continue
            if doc.get("draining"):
                continue  # finishing up on its way out; don't hand it work
            version = doc.get("version")
            if version is not None and version != code_version_hash():
                # A divergent tree would 409 every job — stay evicted.
                _count("version_skew")
                continue
            with self._lock:
                node.alive = True
                node.current = 0
            _count("revived")
