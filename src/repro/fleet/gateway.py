"""The fleet gateway: one front door for dispatch, results, and the cache.

Every fleet manifest names a gateway, and clients talk only to it; it
owns the fleet's only :class:`FleetDispatcher` (weighted round-robin,
eviction, revival) so every client shares one view of fleet health, and
it hosts the shared result cache — a
:class:`repro.core.store.SegmentStore` the fleet's
:class:`~repro.fleet.cache.RemoteMemoCache` clients read and write, so a
sweep finished by one client short-circuits the same sweep started by
another.

The gateway also owns **elastic membership**
(:class:`repro.fleet.membership.MembershipRegistry`): workers started
with ``--register`` join at runtime, renew a heartbeat lease every
``lease_s / 3``, and are dropped from dispatch when the lease lapses —
so a hung or partitioned worker is detected within ``lease_s`` instead
of costing a transport timeout per shard.  Membership is persisted to a
second SegmentStore next to the cache, so a restarted gateway rehydrates
its fleet and in-flight sweeps resume.

Endpoints:

- ``GET /health`` — gateway liveness.
- ``GET /status`` — live fleet picture: per-worker health + lease,
  membership summary, gateway counters, cache size.
- ``POST /run`` — forward a job envelope to the next worker.  Replies
  ``{"job", "worker"}`` on placement; 503 when every live worker's slot
  is busy (clients wait); 502 with ``no_workers`` and the dispatcher's
  "all N fleet workers are dead" when no live worker remains (clients
  charge the attempt — the fleet-wide-outage path to quarantine); 409
  passes a worker's code-version rejection through.  A worker answering
  "draining" is evicted from rotation and the job moves to a sibling.
- ``GET /result?worker=<url>&job=<id>`` — proxy a result poll, so
  clients never need direct worker connectivity.  Polling a recently
  removed member (drained or lease-expired) answers 502 so the client
  requeues the shard instead of spinning on 400s.
- ``POST /register`` / ``/renew`` / ``/deregister`` — the membership
  lifecycle (see :mod:`repro.fleet.membership`).
- ``GET /cache/get?key=<k>`` / ``POST /cache/put`` — the shared memo
  cache (``key`` is :func:`repro.core.memo.memo_key` output; values are
  JSON documents).

With a shared secret configured every endpoint requires a valid request
signature (401 otherwise); see :mod:`repro.fleet.wire`.
"""

from __future__ import annotations

import os
import threading
import time
from http.server import ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from repro.core.memo import code_version_hash, default_cache_dir
from repro.core.store import SegmentStore
from repro.fleet.dispatch import FleetDispatcher
from repro.fleet.manifest import FleetManifest, WorkerSpec
from repro.fleet.membership import MEMBERS_STORE_KEY, MembershipRegistry
from repro.fleet.wire import (
    FleetNoWorkersError,
    FleetTransportError,
    JsonRequestHandler,
    http_json,
)
from repro.obs.recorder import get_recorder

CACHE_STORE_KEY = "repro-fleet-cache/v1"

_MISS = object()


def _count(event: str, n: float = 1) -> None:
    get_recorder().counters.add("fleet.gateway." + event, n)


def _member_address(doc):
    """``(host, port)`` from a renew/deregister body, or None if malformed."""
    if not isinstance(doc, dict):
        return None
    try:
        return str(doc["host"]), int(doc["port"])
    except (KeyError, TypeError, ValueError):
        return None


class _GatewayHandler(JsonRequestHandler):
    counter_ns = "fleet.gateway."

    # -- routes --------------------------------------------------------
    def route_get(self, body: bytes) -> None:
        server = self.server
        url = urlparse(self.path)
        query = parse_qs(url.query)
        if url.path == "/health":
            self._reply(
                200,
                {
                    "ok": True,
                    "role": "gateway",
                    "pid": os.getpid(),
                    "version": code_version_hash(),
                    "workers": len(server.dispatcher.snapshot()),
                },
            )
            return
        if url.path == "/status":
            self._reply(200, server.status_document())
            return
        if url.path == "/result":
            worker = (query.get("worker") or [None])[0]
            job = (query.get("job") or [None])[0]
            self._proxy_result(worker, job)
            return
        if url.path == "/cache/get":
            key = (query.get("key") or [None])[0]
            if not key:
                self._reply(400, {"error": "missing 'key'"})
                return
            with server.cache_lock:
                value = server.cache.get(key, _MISS)
            if value is _MISS:
                _count("cache_misses")
                self._reply(404, {"error": "miss"})
                return
            _count("cache_hits")
            self._reply(200, {"value": value})
            return
        self._reply(404, {"error": "unknown path %r" % url.path})

    def route_post(self, body: bytes) -> None:
        server = self.server
        url = urlparse(self.path)
        if url.path == "/run":
            envelope = self._json(body)
            if not isinstance(envelope, dict):
                self._reply(400, {"error": "malformed job envelope"})
                return
            self._forward_run(envelope)
            return
        if url.path == "/register":
            self._register(self._json(body))
            return
        if url.path == "/renew":
            self._renew(self._json(body))
            return
        if url.path == "/deregister":
            self._deregister(self._json(body))
            return
        if url.path == "/cache/put":
            doc = self._json(body)
            if not isinstance(doc, dict) or not doc.get("key"):
                self._reply(400, {"error": "need {'key', 'value'}"})
                return
            with server.cache_lock:
                server.cache.append(doc["key"], doc.get("value"))
                server.cache.flush()
            _count("cache_puts")
            self._reply(200, {"ok": True})
            return
        self._reply(404, {"error": "unknown path %r" % url.path})

    # -- membership ----------------------------------------------------
    def _register(self, doc) -> None:
        server = self.server
        if not isinstance(doc, dict):
            self._reply(400, {"error": "malformed registration"})
            return
        try:
            record = WorkerSpec.from_dict(doc, role="member")
        except ValueError as exc:
            self._reply(400, {"error": str(exc)})
            return
        version = code_version_hash()
        if record.version is not None and record.version != version:
            _count("register_version_rejects")
            self._reply(
                409,
                {
                    "error": "code version mismatch: gateway runs %s, worker sent %s"
                    % (version, record.version),
                    "version": version,
                },
            )
            return
        joined = server.membership.register(record)
        server.dispatcher.add_worker(record)
        _count("registered" if joined else "reregistered")
        self._reply(200, {"ok": True, "lease_s": server.membership.lease_s})

    def _renew(self, doc) -> None:
        server = self.server
        address = _member_address(doc)
        if address is None:
            self._reply(400, {"error": "need {'host', 'port'}"})
            return
        if server.membership.renew(*address):
            self._reply(200, {"ok": True, "lease_s": server.membership.lease_s})
            return
        self._reply(404, {"error": "unknown member; re-register"})

    def _deregister(self, doc) -> None:
        server = self.server
        address = _member_address(doc)
        if address is None:
            self._reply(400, {"error": "need {'host', 'port'}"})
            return
        record = server.membership.deregister(*address)
        if record is not None:
            server.dispatcher.remove_worker(record)
            _count("deregistered")
        self._reply(200, {"ok": True, "known": record is not None})

    # -- forwarding ----------------------------------------------------
    def _forward_run(self, envelope: dict) -> None:
        server = self.server
        dispatcher = server.dispatcher
        timeout = server.manifest.request_timeout_s
        busy = set()
        while True:
            try:
                spec = dispatcher.pick()
            except FleetNoWorkersError as exc:
                _count("no_workers")
                self._reply(502, {"error": str(exc), "no_workers": True})
                return
            alive = {s.base_url for s in dispatcher.alive_workers()}
            if spec.base_url in busy:
                if busy >= alive:
                    _count("all_busy")
                    self._reply(503, {"error": "all workers busy"})
                    return
                continue
            try:
                status, doc = http_json(
                    "POST",
                    spec.base_url + "/run",
                    envelope,
                    timeout=timeout,
                    secret=server.secret,
                )
            except FleetTransportError:
                dispatcher.report_failure(spec)
                continue
            if status == 503:
                if doc.get("draining"):
                    # On its way out: take it off rotation and move on.
                    _count("drain_evictions")
                    dispatcher.report_failure(spec)
                    continue
                busy.add(spec.base_url)
                if busy >= {s.base_url for s in dispatcher.alive_workers()}:
                    _count("all_busy")
                    self._reply(503, {"error": "all workers busy"})
                    return
                continue
            if status == 200:
                _count("forwarded")
                self._reply(200, {"job": doc["job"], "worker": spec.base_url})
                return
            # 409 version mismatch and other worker verdicts pass through.
            self._reply(status, doc)
            return

    def _proxy_result(self, worker, job) -> None:
        server = self.server
        if not worker or not job:
            self._reply(400, {"error": "need 'worker' and 'job'"})
            return
        known = {spec.base_url for spec in server.manifest.workers}
        if worker not in known and not server.membership.is_member(worker):
            reason = server.membership.removal_reason(worker)
            if reason is not None:
                # The member left (drain/lease expiry) with this job in
                # flight: fail the poll so the client requeues the shard.
                _count("dead_member_polls")
                self._reply(502, {"error": "worker removed: %s" % reason})
                return
            self._reply(400, {"error": "unknown worker %r" % worker})
            return
        try:
            status, doc = http_json(
                "GET",
                "%s/result?job=%s" % (worker, job),
                timeout=server.manifest.request_timeout_s,
                secret=server.secret,
            )
        except FleetTransportError as exc:
            for spec, _alive in server.dispatcher.snapshot():
                if spec.base_url == worker:
                    server.dispatcher.report_failure(spec)
            self._reply(502, {"error": "worker unreachable: %s" % exc})
            return
        self._reply(status, doc)


class GatewayServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        manifest: FleetManifest,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir=None,
        secret: str | None = None,
    ):
        super().__init__((host, port), _GatewayHandler)
        self.manifest = manifest
        self.secret = secret
        self.dispatcher = FleetDispatcher(manifest, secret=secret)
        directory = (
            Path(cache_dir) if cache_dir is not None else default_cache_dir() / "fleet"
        )
        self.cache = SegmentStore(
            directory, key=CACHE_STORE_KEY, prefix="fleet", flush_every=1, fsync=False
        )
        self.cache_lock = threading.Lock()
        # Membership persists next to the cache (fsync'd: joins are rare
        # and a crashed gateway must rehydrate the exact member set).
        self.membership = MembershipRegistry(
            lease_s=manifest.lease_s,
            store=SegmentStore(
                directory,
                key=MEMBERS_STORE_KEY,
                prefix="members",
                flush_every=1,
                fsync=True,
            ),
        )
        for record in self.membership.rehydrate():
            self.dispatcher.add_worker(record)
            _count("rehydrated")
        self.started_s = time.monotonic()
        self._closed = False
        self._lease_stop = threading.Event()
        self._lease_thread = threading.Thread(
            target=self._lease_loop, daemon=True, name="fleet-leases"
        )
        self._lease_thread.start()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def _lease_loop(self) -> None:
        tick = max(0.05, self.membership.lease_s / 5.0)
        while not self._lease_stop.wait(tick):
            for record in self.membership.expire_due():
                self.dispatcher.remove_worker(record)
                _count("lease_expired")

    def server_close(self) -> None:
        self._lease_stop.set()
        super().server_close()
        if not self._closed:
            self._closed = True
            self.membership.close()

    def status_document(self) -> dict:
        leases = {
            record.base_url: remaining
            for record, remaining in self.membership.members()
        }
        workers = []
        for spec, alive in self.dispatcher.snapshot():
            health = None
            if alive:
                try:
                    status, doc = http_json(
                        "GET",
                        spec.base_url + "/health",
                        timeout=2.0,
                        secret=self.secret,
                    )
                    if status == 200:
                        health = doc
                except FleetTransportError:
                    alive = False
            registered = spec.base_url in leases
            workers.append(
                {
                    "url": spec.base_url,
                    "weight": spec.weight,
                    "alive": alive,
                    "registered": registered,
                    "lease_remaining_s": (
                        round(leases[spec.base_url], 3) if registered else None
                    ),
                    "health": health,
                }
            )
        with self.cache_lock:
            cache_entries = len(self.cache.entries())
        return {
            "ok": True,
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self.started_s, 3),
            "workers": workers,
            "membership": {
                "members": len(self.membership),
                "lease_s": self.membership.lease_s,
            },
            "counters": get_recorder().counters.as_dict(),
            "cache": {
                "entries": cache_entries,
                "directory": str(self.cache.directory),
            },
        }


def serve_gateway(
    manifest,
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir=None,
    port_file=None,
    secret: str | None = None,
) -> None:
    """Run the gateway until interrupted.  ``port=0`` binds ephemeral."""
    from repro.fleet.worker import write_port_file
    from repro.obs.recorder import Recorder, set_recorder

    if isinstance(manifest, (str, Path)):
        manifest = FleetManifest.load(manifest)
    # Arm a real recorder so /status can expose fleet.gateway.* counters
    # (a bare subprocess otherwise defaults to the no-op recorder).
    set_recorder(Recorder())
    server = GatewayServer(
        manifest, host=host, port=port, cache_dir=cache_dir, secret=secret
    )
    if port_file is not None:
        write_port_file(port_file, server.port)
    print(
        "fleet gateway pid=%d listening on http://%s:%d (%d static workers, %d members)"
        % (
            os.getpid(),
            host,
            server.port,
            len(manifest.workers),
            len(server.membership),
        ),
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        with server.cache_lock:
            server.cache.close()
        server.server_close()
