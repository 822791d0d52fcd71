"""Elastic fleet membership: heartbeat leases, registration, rehydration.

PR 9's fleet only scaled as far as a hand-written ``workers`` list in
``fleet.json``.  This module makes membership **gateway-owned and
dynamic**:

- A worker started with ``--register <gateway>`` announces itself at
  boot (``POST /register``) and renews a heartbeat lease every
  ``lease_s / 3`` (``POST /renew``).  The gateway hands the lease length
  back in the register reply, so the manifest's ``lease_s`` knob is
  configured in exactly one place.
- The gateway's :class:`MembershipRegistry` marks a member dead when its
  lease expires — a hung or partitioned worker is detected *proactively*
  (within ``lease_s``) instead of costing one transport timeout per
  shard.  Expired and deregistered members keep a queryable removal
  reason for a grace window, so an in-flight result poll can be failed
  fast (the shard requeues on a sibling) rather than answered with
  "unknown worker".
- Membership is persisted through the existing
  :class:`repro.core.store.SegmentStore` (one entry per member, ``None``
  as a tombstone), so a restarted gateway **rehydrates** its fleet and
  in-flight sweeps resume against the same worker set before any renewal
  arrives.
- Graceful drain deregisters explicitly: the worker finishes its
  in-flight job, hands the result over, then leaves the registry — the
  *uncharged* exit path, distinct from a crash.
"""

from __future__ import annotations

import os
import threading
import time

from repro.core.memo import code_version_hash
from repro.fleet.manifest import WorkerSpec
from repro.fleet.wire import PROTOCOL, FleetTransportError, http_json
from repro.obs.recorder import get_recorder

#: SegmentStore namespace key for persisted membership.
MEMBERS_STORE_KEY = "repro-fleet-members/v1"

#: How long a removed member's fate stays queryable for result proxies.
REMOVAL_RETENTION_S = 600.0


def _count(event: str, n: float = 1) -> None:
    get_recorder().counters.add("fleet.membership." + event, n)


class _Member:
    __slots__ = ("record", "deadline_s")

    def __init__(self, record: WorkerSpec, deadline_s: float):
        self.record = record
        self.deadline_s = deadline_s


class MembershipRegistry:
    """The gateway's authoritative, lease-guarded member table.

    Thread-safe.  ``store`` (a :class:`~repro.core.store.SegmentStore`
    or None) persists joins and removals write-through, so
    :meth:`rehydrate` can rebuild the table after a gateway restart;
    renewals are memory-only (no disk churn at heartbeat rate).
    ``clock`` is injectable for tests and must be monotonic.
    """

    def __init__(self, lease_s: float = 10.0, store=None, clock=time.monotonic):
        self.lease_s = float(lease_s)
        self._store = store
        self._clock = clock
        self._lock = threading.Lock()
        self._members: dict = {}  # url -> _Member
        self._removed: dict = {}  # url -> (reason, removed_at_s)

    # -- lifecycle -----------------------------------------------------
    def register(self, record: WorkerSpec) -> bool:
        """Admit (or refresh) a member; returns True for a new join."""
        now = self._clock()
        with self._lock:
            url = record.base_url
            joined = url not in self._members
            self._members[url] = _Member(record, now + self.lease_s)
            self._removed.pop(url, None)
            self._persist(url, record.to_dict())
        _count("joined" if joined else "rejoined")
        return joined

    def renew(self, host: str, port: int) -> bool:
        """Extend a member's lease; False for unknown members (expired,
        drained, or never registered) — the worker must re-register."""
        url = "http://%s:%d" % (host, int(port))
        now = self._clock()
        with self._lock:
            member = self._members.get(url)
            if member is None:
                _count("unknown_renewals")
                return False
            member.deadline_s = now + self.lease_s
        _count("renewals")
        return True

    def deregister(self, host: str, port: int):
        """Remove a member explicitly (graceful drain).

        Returns the removed :class:`WorkerSpec`, or None if unknown.
        """
        url = "http://%s:%d" % (host, int(port))
        now = self._clock()
        with self._lock:
            member = self._members.pop(url, None)
            if member is None:
                return None
            self._removed[url] = ("deregistered", now)
            self._persist(url, None)
        _count("deregistered")
        return member.record

    def expire_due(self):
        """Drop every member whose lease has lapsed; returns their records."""
        now = self._clock()
        expired = []
        with self._lock:
            for url, member in list(self._members.items()):
                if member.deadline_s <= now:
                    del self._members[url]
                    self._removed[url] = ("lease expired", now)
                    self._persist(url, None)
                    expired.append(member.record)
        if expired:
            _count("expired", len(expired))
        return expired

    # -- queries -------------------------------------------------------
    def members(self) -> list:
        """``(record, lease_remaining_s)`` pairs, registration order."""
        now = self._clock()
        with self._lock:
            return [
                (member.record, max(member.deadline_s - now, 0.0))
                for member in self._members.values()
            ]

    def is_member(self, url: str) -> bool:
        with self._lock:
            return url in self._members

    def __len__(self) -> int:
        with self._lock:
            return len(self._members)

    def removal_reason(self, url: str) -> str | None:
        """Why ``url`` left, if it did recently — lets a result proxy
        answer "requeue your shard" instead of "never heard of it"."""
        now = self._clock()
        with self._lock:
            for old_url, (_reason, at) in list(self._removed.items()):
                if now - at > REMOVAL_RETENTION_S:
                    del self._removed[old_url]
            entry = self._removed.get(url)
            return entry[0] if entry is not None else None

    # -- persistence ---------------------------------------------------
    def _persist(self, url: str, payload) -> None:
        if self._store is None:
            return
        try:
            self._store.append(url, payload)
        except OSError:
            _count("persist_errors")

    def rehydrate(self) -> list:
        """Rebuild membership from the persisted table after a restart.

        Every surviving member gets a full fresh lease — monotonic
        deadlines don't survive a process, and a live worker's next
        renewal (or the lease expiry) reconciles the rest.  Returns the
        rehydrated records.
        """
        if self._store is None:
            return []
        now = self._clock()
        records = []
        with self._lock:
            for _url, payload in self._store.entries().items():
                if payload is None:  # tombstone: deregistered or expired
                    continue
                try:
                    record = WorkerSpec.from_dict(payload)
                except ValueError:
                    continue
                self._members[record.base_url] = _Member(record, now + self.lease_s)
                records.append(record)
        if records:
            _count("rehydrated", len(records))
        return records

    def close(self) -> None:
        if self._store is not None:
            self._store.close()


class RegistrationClient:
    """Worker-side membership: announce at boot, renew, deregister.

    Runs a daemon thread.  Cadence is ``lease_s / 3`` (three missed
    heartbeats before expiry), where ``lease_s`` comes back from the
    gateway's register reply.  A 404 on renew means the gateway no
    longer knows us (lease expired while partitioned, or the gateway
    restarted without our tombstone) — the client transparently
    re-registers.  Transport errors retry on the next tick; the worker
    keeps serving either way.
    """

    def __init__(
        self,
        gateway_url: str,
        record: WorkerSpec,
        secret: str | None = None,
        timeout_s: float = 5.0,
    ):
        self.gateway_url = str(gateway_url).rstrip("/")
        self.record = record
        self.secret = secret
        self.timeout_s = timeout_s
        self.lease_s: float | None = None
        self._stop = threading.Event()
        self._registered = threading.Event()
        self._thread: threading.Thread | None = None

    def _count(self, event: str, n: float = 1) -> None:
        get_recorder().counters.add("fleet.worker." + event, n)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="fleet-membership"
        )
        self._thread.start()

    def wait_registered(self, timeout: float | None = None) -> bool:
        return self._registered.wait(timeout)

    def stop(self, deregister: bool = True) -> None:
        """Stop renewing; with ``deregister`` also leave the registry."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=self.timeout_s)
        if deregister and self._registered.is_set():
            self._registered.clear()
            try:
                http_json(
                    "POST",
                    self.gateway_url + "/deregister",
                    {"host": self.record.host, "port": self.record.port},
                    timeout=self.timeout_s,
                    secret=self.secret,
                )
                self._count("deregistered")
            except FleetTransportError:
                pass  # gateway gone; its lease expiry will clean up

    # -- the heartbeat loop --------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            self._stop.wait(self._tick())

    def _interval(self) -> float:
        lease = self.lease_s if self.lease_s else 1.5
        return max(0.05, lease / 3.0)

    def _tick(self) -> float:
        if not self._registered.is_set():
            return self._interval() if self._register() else 0.5
        self._renew()
        return self._interval()

    def _register(self) -> bool:
        payload = dict(self.record.to_dict())
        payload["version"] = self.record.version or code_version_hash()
        payload["protocol"] = PROTOCOL
        try:
            status, doc = http_json(
                "POST",
                self.gateway_url + "/register",
                payload,
                timeout=self.timeout_s,
                secret=self.secret,
            )
        except FleetTransportError:
            self._count("register_errors")
            return False
        if status == 200 and doc.get("ok"):
            lease = doc.get("lease_s")
            if lease:
                self.lease_s = float(lease)
            self._registered.set()
            self._count("registered")
            return True
        self._count("register_rejects")
        return False

    def _renew(self) -> None:
        try:
            status, doc = http_json(
                "POST",
                self.gateway_url + "/renew",
                {"host": self.record.host, "port": self.record.port},
                timeout=self.timeout_s,
                secret=self.secret,
            )
        except FleetTransportError:
            # Keep the lease claim; the gateway expires us if it's real.
            self._count("renew_errors")
            return
        if status == 200 and doc.get("ok"):
            lease = doc.get("lease_s")
            if lease:
                self.lease_s = float(lease)
            self._count("renewals")
            return
        if status == 404:
            # The gateway forgot us (expiry or restart): re-register.
            self._registered.clear()
            self._count("reregistrations")
            return
        self._count("renew_errors")


def local_member_record(
    host: str, port: int, weight: int = 1, advertise_host: str | None = None
) -> WorkerSpec:
    """The record a worker announces for itself.

    ``advertise_host`` overrides the bind host for registration —
    needed when binding a wildcard address that peers can't dial.
    """
    announce = advertise_host or host
    if announce in ("", "0.0.0.0", "::"):
        announce = "127.0.0.1"
    return WorkerSpec(
        host=announce,
        port=int(port),
        weight=int(weight),
        pid=os.getpid(),
        version=code_version_hash(),
    )
