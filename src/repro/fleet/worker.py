"""The fleet worker: one process, one HTTP endpoint, one execution slot.

A worker is the remote analogue of a single ``ProcessPoolExecutor``
worker process.  It deliberately runs **one job at a time**: the sweep
worker functions it executes (:mod:`repro.core.runner`,
:mod:`repro.analysis.cachesweep`) cache their engine/evaluator state in
per-process globals, so concurrent execution inside one process would
race.  Scaling happens by running more worker processes, not more
threads — exactly the replicate-don't-share design of the local pool.

Endpoints:

- ``GET /health`` — liveness + identity: pid, busy flag, code version,
  and whether the worker is ``draining``.
- ``POST /run`` — accept a job envelope (:mod:`repro.fleet.wire`).
  Replies 409 when the client's ``code_version_hash`` differs (divergent
  trees must not silently compute different numbers), 503 when the slot
  is busy (the client waits — a job is never queued behind another, so a
  timed-out client can't leave a ghost job racing its retry) or the
  worker is draining (``{"draining": true}`` — the client re-places the
  shard on a sibling uncharged), else ``{"job": <id>}`` and the job runs
  on a background thread.
- ``GET /result?job=<id>`` — poll: ``pending``, ``done`` (+ pickled
  value), or ``error`` (+ pickled exception, so the client re-raises the
  original type just like a local future).  Fetching a finished result
  **evicts** the record (each job has exactly one driving client); a
  record whose client never comes back — it timed out and re-placed the
  shard — is TTL-expired (``jobs_ttl_s``, counter
  ``fleet.worker.jobs_expired``), so a long-lived worker's job table
  stays bounded.

The initializer travels with every job but only runs when its pickled
fingerprint changes — the remote equivalent of the pool running the
initializer once per worker process, amortized across a whole sweep.

**Graceful drain** (SIGTERM or ``POST /drain``): the worker stops
accepting jobs, finishes its in-flight job, waits for the result to be
fetched (bounded by ``drain_grace_s``), deregisters from its gateway if
it joined one, and exits 0 — the *uncharged* decommission path, distinct
from a crash.

Started with ``--register <gateway>``, the worker announces itself to
the gateway at boot and renews a heartbeat lease
(:class:`repro.fleet.membership.RegistrationClient`), so elastic fleets
need no static worker list.
"""

from __future__ import annotations

import threading
import time
import os
import signal
import uuid
from http.server import ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from repro.core.memo import code_version_hash
from repro.fleet.wire import (
    FLEET_SECRET_ENV,
    PROTOCOL,
    JsonRequestHandler,
    decode_obj,
    encode_obj,
)
from repro.obs.recorder import get_recorder


class _WorkerState:
    """Mutable slot/job bookkeeping shared across handler threads."""

    def __init__(self, jobs_ttl_s: float = 600.0):
        self.lock = threading.Lock()
        self.busy = False
        self.jobs = {}
        self.done_s = {}  # job_id -> monotonic finish time, for TTL expiry
        self.jobs_ttl_s = jobs_ttl_s
        self.init_fingerprint = None
        self.started_s = time.monotonic()
        self.completed = 0
        self.draining = False

    def _count(self, event: str, n: float = 1) -> None:
        get_recorder().counters.add("fleet.worker." + event, n)

    def expire_jobs(self) -> None:
        """Drop finished records whose client never fetched them."""
        now = time.monotonic()
        with self.lock:
            stale = [
                job_id
                for job_id, at in self.done_s.items()
                if now - at > self.jobs_ttl_s
            ]
            for job_id in stale:
                self.jobs.pop(job_id, None)
                self.done_s.pop(job_id, None)
        if stale:
            self._count("jobs_expired", len(stale))


def _run_job(state: _WorkerState, job_id: str, envelope: dict) -> None:
    """Execute one decoded job envelope; always releases the slot."""
    try:
        init_payload = envelope.get("init")
        if init_payload is not None and init_payload != state.init_fingerprint:
            initializer, initargs = decode_obj(init_payload)
            if initializer is not None:
                initializer(*initargs)
            state.init_fingerprint = init_payload
        fn = decode_obj(envelope["fn"])
        args = decode_obj(envelope.get("args") or encode_obj(()))
        kwargs = decode_obj(envelope.get("kwargs") or encode_obj({}))
        value = fn(*args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - shipped to the client
        try:
            error_payload = encode_obj(exc)
        except Exception:
            error_payload = None
        with state.lock:
            state.jobs[job_id] = {
                "status": "error",
                "error": error_payload,
                "repr": repr(exc),
            }
            state.done_s[job_id] = time.monotonic()
            state.busy = False
        state._count("errors")
    else:
        with state.lock:
            state.jobs[job_id] = {"status": "done", "value": encode_obj(value)}
            state.done_s[job_id] = time.monotonic()
            state.busy = False
            state.completed += 1
        state._count("jobs")


class _WorkerHandler(JsonRequestHandler):
    counter_ns = "fleet.worker."

    # -- routes --------------------------------------------------------
    def route_get(self, body: bytes) -> None:
        state = self.server.state
        state.expire_jobs()
        url = urlparse(self.path)
        if url.path == "/health":
            with state.lock:
                busy = state.busy
                completed = state.completed
                draining = state.draining
            self._reply(
                200,
                {
                    "ok": True,
                    "role": "worker",
                    "pid": os.getpid(),
                    "busy": busy,
                    "draining": draining,
                    "slots": 1,
                    "completed": completed,
                    "uptime_s": round(time.monotonic() - state.started_s, 3),
                    "version": code_version_hash(),
                    "protocol": PROTOCOL,
                },
            )
            return
        if url.path == "/result":
            job_id = (parse_qs(url.query).get("job") or [None])[0]
            if job_id is None:
                self._reply(400, {"error": "missing 'job' query parameter"})
                return
            with state.lock:
                record = state.jobs.get(job_id)
                if record is not None and record.get("status") != "pending":
                    # Single consumer: hand the result over exactly once.
                    del state.jobs[job_id]
                    state.done_s.pop(job_id, None)
            if record is None:
                self._reply(404, {"error": "unknown job %r" % job_id})
                return
            self._reply(200, record)
            return
        self._reply(404, {"error": "unknown path %r" % url.path})

    def route_post(self, body: bytes) -> None:
        state = self.server.state
        state.expire_jobs()
        url = urlparse(self.path)
        if url.path == "/drain":
            self.server.begin_drain("POST /drain")
            self._reply(200, {"ok": True, "draining": True})
            return
        if url.path != "/run":
            self._reply(404, {"error": "unknown path %r" % url.path})
            return
        envelope = self._json(body)
        if not isinstance(envelope, dict):
            self._reply(400, {"error": "malformed job envelope"})
            return
        if envelope.get("protocol") != PROTOCOL:
            self._reply(
                400,
                {"error": "unsupported protocol %r" % envelope.get("protocol")},
            )
            return
        version = code_version_hash()
        if envelope.get("version") != version:
            state._count("version_rejects")
            self._reply(
                409,
                {
                    "error": "code version mismatch: worker runs %s, client sent %s"
                    % (version, envelope.get("version")),
                    "version": version,
                },
            )
            return
        with state.lock:
            if state.draining:
                state._count("drain_rejects")
                self._reply(503, {"error": "draining", "draining": True})
                return
            if state.busy:
                self._reply(503, {"error": "busy", "slots": 1})
                state._count("busy_rejects")
                return
            state.busy = True
            job_id = uuid.uuid4().hex
            state.jobs[job_id] = {"status": "pending"}
        thread = threading.Thread(
            target=_run_job, args=(state, job_id, envelope), daemon=True
        )
        thread.start()
        self._reply(200, {"job": job_id})


class WorkerServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        secret: str | None = None,
        jobs_ttl_s: float = 600.0,
        drain_grace_s: float = 30.0,
    ):
        super().__init__((host, port), _WorkerHandler)
        self.state = _WorkerState(jobs_ttl_s=jobs_ttl_s)
        self.secret = secret
        self.drain_grace_s = drain_grace_s
        self.registration = None  # RegistrationClient when --register'd
        self._drain_lock = threading.Lock()
        self._drain_started = False

    @property
    def port(self) -> int:
        return self.server_address[1]

    def begin_drain(self, reason: str = "") -> None:
        """Stop accepting jobs; finish + hand over the in-flight one; exit.

        Idempotent and non-blocking: the wait happens on a helper thread
        (SIGTERM handlers run on the main thread, which is inside
        ``serve_forever``).
        """
        with self._drain_lock:
            if self._drain_started:
                return
            self._drain_started = True
        with self.state.lock:
            self.state.draining = True
        self.state._count("drains")
        threading.Thread(
            target=self._drain_and_exit, args=(reason,), daemon=True
        ).start()

    def _drain_and_exit(self, reason: str) -> None:
        deadline = time.monotonic() + self.drain_grace_s
        while time.monotonic() < deadline:
            with self.state.lock:
                # Done when the slot is free and every finished result
                # has been fetched (pending entries ride with busy).
                unfetched = [
                    job
                    for job, record in self.state.jobs.items()
                    if record.get("status") != "pending"
                ]
                if not self.state.busy and not unfetched:
                    break
            time.sleep(0.05)
        if self.registration is not None:
            self.registration.stop(deregister=True)
        print(
            "fleet worker pid=%d drained (%s)" % (os.getpid(), reason or "requested"),
            flush=True,
        )
        self.shutdown()
        # Refuse later connections at once instead of leaving them
        # queued on a socket nobody accepts from.
        self.server_close()


def write_port_file(path, port: int) -> None:
    """Publish the bound port atomically (tmp + rename) for launchers."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp.%d" % os.getpid())
    tmp.write_text("%d\n" % port)
    os.replace(tmp, path)


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    port_file=None,
    register: str | None = None,
    advertise_host: str | None = None,
    weight: int = 1,
    secret: str | None = None,
    jobs_ttl_s: float = 600.0,
    drain_grace_s: float = 30.0,
) -> None:
    """Run a worker until interrupted or drained.

    ``port=0`` binds an ephemeral port.  With ``register`` the worker
    announces itself to that gateway URL and renews a heartbeat lease.
    SIGTERM triggers a graceful drain (finish the in-flight job,
    deregister, exit 0) instead of the crash-dump exit.
    """
    from repro.core.resilience import install_worker_fault_handlers
    from repro.fleet.membership import RegistrationClient, local_member_record

    install_worker_fault_handlers()
    if secret:
        # Jobs read the process's secret (load_secret) to sign their own
        # gateway requests, such as the shared cache's.
        os.environ[FLEET_SECRET_ENV] = secret
    server = WorkerServer(
        host,
        port,
        secret=secret,
        jobs_ttl_s=jobs_ttl_s,
        drain_grace_s=drain_grace_s,
    )
    # Replace the fault handlers' dump-and-exit SIGTERM with graceful
    # drain — for a fleet worker, SIGTERM means "decommission", and the
    # client must be able to collect the in-flight result first.
    try:
        signal.signal(signal.SIGTERM, lambda signum, frame: server.begin_drain("SIGTERM"))
    except (ValueError, OSError):
        pass  # not the main thread (in-process tests): /drain still works
    if port_file is not None:
        write_port_file(port_file, server.port)
    if register:
        record = local_member_record(
            host, server.port, weight=weight, advertise_host=advertise_host
        )
        server.registration = RegistrationClient(register, record, secret=secret)
        server.registration.start()
    print("fleet worker pid=%d listening on http://%s:%d" % (os.getpid(), host, server.port), flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        if server.registration is not None:
            server.registration.stop(deregister=True)
        server.server_close()
