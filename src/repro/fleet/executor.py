"""FleetExecutor: the remote fleet behind ResilientMap's pool_factory seam.

The executor presents the ``ProcessPoolExecutor`` surface ResilientMap
drives — ``submit`` returning futures, ``shutdown`` — plus the explicit
teardown protocol (``kill``/``processes``) that
:meth:`repro.core.resilience.ResilientMap._kill_pool` prefers over
private-attribute discovery.  Each submitted item gets a daemon thread
that posts the job to the manifest's gateway (``POST /run``), polls the
gateway's ``/result`` proxy, and resolves a standard
:class:`concurrent.futures.Future`.  Worker choice, eviction and revival
are the gateway's: it runs the fleet's only dispatcher.

Failure mapping is the whole point — ResilientMap must not be able to
tell a fleet from a local pool:

- Every worker busy (503): the client waits and re-posts; no attempt is
  charged, just as the local pool queues work it hasn't started.  A
  worker that is draining or unreachable before it accepts a job is
  skipped by the gateway, also uncharged.
- Worker dies *after* accepting (the result poll fails): the future
  raises, the attempt is charged, ResilientMap retries on a sibling —
  the exact shape of a crashed pool process.
- Remote exception: unpickled and re-raised as the original type, so
  failure records and ``raise_failures`` behave identically to local.
- Whole fleet dead (the gateway's 502 ``no_workers`` reply):
  :class:`FleetNoWorkersError` per attempt until the retry budget
  exhausts and the item quarantines (degraded aggregates), instead of
  hanging the sweep.
- ResilientMap timeout: ``_kill_pool`` calls :meth:`FleetExecutor.kill`,
  which aborts the poll threads; the respawned executor receives the
  resubmitted survivors.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from pathlib import Path
from urllib.parse import quote

from repro.core.memo import code_version_hash
from repro.fleet.manifest import FleetManifest
from repro.fleet.wire import (
    PROTOCOL,
    FleetError,
    FleetNoWorkersError,
    FleetTransportError,
    FleetVersionError,
    FleetWorkerError,
    decode_obj,
    encode_obj,
    http_json,
)


class FleetExecutor:
    """Executor-protocol adapter from futures to fleet HTTP jobs."""

    def __init__(
        self,
        manifest: FleetManifest,
        initializer=None,
        initargs=(),
        secret: str | None = None,
    ):
        self.manifest = manifest
        self.secret = secret
        self._gateway_url = manifest.gateway.base_url
        self._init_payload = (
            encode_obj((initializer, tuple(initargs)))
            if initializer is not None
            else None
        )
        self._abort = threading.Event()
        self._threads = []
        self._lock = threading.Lock()

    # -- executor protocol ---------------------------------------------
    def submit(self, fn, *args, **kwargs) -> Future:
        future = Future()
        if not future.set_running_or_notify_cancel():  # pragma: no cover
            return future
        thread = threading.Thread(
            target=self._drive, args=(future, fn, args, kwargs), daemon=True
        )
        with self._lock:
            self._threads.append(thread)
        thread.start()
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        if cancel_futures:
            self._abort.set()
        if wait:
            with self._lock:
                threads = list(self._threads)
            for thread in threads:
                thread.join()

    def kill(self) -> None:
        """Teardown protocol: abort every in-flight poll thread.

        Called by ResilientMap's ``_kill_pool`` on timeout.  The remote
        workers themselves are left alone — a worker still chewing on an
        abandoned job finishes it and frees its slot; its result is
        simply never fetched.
        """
        self._abort.set()

    def processes(self) -> list:
        """Teardown protocol: no local worker processes to terminate."""
        return []

    # -- job lifecycle -------------------------------------------------
    def _drive(self, future: Future, fn, args, kwargs) -> None:
        try:
            value = self._run_job(fn, args, kwargs)
        except BaseException as exc:  # noqa: BLE001 - delivered via future
            future.set_exception(exc)
        else:
            future.set_result(value)

    def _check_abort(self) -> None:
        if self._abort.is_set():
            raise FleetError("fleet executor torn down")

    def _run_job(self, fn, args, kwargs):
        envelope = {
            "protocol": PROTOCOL,
            "version": code_version_hash(),
            "init": self._init_payload,
            "fn": encode_obj(fn),
            "args": encode_obj(args),
            "kwargs": encode_obj(kwargs),
        }
        timeout = self.manifest.request_timeout_s
        poll = self.manifest.poll_interval_s
        while True:
            self._check_abort()
            result_url = self._place(envelope, timeout)
            if result_url is not None:
                return self._poll(result_url, timeout, poll)
            time.sleep(poll)  # every worker busy right now

    def _place(self, envelope: dict, timeout: float):
        """Start the job through the gateway.

        Returns the gateway's result URL for it, or ``None`` when the
        fleet is alive but fully busy (caller sleeps and retries).
        Raises when the attempt should be charged.
        """
        status, doc = http_json(
            "POST",
            self._gateway_url + "/run",
            envelope,
            timeout=timeout,
            secret=self.secret,
        )
        if status == 503:
            return None
        if status == 409:
            raise FleetVersionError(str(doc.get("error")))
        if status == 502 and doc.get("no_workers"):
            raise FleetNoWorkersError(str(doc.get("error")))
        if status != 200:
            raise FleetWorkerError(
                "gateway refused job (%d): %s" % (status, doc.get("error"))
            )
        return "%s/result?worker=%s&job=%s" % (
            self._gateway_url,
            quote(str(doc["worker"]), safe=""),
            doc["job"],
        )

    def _poll(self, result_url: str, timeout: float, poll: float):
        while True:
            self._check_abort()
            time.sleep(poll)
            try:
                status, record = http_json(
                    "GET", result_url, timeout=timeout, secret=self.secret
                )
            except FleetTransportError as exc:
                raise FleetWorkerError("result poll failed: %s" % exc) from exc
            if status != 200:
                raise FleetWorkerError(
                    "result fetch failed (%d): %s" % (status, record.get("error"))
                )
            state = record.get("status")
            if state == "pending":
                continue
            if state == "done":
                return decode_obj(record["value"])
            if state == "error":
                payload = record.get("error")
                if payload:
                    try:
                        exc = decode_obj(payload)
                    except Exception:
                        exc = None
                    if isinstance(exc, BaseException):
                        raise exc
                raise FleetWorkerError(
                    "remote job failed: %s" % record.get("repr")
                )
            raise FleetWorkerError("unexpected result record %r" % (record,))


def fleet_pool_factory(manifest):
    """A ``pool_factory`` for ResilientMap backed by a worker fleet.

    ``manifest`` is a :class:`FleetManifest` or a path to one.  Every
    (re)spawned :class:`FleetExecutor` sends its jobs through the
    manifest's gateway, whose dispatcher keeps worker-eviction state
    across timeout teardowns.  Fleet workers run the map's
    ``worker_init``: the same wrapped set-up a local pool worker runs.
    """
    if isinstance(manifest, (str, Path)):
        manifest = FleetManifest.load(manifest)
    secret = manifest.load_secret()

    def factory(mapper) -> FleetExecutor:
        initializer, initargs = mapper.worker_init
        return FleetExecutor(
            manifest,
            initializer=initializer,
            initargs=initargs,
            secret=secret,
        )

    return factory
