"""Graceful drain: finish the in-flight job, hand it over, exit 0.

Drain is the *uncharged* decommission path — the opposite end of the
spectrum from SIGKILL.  These tests pin the lifecycle at the protocol
level (in-process) and the process level (SIGTERM → exit 0, CLI drain
of a registered worker deregisters it from the gateway).
"""

from __future__ import annotations

import subprocess
import sys
import time

from repro.core.memo import code_version_hash
from repro.fleet.wire import (
    PROTOCOL,
    FleetTransportError,
    decode_obj,
    encode_obj,
    http_json,
)
from tests.fleet.conftest import REPO_ROOT, FleetHarness, fleet_env


def _envelope(fn, *args, **kwargs):
    return {
        "protocol": PROTOCOL,
        "version": code_version_hash(),
        "init": None,
        "fn": encode_obj(fn),
        "args": encode_obj(args),
        "kwargs": encode_obj(kwargs),
    }


def _nap(seconds):
    time.sleep(seconds)
    return "rested"


def _wait(predicate, timeout: float = 15.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError("%s not reached in %gs" % (message, timeout))


class TestDrainProtocol:
    def test_drain_finishes_inflight_job_then_exits(self, worker_servers):
        (server,) = worker_servers(1, drain_grace_s=10.0)
        url = "http://127.0.0.1:%d" % server.port
        status, doc = http_json("POST", url + "/run", _envelope(_nap, 0.4))
        assert status == 200
        job = doc["job"]

        status, drain_doc = http_json("POST", url + "/drain", {})
        assert status == 200 and drain_doc["draining"] is True

        # New work is refused with the draining marker (uncharged path)…
        status, doc = http_json("POST", url + "/run", _envelope(_nap, 0.1))
        assert status == 503 and doc.get("draining") is True

        # …and /health advertises the drain so probes skip this worker.
        status, health = http_json("GET", url + "/health")
        assert status == 200 and health["draining"] is True

        # The in-flight job still completes and hands over its result.
        record = None
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            status, record = http_json("GET", "%s/result?job=%s" % (url, job))
            if status != 200 or record.get("status") != "pending":
                break
            time.sleep(0.02)
        assert status == 200 and record["status"] == "done"
        assert decode_obj(record["value"]) == "rested"

        # With the result fetched the server shuts itself down.
        def gone():
            try:
                http_json("GET", url + "/health", timeout=1.0)
                return False
            except Exception:
                return True

        _wait(gone, message="worker shutdown after drain")

    def test_drain_is_idempotent(self, worker_servers):
        (server,) = worker_servers(1)
        url = "http://127.0.0.1:%d" % server.port

        def refused_promptly(method, route, payload=None):
            """True if the worker refused the request (it has exited).

            A drained worker closes its listening socket, so a refusal
            must come at once; a request left to wait out the client
            timeout fails the test.
            """
            start = time.monotonic()
            try:
                status, doc = http_json(method, url + route, payload, timeout=2.0)
            except FleetTransportError:
                elapsed = time.monotonic() - start
                assert elapsed < 1.0, "refusal took %.2fs" % elapsed
                return True
            assert status == 200 and doc.get("ok", True)
            return False

        for _ in range(3):
            if refused_promptly("POST", "/drain", {}):
                break  # already exited: also fine
        _wait(
            lambda: refused_promptly("GET", "/health"),
            message="prompt refusal after drain",
        )


class TestDrainProcess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        harness = FleetHarness(tmp_path)
        try:
            harness.start_worker()
            harness.sigterm_worker(0)
            assert harness.wait_worker_exit(0, timeout=30.0) == 0
        finally:
            harness.stop()

    def test_cli_drain_deregisters_from_gateway(self, tmp_path):
        harness = FleetHarness(tmp_path)
        try:
            harness.start_gateway(include_workers=False, lease_s=5.0)
            harness.start_worker(register=True)
            harness.wait_members(1)

            _proc, port = harness.workers[0]
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro", "fleet", "drain",
                    "--url", "http://127.0.0.1:%d" % port,
                ],
                env=fleet_env(),
                cwd=str(REPO_ROOT),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert result.returncode == 0, result.stderr
            assert "draining" in result.stdout

            assert harness.wait_worker_exit(0, timeout=30.0) == 0
            # Deregistered: the gateway's member table empties without
            # waiting out the lease (5s would not have elapsed yet).
            status = harness.gateway_status()
            assert status["membership"]["members"] == 0
        finally:
            harness.stop()
