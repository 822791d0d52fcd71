"""Fixtures for the distributed sweep fleet tests.

Three tiers of infrastructure:

- In-process servers (:func:`worker_servers`, :func:`gateway_server`):
  ``WorkerServer`` / ``GatewayServer`` instances on daemon threads, for
  protocol-level unit tests where real process isolation isn't the point.
- In-process fleets (:func:`inprocess_fleet`): in-process workers behind
  an in-process gateway, for executor tests.
- Subprocess fleets (:func:`make_fleet`): real ``python -m repro fleet
  worker`` / ``fleet serve`` processes bound to ephemeral ports, always
  fronted by a gateway (every fleet job goes through one), for the
  fault suite — killing a worker must kill a *process*, and fault plans
  (``REPRO_FAULT_PLAN``) must be inherited at spawn.  Workers can be
  started static (listed in the manifest) or elastic
  (``start_worker(register=True)`` → ``--register`` against the
  gateway), and SIGSTOP/SIGCONT helpers simulate partitions for the
  lease-expiry tests.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.fleet.manifest import FleetManifest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Client-side knobs tuned for loopback latencies.
FAST_KNOBS = {
    "poll_interval_s": 0.02,
    "probe_interval_s": 0.2,
    "request_timeout_s": 10.0,
}


def fleet_env(extra=None) -> dict:
    """Subprocess env: repro importable, tests unpicklable-by-reference."""
    env = dict(os.environ)
    parts = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    if extra:
        env.update(extra)
    return env


def wait_for_port_file(path: Path, timeout: float = 30.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists():
            text = path.read_text().strip()
            if text:
                return int(text)
        time.sleep(0.02)
    raise RuntimeError("no port file at %s after %gs" % (path, timeout))


class FleetHarness:
    """Spawn and manage a loopback fleet of real subprocesses."""

    def __init__(self, tmp_path: Path, env_extra=None):
        self.tmp_path = Path(tmp_path)
        self.env = fleet_env(env_extra)
        self.workers = []  # (Popen, port)
        self.gateway = None  # (Popen, port)
        self.gateway_cache_dir = self.tmp_path / "gateway-cache"
        self._seq = 0

    # -- processes -----------------------------------------------------
    def _spawn(self, argv, log_name: str) -> subprocess.Popen:
        log = open(self.tmp_path / log_name, "wb")
        return subprocess.Popen(
            [sys.executable, "-m", "repro"] + argv,
            env=self.env,
            cwd=str(REPO_ROOT),
            stdout=log,
            stderr=subprocess.STDOUT,
        )

    def start_worker(self, register: bool = False, extra_args=()) -> int:
        self._seq += 1
        port_file = self.tmp_path / ("worker-%d.port" % self._seq)
        argv = ["fleet", "worker", "--port", "0", "--port-file", str(port_file)]
        if register:
            assert self.gateway is not None, "start_gateway() first"
            argv += ["--register", "http://127.0.0.1:%d" % self.gateway[1]]
        argv += list(extra_args)
        proc = self._spawn(argv, "worker-%d.log" % self._seq)
        port = wait_for_port_file(port_file)
        self.workers.append((proc, port))
        return port

    def start_gateway(
        self, port: int = 0, include_workers: bool = True, **overrides
    ) -> int:
        manifest_path = self.write_manifest(
            name="gateway-manifest.json",
            include_workers=include_workers,
            # The gateway's own manifest names it too; port 0 is a
            # placeholder (the bound port comes from --port).
            gateway_port=0,
            **overrides,
        )
        self._seq += 1
        port_file = self.tmp_path / ("gateway-%d.port" % self._seq)
        proc = self._spawn(
            [
                "fleet", "serve", "--fleet", str(manifest_path),
                "--port", str(port), "--port-file", str(port_file),
                "--cache-dir", str(self.gateway_cache_dir),
            ],
            "gateway-%d.log" % self._seq,
        )
        bound = wait_for_port_file(port_file)
        self.gateway = (proc, bound)
        return bound

    def kill_worker(self, index: int) -> None:
        proc, _port = self.workers[index]
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)

    def sigstop_worker(self, index: int) -> None:
        """Freeze a worker process: the loopback analogue of a partition
        (TCP connects still succeed, nothing answers, leases lapse)."""
        proc, _port = self.workers[index]
        proc.send_signal(signal.SIGSTOP)

    def sigcont_worker(self, index: int) -> None:
        proc, _port = self.workers[index]
        proc.send_signal(signal.SIGCONT)

    def sigterm_worker(self, index: int) -> None:
        proc, _port = self.workers[index]
        proc.send_signal(signal.SIGTERM)

    def drain_worker(self, index: int, secret=None) -> None:
        from repro.fleet.wire import http_json

        _proc, port = self.workers[index]
        status, doc = http_json(
            "POST",
            "http://127.0.0.1:%d/drain" % port,
            {},
            timeout=5.0,
            secret=secret,
        )
        assert status == 200 and doc.get("ok"), doc

    def wait_worker_exit(self, index: int, timeout: float = 30.0) -> int:
        proc, _port = self.workers[index]
        return proc.wait(timeout=timeout)

    def kill_gateway(self) -> None:
        assert self.gateway is not None
        proc, _port = self.gateway
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        self.gateway = None

    def gateway_status(self, secret=None) -> dict:
        from repro.fleet.wire import http_json

        assert self.gateway is not None
        status, doc = http_json(
            "GET",
            "http://127.0.0.1:%d/status" % self.gateway[1],
            timeout=5.0,
            secret=secret,
        )
        assert status == 200, doc
        return doc

    def wait_members(self, n: int, timeout: float = 30.0, secret=None) -> dict:
        """Block until the gateway reports ``n`` alive members."""
        deadline = time.monotonic() + timeout
        last = {}
        while time.monotonic() < deadline:
            last = self.gateway_status(secret=secret)
            alive = [w for w in last.get("workers", []) if w.get("alive")]
            if len(alive) == n:
                return last
            time.sleep(0.1)
        raise AssertionError(
            "gateway never reported %d alive members; last status: %r" % (n, last)
        )

    def stop(self) -> None:
        procs = [proc for proc, _ in self.workers]
        if self.gateway is not None:
            procs.append(self.gateway[0])
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGCONT)  # un-freeze SIGSTOP'd ones
                proc.send_signal(signal.SIGKILL)
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass

    # -- manifests -----------------------------------------------------
    def manifest_doc(
        self, include_workers: bool = True, gateway_port=None, **overrides
    ) -> dict:
        doc = dict(FAST_KNOBS)
        doc.update(overrides)
        doc["workers"] = (
            [{"host": "127.0.0.1", "port": port} for _proc, port in self.workers]
            if include_workers
            else []
        )
        if gateway_port is None:
            assert self.gateway is not None, "start_gateway() first"
            gateway_port = self.gateway[1]
        doc["gateway"] = {"host": "127.0.0.1", "port": gateway_port}
        return doc

    def manifest(self, **overrides) -> FleetManifest:
        """The client manifest: the running gateway plus its workers."""
        return FleetManifest.from_dict(self.manifest_doc(**overrides))

    def write_manifest(self, name: str = "fleet.json", **overrides) -> Path:
        import json

        path = self.tmp_path / name
        path.write_text(json.dumps(self.manifest_doc(**overrides)))
        return path


@pytest.fixture
def make_fleet(tmp_path):
    """Factory: ``make_fleet(n_workers, env_extra=...)``, static workers
    behind a gateway."""
    harnesses = []

    def factory(n_workers: int, env_extra=None) -> FleetHarness:
        harness = FleetHarness(tmp_path, env_extra=env_extra)
        harnesses.append(harness)
        for _ in range(n_workers):
            harness.start_worker()
        harness.start_gateway()
        return harness

    yield factory
    for harness in harnesses:
        harness.stop()


@pytest.fixture
def worker_servers():
    """Factory for in-process WorkerServers on daemon threads."""
    from repro.fleet.worker import WorkerServer

    servers = []

    def factory(n: int = 1, **kwargs):
        batch = []
        for _ in range(n):
            server = WorkerServer("127.0.0.1", 0, **kwargs)
            threading.Thread(
                target=server.serve_forever,
                kwargs={"poll_interval": 0.02},
                daemon=True,
            ).start()
            servers.append(server)
            batch.append(server)
        return batch

    yield factory
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def gateway_server(tmp_path):
    """Factory for an in-process GatewayServer on a daemon thread."""
    from repro.fleet.gateway import GatewayServer

    servers = []

    def factory(manifest, secret=None, cache_dir=None) -> "GatewayServer":
        server = GatewayServer(
            manifest,
            "127.0.0.1",
            0,
            cache_dir=cache_dir or tmp_path / ("gwcache-%d" % len(servers)),
            secret=secret,
        )
        threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.02},
            daemon=True,
        ).start()
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.shutdown()
        server.server_close()


def inprocess_manifest(servers, gateway_port=0, **overrides) -> FleetManifest:
    """A manifest over in-process workers; ``gateway_port=0`` is a
    placeholder for a gateway's own manifest."""
    return _static_manifest(
        [server.port for server in servers], gateway_port, **overrides
    )


def _static_manifest(ports, gateway_port, **overrides) -> FleetManifest:
    doc = dict(FAST_KNOBS)
    doc.update(overrides)
    doc["workers"] = [{"host": "127.0.0.1", "port": port} for port in ports]
    doc["gateway"] = {"host": "127.0.0.1", "port": gateway_port}
    return FleetManifest.from_dict(doc)


@pytest.fixture
def inprocess_fleet(worker_servers, gateway_server):
    """Factory: ``inprocess_fleet(n, dead_ports=(), secret=None, **knobs)``
    starts ``n`` in-process workers behind an in-process gateway and
    returns the client manifest.  ``dead_ports`` adds static members
    nothing listens on; ``secret`` signs the workers and the gateway."""

    def factory(
        n: int = 1, dead_ports=(), secret=None, **overrides
    ) -> FleetManifest:
        servers = worker_servers(n, secret=secret)
        ports = [server.port for server in servers] + list(dead_ports)
        gateway = gateway_server(
            _static_manifest(ports, 0, **overrides), secret=secret
        )
        return _static_manifest(ports, gateway.port, **overrides)

    return factory


def elastic_manifest(gateway_port: int, **overrides) -> FleetManifest:
    """A manifest with no static workers — gateway-only, elastic."""
    doc = dict(FAST_KNOBS)
    doc.update(overrides)
    doc["workers"] = []
    doc["gateway"] = {"host": "127.0.0.1", "port": gateway_port}
    return FleetManifest.from_dict(doc)
