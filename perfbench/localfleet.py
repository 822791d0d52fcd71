"""A loopback fleet for the ``sweep_fleet`` workload: gateway + 2 workers.

The stack is booted through the CLI, as a deployment would: the gateway
first with an elastic manifest (no static workers), then two workers
that join with ``--register``; every request is HMAC-signed with a
per-run secret.  Set-up waits on events only: each process's port file,
then the gateway reporting both workers as alive members.  Every wait has a deadline
and fails at once when the process it waits for has exited.

The processes share the load process's process group, so whoever kills
that group (the benchmark harness on a timeout) kills the fleet with it.
"""

from __future__ import annotations

import json
import os
import secrets
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKERS = 2
LEASE_S = 5.0
BOOT_DEADLINE_S = 60.0
POLL_S = 0.01


class FleetBootError(RuntimeError):
    pass


class LocalFleet:
    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.procs = []
        self.secret = secrets.token_hex(16)
        self._logs = []

    def _spawn(self, argv, name):
        log = open(self.directory / (name + ".log"), "w")
        self._logs.append(log)
        env = dict(os.environ, REPRO_FLEET_SECRET=self.secret)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet"] + argv,
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
        self.procs.append(proc)
        return proc

    def _wait(self, what, ready, procs, deadline):
        while True:
            value = ready()
            if value:
                return value
            for proc in procs:
                if proc.poll() is not None:
                    raise FleetBootError(
                        "%s: process %d exited with %d (logs in %s)"
                        % (what, proc.pid, proc.returncode, self.directory)
                    )
            if time.monotonic() > deadline:
                raise FleetBootError("%s: not ready after %gs" % (what, BOOT_DEADLINE_S))
            time.sleep(POLL_S)

    def _port(self, path, proc, deadline) -> int:
        def ready():
            try:
                return int(path.read_text())
            except (FileNotFoundError, ValueError):
                return 0

        return self._wait("port file %s" % path.name, ready, [proc], deadline)

    def _write_manifest(self, port: int) -> Path:
        secret_file = self.directory / "fleet.secret"
        secret_file.write_text(self.secret)
        path = self.directory / "fleet.json"
        path.write_text(json.dumps({
            "workers": [],
            "gateway": {"host": "127.0.0.1", "port": port},
            "lease_s": LEASE_S,
            "secret_file": str(secret_file),
        }))
        return path

    def start(self):
        """Boot the stack; returns the client's ``FleetManifest``."""
        from repro.fleet.manifest import FleetManifest
        from repro.fleet.wire import FleetTransportError, http_json

        shutil.rmtree(self.directory, ignore_errors=True)
        self.directory.mkdir(parents=True)
        deadline = time.monotonic() + BOOT_DEADLINE_S
        manifest = self._write_manifest(0)
        gateway = self._spawn(
            ["serve", "--fleet", str(manifest), "--port", "0",
             "--port-file", str(self.directory / "gateway.port"),
             "--cache-dir", str(self.directory / "gateway-cache")],
            "gateway",
        )
        port = self._port(self.directory / "gateway.port", gateway, deadline)
        url = "http://127.0.0.1:%d" % port
        workers = [
            self._spawn(
                ["worker", "--port", "0",
                 "--port-file", str(self.directory / ("worker-%d.port" % i)),
                 "--register", url],
                "worker-%d" % i,
            )
            for i in range(WORKERS)
        ]
        expected = {
            "http://127.0.0.1:%d"
            % self._port(self.directory / ("worker-%d.port" % i), proc, deadline)
            for i, proc in enumerate(workers)
        }

        def members():
            try:
                status, doc = http_json(
                    "GET", url + "/status", timeout=2.0, secret=self.secret
                )
            except FleetTransportError:
                return False
            alive = {w.get("url") for w in doc.get("workers", []) if w.get("alive")}
            return status == 200 and alive == expected

        self._wait("gateway members", members, self.procs, deadline)
        return FleetManifest.load(self._write_manifest(port))

    def alive(self) -> bool:
        return all(proc.poll() is None for proc in self.procs)

    def stop(self) -> None:
        """Terminate every process, escalating to SIGKILL, and reap them."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self._logs:
            log.close()
        self.procs, self._logs = [], []
