"""Hostile-input handling on worker and gateway routes.

A fleet endpoint on a shared machine sees truncated bodies, garbage
headers, and half-requests.  The contract: every malformed request gets
a clean 4xx JSON answer — never a traceback, never a hung handler, and
never a poisoned execution slot (the next well-formed request must
succeed).
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.core.memo import code_version_hash
from repro.fleet.wire import PROTOCOL, decode_obj, encode_obj, http_json
from tests.fleet.conftest import elastic_manifest


def _raw_request(port: int, text: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes, half-close, read the full response."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(text)
        # Half-close: the server sees EOF instead of blocking on a body
        # that will never arrive, and we can still read its answer.
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _status_of(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def _post(port: int, path: str, body: bytes, headers=()) -> bytes:
    lines = [
        b"POST " + path.encode() + b" HTTP/1.1",
        b"Host: 127.0.0.1",
        b"Connection: close",
    ]
    lines += [h.encode() for h in headers]
    return _raw_request(
        port, b"\r\n".join(lines) + b"\r\n\r\n" + body
    )


def _double(x):
    return 2 * x


def _run_ok(port: int) -> None:
    """A well-formed job still round-trips — the slot was never hung."""
    envelope = {
        "protocol": PROTOCOL,
        "version": code_version_hash(),
        "init": None,
        "fn": encode_obj(_double),
        "args": encode_obj((4,)),
        "kwargs": encode_obj({}),
    }
    url = "http://127.0.0.1:%d" % port
    status, doc = http_json("POST", url + "/run", envelope)
    assert status == 200
    import time

    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        status, record = http_json("GET", "%s/result?job=%s" % (url, doc["job"]))
        assert status == 200
        if record["status"] != "pending":
            break
        time.sleep(0.01)
    assert decode_obj(record["value"]) == 8


# ---------------------------------------------------------------------------
# Worker routes


class TestWorkerMalformed:
    def test_bad_json_body_is_400(self, worker_servers):
        (server,) = worker_servers(1)
        body = b"{not json"
        response = _post(
            server.port, "/run", body,
            headers=["Content-Length: %d" % len(body)],
        )
        assert _status_of(response) == 400
        _run_ok(server.port)

    def test_truncated_body_is_400_not_a_hang(self, worker_servers):
        (server,) = worker_servers(1)
        # Claim 1000 bytes, deliver 10, half-close: the read sees EOF.
        response = _post(
            server.port, "/run", b"0123456789",
            headers=["Content-Length: 1000"],
        )
        assert _status_of(response) == 400
        _run_ok(server.port)

    def test_garbage_content_length_is_400(self, worker_servers):
        (server,) = worker_servers(1)
        response = _post(
            server.port, "/run", b"{}",
            headers=["Content-Length: banana"],
        )
        assert _status_of(response) == 400
        _run_ok(server.port)

    def test_negative_content_length_is_400(self, worker_servers):
        (server,) = worker_servers(1)
        response = _post(
            server.port, "/run", b"", headers=["Content-Length: -5"]
        )
        assert _status_of(response) == 400
        _run_ok(server.port)

    def test_absurd_content_length_is_400(self, worker_servers):
        (server,) = worker_servers(1)
        response = _post(
            server.port, "/run", b"",
            headers=["Content-Length: 99999999999999"],
        )
        assert _status_of(response) == 400
        _run_ok(server.port)

    def test_non_dict_envelope_is_400(self, worker_servers):
        (server,) = worker_servers(1)
        url = "http://127.0.0.1:%d" % server.port
        status, doc = http_json("POST", url + "/run", [1, 2, 3])
        assert status == 400
        assert "envelope" in doc["error"]
        _run_ok(server.port)


# ---------------------------------------------------------------------------
# Gateway routes


class TestGatewayMalformed:
    @pytest.fixture
    def gateway(self, gateway_server):
        return gateway_server(elastic_manifest(0))

    def test_bad_json_to_register_is_400(self, gateway):
        body = b"\xff\xfe not utf8 json"
        response = _post(
            gateway.port, "/register", body,
            headers=["Content-Length: %d" % len(body)],
        )
        assert _status_of(response) == 400

    def test_truncated_register_body_is_400(self, gateway):
        response = _post(
            gateway.port, "/register", b"{", headers=["Content-Length: 500"]
        )
        assert _status_of(response) == 400

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"host": "h"},
            {"port": 80},
            {"host": "h", "port": "x"},
            {"host": "h", "port": 80, "weight": 0},
            {"host": "h", "port": 80, "weight": None},
        ],
    )
    def test_register_rejects_bad_records(self, gateway, payload):
        url = "http://127.0.0.1:%d" % gateway.port
        status, _doc = http_json("POST", url + "/register", payload)
        assert status == 400
        assert len(gateway.membership) == 0

    @pytest.mark.parametrize("path", ["/renew", "/deregister"])
    @pytest.mark.parametrize(
        "payload", [None, [1], {}, {"host": "h"}, {"host": "h", "port": "x"}]
    )
    def test_renew_deregister_reject_bad_payloads(self, gateway, path, payload):
        url = "http://127.0.0.1:%d" % gateway.port
        status, _doc = http_json("POST", url + path, payload)
        assert status == 400

    def test_result_proxy_requires_both_params(self, gateway):
        url = "http://127.0.0.1:%d" % gateway.port
        for query in ("", "?worker=http%3A%2F%2Fx", "?job=y"):
            status, doc = http_json("GET", url + "/result" + query)
            assert status == 400
            assert "worker" in doc["error"] and "job" in doc["error"]

    def test_cache_get_requires_key(self, gateway):
        url = "http://127.0.0.1:%d" % gateway.port
        status, doc = http_json("GET", url + "/cache/get")
        assert status == 400
        assert "key" in doc["error"]

    def test_cache_put_requires_key(self, gateway):
        url = "http://127.0.0.1:%d" % gateway.port
        for payload in (None, [1], {}, {"value": 3}):
            status, _doc = http_json("POST", url + "/cache/put", payload)
            assert status == 400

    def test_run_with_non_dict_envelope_is_400(self, gateway):
        url = "http://127.0.0.1:%d" % gateway.port
        status, doc = http_json("POST", url + "/run", "just a string")
        assert status == 400
        assert "envelope" in doc["error"]

    def test_gateway_still_serves_after_garbage(self, gateway):
        response = _post(
            gateway.port, "/run", b"ga<rb>age", headers=["Content-Length: 9"]
        )
        assert _status_of(response) == 400
        url = "http://127.0.0.1:%d" % gateway.port
        status, doc = http_json("GET", url + "/health")
        assert status == 200 and doc["ok"]


# ---------------------------------------------------------------------------
# CLI inputs


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "argv,needle",
    [
        # Every fleet job goes through a gateway: a manifest without one
        # names the command that starts it.
        (
            lambda tmp: ["cachesweep", "--fleet", _write(
                tmp / "fleet.json", {"workers": [{"host": "h", "port": 1}]}
            )],
            "fleet serve",
        ),
        (
            lambda tmp: ["fleet", "status", "--fleet", _write(
                tmp / "fleet.json",
                {"gateway": {"host": "g", "port": 1},
                 "workers": [{"host": "h", "port": 1, "weight": None}]},
            )],
            "weight",
        ),
        (
            lambda tmp: ["fleet", "worker", "--secret-file", str(tmp / "missing")],
            "unreadable",
        ),
        (
            lambda tmp: ["fleet", "status", "--fleet", str(tmp / "missing.json")],
            "unreadable",
        ),
    ],
    ids=["no-gateway", "null-weight", "missing-secret-file", "missing-manifest"],
)
def test_cli_rejects_malformed_fleet_input(tmp_path, capsys, monkeypatch, argv, needle):
    from repro.cli import main

    monkeypatch.delenv("REPRO_FLEET_SECRET", raising=False)
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert needle in err[0]
