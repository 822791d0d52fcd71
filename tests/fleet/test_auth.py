"""Shared-secret request signing: every endpoint, both directions.

The contract: with a secret configured, a server answers unsigned or
wrongly-signed requests with 401 (plus a ``fleet.*.unauthorized``
counter) and never runs route logic; with no secret configured nothing
changes for loopback fleets.  Signing covers method, selector (path +
query), and body, so a signature can't be replayed onto a different
request.
"""

from __future__ import annotations

import pytest

from repro.core.memo import code_version_hash
from repro.fleet.wire import (
    PROTOCOL,
    decode_obj,
    encode_obj,
    http_json,
    sign_request,
    verify_signature,
)
from tests.fleet.conftest import elastic_manifest, inprocess_manifest

SECRET = "tests-shared-secret"


def _envelope(fn, *args, **kwargs):
    return {
        "protocol": PROTOCOL,
        "version": code_version_hash(),
        "init": None,
        "fn": encode_obj(fn),
        "args": encode_obj(args),
        "kwargs": encode_obj(kwargs),
    }


def _triple(x):
    return 3 * x


# ---------------------------------------------------------------------------
# Signature primitives


def test_signature_round_trip():
    sig = sign_request(SECRET, "POST", "/run", b"body")
    assert verify_signature(SECRET, "POST", "/run", b"body", sig)


@pytest.mark.parametrize(
    "mutation",
    [
        dict(method="GET"),
        dict(selector="/other"),
        dict(selector="/run?x=1"),
        dict(body=b"tampered"),
        dict(secret="wrong"),
    ],
)
def test_signature_binds_every_component(mutation):
    sig = sign_request(SECRET, "POST", "/run", b"body")
    params = dict(secret=SECRET, method="POST", selector="/run", body=b"body")
    params.update(mutation)
    assert not verify_signature(
        params["secret"], params["method"], params["selector"], params["body"], sig
    )


def test_verify_survives_garbage_header():
    assert not verify_signature(SECRET, "POST", "/run", b"", "not-hex-at-all")
    assert not verify_signature(SECRET, "POST", "/run", b"", "")


# ---------------------------------------------------------------------------
# Worker endpoints


WORKER_REQUESTS = [
    ("GET", "/health", None),
    ("GET", "/result?job=x", None),
    ("POST", "/run", {"protocol": PROTOCOL}),
    ("POST", "/drain", {}),
]


@pytest.mark.parametrize("method,path,payload", WORKER_REQUESTS)
def test_worker_rejects_unsigned_and_wrong_secret(
    worker_servers, method, path, payload
):
    from repro.obs.recorder import recording

    with recording() as recorder:
        (server,) = worker_servers(1, secret=SECRET)
        url = "http://127.0.0.1:%d" % server.port
        status, doc = http_json(method, url + path, payload)
        assert status == 401
        assert doc["error"] == "unauthorized"
        status, doc = http_json(method, url + path, payload, secret="wrong")
        assert status == 401
        assert recorder.counters.get("fleet.worker.unauthorized") == 2
    # A drain must not have started from the unauthorized attempts.
    assert server.state.draining is False


def test_worker_accepts_signed_requests(worker_servers):
    (server,) = worker_servers(1, secret=SECRET)
    url = "http://127.0.0.1:%d" % server.port
    status, doc = http_json("GET", url + "/health", secret=SECRET)
    assert status == 200 and doc["ok"]
    status, doc = http_json("POST", url + "/run", _envelope(_triple, 5), secret=SECRET)
    assert status == 200
    import time

    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        status, record = http_json(
            "GET", "%s/result?job=%s" % (url, doc["job"]), secret=SECRET
        )
        assert status == 200
        if record["status"] != "pending":
            break
        time.sleep(0.01)
    assert decode_obj(record["value"]) == 15


def test_worker_without_secret_ignores_signatures(worker_servers):
    (server,) = worker_servers(1)
    url = "http://127.0.0.1:%d" % server.port
    for secret in (None, "anything"):
        status, doc = http_json("GET", url + "/health", secret=secret)
        assert status == 200 and doc["ok"]


# ---------------------------------------------------------------------------
# Gateway endpoints

GATEWAY_REQUESTS = [
    ("GET", "/health", None),
    ("GET", "/status", None),
    ("GET", "/result?worker=x&job=y", None),
    ("GET", "/cache/get?key=k", None),
    ("POST", "/run", {"protocol": PROTOCOL}),
    ("POST", "/register", {"host": "127.0.0.1", "port": 1}),
    ("POST", "/renew", {"host": "127.0.0.1", "port": 1}),
    ("POST", "/deregister", {"host": "127.0.0.1", "port": 1}),
    ("POST", "/cache/put", {"key": "k", "value": 1}),
]


@pytest.mark.parametrize("method,path,payload", GATEWAY_REQUESTS)
def test_gateway_rejects_unsigned_and_wrong_secret(
    gateway_server, method, path, payload
):
    from repro.obs.recorder import recording

    with recording() as recorder:
        gateway = gateway_server(elastic_manifest(0), secret=SECRET)
        url = "http://127.0.0.1:%d" % gateway.port
        status, doc = http_json(method, url + path, payload)
        assert status == 401
        assert doc["error"] == "unauthorized"
        status, _doc = http_json(method, url + path, payload, secret="wrong")
        assert status == 401
        assert recorder.counters.get("fleet.gateway.unauthorized") == 2
    # The unauthorized register must not have touched membership.
    assert len(gateway.membership) == 0


def test_signed_job_round_trips_through_gateway(worker_servers, gateway_server):
    servers = worker_servers(2, secret=SECRET)
    manifest = inprocess_manifest(servers)
    gateway = gateway_server(manifest, secret=SECRET)
    url = "http://127.0.0.1:%d" % gateway.port
    status, doc = http_json("POST", url + "/run", _envelope(_triple, 7), secret=SECRET)
    assert status == 200
    import time
    from urllib.parse import quote

    result_url = "%s/result?worker=%s&job=%s" % (
        url,
        quote(doc["worker"], safe=""),
        doc["job"],
    )
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        status, record = http_json("GET", result_url, secret=SECRET)
        assert status == 200
        if record["status"] != "pending":
            break
        time.sleep(0.01)
    assert decode_obj(record["value"]) == 21


def test_remote_cache_with_wrong_secret_degrades_to_miss(gateway_server):
    from repro.fleet.cache import RemoteMemoCache
    from repro.obs.recorder import recording

    gateway = gateway_server(elastic_manifest(0), secret=SECRET)
    url = "http://127.0.0.1:%d" % gateway.port
    good = RemoteMemoCache(url, secret=SECRET)
    good.put("point", {"v": 1}, config={"c": 1})
    assert good.get("point", config={"c": 1}) == {"v": 1}
    # Wrong secret: every request answers 401 → the cache degrades to a
    # miss (recompute), never to a sweep failure — and never a hit.
    bad = RemoteMemoCache(url, secret="wrong")
    with recording() as recorder:
        assert bad.get("point", config={"c": 1}, default="MISS") == "MISS"
        bad.put("other", {"v": 2})  # silently dropped
        assert good.get("other", default="MISS") == "MISS"
        # The refusals count as a degraded cache; only the gateway's
        # 404 for the good client is a miss.
        assert recorder.counters.get("fleet.cache.degraded") == 2
        assert recorder.counters.get("fleet.cache.misses") == 1


def test_signed_fan_out_fills_the_shared_cache(inprocess_fleet, monkeypatch, tmp_path):
    """Workload fan-out jobs sign their cache requests with the secret of
    the process running them, so a signed fleet's shared cache fills."""
    from repro.analysis.cachesweep import sweep_all
    from repro.config import CacheConfig, SocConfig
    from repro.fleet.cache import RemoteMemoCache
    from repro.fleet.executor import fleet_pool_factory
    from repro.sim.artifact import TraceStore

    monkeypatch.setenv("REPRO_FLEET_SECRET", SECRET)
    manifest = inprocess_fleet(2, secret=SECRET)
    url = manifest.gateway.base_url
    names = ["tensorflow.gemm_unpacked", "chrome.compositing_linear"]
    socs = [
        SocConfig(
            l1=CacheConfig(size_bytes=1024, associativity=2),
            l2=CacheConfig(size_bytes=4096, associativity=4),
        )
    ]
    for _ in range(2):
        sweep_all(
            names, socs=socs, store=TraceStore(tmp_path / "traces"), jobs=2,
            cache=RemoteMemoCache(url, secret=SECRET),
            pool_factory=fleet_pool_factory(manifest),
        )
        status, doc = http_json("GET", url + "/status", secret=SECRET)
        assert status == 200
        assert doc["cache"]["entries"] == len(names)


def test_secret_file_worker_hands_its_secret_to_jobs(tmp_path):
    """A job sees the secret of the worker process running it (what a
    fan-out job signs its shared-cache requests with), also when the
    worker read it from ``--secret-file`` rather than the environment."""
    import time

    from repro.fleet.manifest import load_secret
    from tests.fleet.conftest import FleetHarness

    secret_file = tmp_path / "fleet.secret"
    secret_file.write_text(SECRET + "\n")
    harness = FleetHarness(tmp_path)
    harness.env.pop("REPRO_FLEET_SECRET", None)
    try:
        port = harness.start_worker(extra_args=["--secret-file", str(secret_file)])
        url = "http://127.0.0.1:%d" % port
        status, doc = http_json(
            "POST", url + "/run", _envelope(load_secret), secret=SECRET
        )
        assert status == 200
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            status, record = http_json(
                "GET", "%s/result?job=%s" % (url, doc["job"]), secret=SECRET
            )
            assert status == 200
            if record["status"] != "pending":
                break
            time.sleep(0.01)
        assert decode_obj(record["value"]) == SECRET
    finally:
        harness.stop()
