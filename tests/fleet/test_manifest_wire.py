"""Unit tests for the fleet manifest and wire encoding."""

from __future__ import annotations

import json
import math

import pytest

from repro.fleet.manifest import FleetManifest, WorkerSpec
from repro.fleet.wire import decode_obj, encode_obj

GW = {"host": "g", "port": 9}


class TestManifest:
    def test_load_full_document(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({
            "gateway": {"host": "127.0.0.1", "port": 8700},
            "workers": [
                {"host": "127.0.0.1", "port": 8701, "weight": 2},
                {"host": "10.0.0.9", "port": 8702},
            ],
            "probe_interval_s": 0.5,
            "poll_interval_s": 0.01,
            "request_timeout_s": 3.0,
        }))
        manifest = FleetManifest.load(path)
        assert manifest.gateway == WorkerSpec("127.0.0.1", 8700)
        assert manifest.workers == [
            WorkerSpec("127.0.0.1", 8701, weight=2),
            WorkerSpec("10.0.0.9", 8702, weight=1),
        ]
        assert [spec.base_url for spec in manifest.workers] == [
            "http://127.0.0.1:8701", "http://10.0.0.9:8702",
        ]
        assert manifest.probe_interval_s == 0.5
        assert manifest.poll_interval_s == 0.01
        assert manifest.request_timeout_s == 3.0

    def test_gateway_is_required(self):
        with pytest.raises(ValueError, match="fleet serve"):
            FleetManifest.from_dict({"workers": [{"host": "h", "port": 1}]})

    def test_round_trips_through_to_dict(self):
        doc = {
            "gateway": {"host": "g", "port": 9},
            "workers": [{"host": "h", "port": 1, "weight": 3}],
        }
        manifest = FleetManifest.from_dict(doc)
        assert FleetManifest.from_dict(manifest.to_dict()) == manifest

    @pytest.mark.parametrize("doc", [
        {},
        {"workers": []},
        {"workers": "nope", "gateway": GW},
        {"workers": [{"host": "h"}], "gateway": GW},
        {"workers": [{"port": 1}], "gateway": GW},
        {"workers": [{"host": "h", "port": "zesty"}], "gateway": GW},
        {"workers": [{"host": "h", "port": 1, "weight": 0}], "gateway": GW},
        {"workers": [{"host": "h", "port": 1, "weight": None}], "gateway": GW},
        {"workers": [{"host": "h", "port": 1}], "gateway": {"host": "g"}},
    ])
    def test_malformed_documents_raise_value_error(self, doc):
        with pytest.raises(ValueError):
            FleetManifest.from_dict(doc)

    def test_bad_json_raises_value_error(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            FleetManifest.load(path)

    def test_base_url(self):
        assert WorkerSpec("127.0.0.1", 8701).base_url == "http://127.0.0.1:8701"

    def test_elastic_manifest_needs_no_workers(self):
        # Workers empty or absent is fine as long as a gateway is named;
        # the gateway learns its fleet from registrations.
        for doc in (
            {"workers": [], "gateway": {"host": "g", "port": 1}},
            {"gateway": {"host": "g", "port": 1}},
        ):
            manifest = FleetManifest.from_dict(doc)
            assert manifest.workers == []
            assert manifest.gateway == WorkerSpec("g", 1)

    def test_lease_default_and_validation(self):
        manifest = FleetManifest.from_dict({"gateway": GW})
        assert manifest.lease_s == 10.0
        manifest = FleetManifest.from_dict({"gateway": GW, "lease_s": 2.5})
        assert manifest.lease_s == 2.5
        for bad in (0, -1):
            with pytest.raises(ValueError):
                FleetManifest.from_dict({"gateway": GW, "lease_s": bad})

    def test_lease_and_secret_file_round_trip(self):
        doc = {
            "gateway": GW,
            "workers": [{"host": "h", "port": 1}],
            "lease_s": 3.0,
            "secret_file": "/tmp/secret",
        }
        manifest = FleetManifest.from_dict(doc)
        assert FleetManifest.from_dict(manifest.to_dict()) == manifest


class TestLoadSecret:
    def _manifest(self, **kwargs):
        return FleetManifest.from_dict(
            dict({"gateway": GW}, **kwargs)
        )

    def test_no_secret_configured_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_SECRET", raising=False)
        assert self._manifest().load_secret() is None

    def test_env_wins_over_secret_file(self, tmp_path, monkeypatch):
        secret_file = tmp_path / "fleet.secret"
        secret_file.write_text("from-file\n")
        manifest = self._manifest(secret_file=str(secret_file))
        monkeypatch.setenv("REPRO_FLEET_SECRET", "from-env")
        assert manifest.load_secret() == "from-env"
        monkeypatch.delenv("REPRO_FLEET_SECRET")
        assert manifest.load_secret() == "from-file"

    def test_missing_or_empty_secret_file_raises(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_SECRET", raising=False)
        with pytest.raises(ValueError):
            self._manifest(secret_file=str(tmp_path / "absent")).load_secret()
        empty = tmp_path / "empty.secret"
        empty.write_text("  \n")
        with pytest.raises(ValueError):
            self._manifest(secret_file=str(empty)).load_secret()


class TestWire:
    def test_round_trips_callables_and_values(self):
        fn = decode_obj(encode_obj(math.sqrt))
        assert fn is math.sqrt
        payload = {"rows": [1, 2.5], "name": "x", "t": (1, 2)}
        assert decode_obj(encode_obj(payload)) == payload

    def test_round_trips_exceptions(self):
        exc = decode_obj(encode_obj(KeyError("missing")))
        assert isinstance(exc, KeyError)
        assert exc.args == ("missing",)
