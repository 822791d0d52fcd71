"""RemoteMemoCache: the gateway-hosted shared result cache, MemoCache-shaped.

The client mirrors :class:`repro.core.memo.MemoCache`'s surface —
``get(name, config)``, ``put(name, value, config)``, ``version``,
``flush``/``close``/``maybe_compact`` — but entries live in the
gateway's segment store instead of a local directory, so every fleet
client shares one cache: a sweep one client finished short-circuits the
same sweep started by another.

Keys are :func:`repro.core.memo.memo_key` — byte-identical to the local
cache's addressing, including the code-version salt — so a hit is
always the same answer a local run would have computed.

The cache degrades to a miss, never to a failure: a gateway that is
down, restarting or refusing the request (a wrong secret's 401) makes
``get`` return the default and ``put`` drop the write (counted as
``fleet.cache.degraded``; ``fleet.cache.misses`` counts only the
gateway's own 404), so losing the cache costs recomputation, not the
sweep.
"""

from __future__ import annotations

from urllib.parse import quote

from repro.core.memo import code_version_hash, memo_key
from repro.fleet.wire import FleetTransportError, http_json
from repro.obs.recorder import get_recorder


def _count(event: str, n: float = 1) -> None:
    get_recorder().counters.add("fleet.cache." + event, n)


class RemoteMemoCache:
    """A MemoCache-compatible client for the gateway's ``/cache`` endpoints."""

    def __init__(
        self,
        base_url: str,
        version: str | None = None,
        timeout_s: float = 10.0,
        secret: str | None = None,
    ):
        self.base_url = str(base_url).rstrip("/")
        self.version = version if version is not None else code_version_hash()
        self.timeout_s = timeout_s
        self.secret = secret

    def key(self, name: str, config=None) -> str:
        return memo_key(name, config, self.version)

    def get(self, name: str, config=None, default=None):
        url = "%s/cache/get?key=%s" % (self.base_url, quote(self.key(name, config)))
        try:
            status, doc = http_json(
                "GET", url, timeout=self.timeout_s, secret=self.secret
            )
        except FleetTransportError:
            _count("degraded")
            return default
        if status == 200 and "value" in doc:
            _count("hits")
            return doc["value"]
        # Only the gateway's 404 is a real miss; a refusal (401, 5xx) is
        # a degraded cache that still costs a recompute.
        _count("misses" if status == 404 else "degraded")
        return default

    def put(self, name: str, value, config=None) -> None:
        payload = {"key": self.key(name, config), "value": value}
        try:
            status, _doc = http_json(
                "POST",
                self.base_url + "/cache/put",
                payload,
                timeout=self.timeout_s,
                secret=self.secret,
            )
        except FleetTransportError:
            _count("degraded")
            return
        if status == 200:
            _count("puts")
        else:
            _count("degraded")

    # -- MemoCache surface the sweep code touches ----------------------
    def flush(self):
        """Writes are synchronous; nothing is buffered client-side."""
        return None

    def close(self) -> None:
        return None

    def maybe_compact(self, max_age_days: float | None = None):
        """Compaction is the gateway's business, not the client's."""
        return None
