"""Unit tests for the gateway-owned membership registry.

These drive :class:`MembershipRegistry` directly with an injectable
clock — lease arithmetic must be provable without sleeping — and a real
:class:`SegmentStore` for the persistence/rehydration contract.
"""

from __future__ import annotations

import pytest

from repro.core.store import SegmentStore
from repro.fleet.manifest import WorkerSpec
from repro.fleet.membership import (
    MEMBERS_STORE_KEY,
    REMOVAL_RETENTION_S,
    MembershipRegistry,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def record(port: int = 9001, **kwargs) -> WorkerSpec:
    return WorkerSpec(host="127.0.0.1", port=port, **kwargs)


# ---------------------------------------------------------------------------
# Member records (WorkerSpec with the identity a worker announces)


def test_record_round_trips_through_dict():
    rec = record(weight=3, pid=42, version="abc")
    back = WorkerSpec.from_dict(rec.to_dict())
    assert back == rec
    assert (back.pid, back.version) == (42, "abc")


def test_record_url_and_spec():
    rec = record(9007, weight=2)
    assert rec.base_url == "http://127.0.0.1:9007"
    assert rec.weight == 2
    # Announced identity is not part of equality: a restarted member is
    # the same member.
    assert record(9007, weight=2, pid=1) == record(9007, weight=2, pid=2)


@pytest.mark.parametrize(
    "doc",
    [
        None,
        "not a dict",
        {},
        {"host": "h"},
        {"port": 1},
        {"host": "h", "port": "nope"},
        {"host": "h", "port": 1, "weight": 0},
        {"host": "h", "port": 1, "weight": None},
        {"host": "h", "port": 1, "pid": [1]},
    ],
)
def test_record_rejects_malformed(doc):
    with pytest.raises(ValueError):
        WorkerSpec.from_dict(doc)


# ---------------------------------------------------------------------------
# Registry lease lifecycle


def test_register_renew_expire_cycle():
    clock = FakeClock()
    registry = MembershipRegistry(lease_s=10.0, clock=clock)
    assert registry.register(record()) is True
    assert len(registry) == 1

    clock.advance(9.0)
    assert registry.expire_due() == []  # lease still has 1s left
    assert registry.renew("127.0.0.1", 9001) is True

    clock.advance(9.0)  # renewed at t+9, so expiry is t+19; now t+18
    assert registry.expire_due() == []

    clock.advance(1.5)
    expired = registry.expire_due()
    assert [r.port for r in expired] == [9001]
    assert len(registry) == 0
    assert registry.removal_reason("http://127.0.0.1:9001") == "lease expired"


def test_renew_unknown_member_fails():
    registry = MembershipRegistry(lease_s=10.0, clock=FakeClock())
    assert registry.renew("127.0.0.1", 9001) is False


def test_reregistration_is_not_a_join():
    registry = MembershipRegistry(lease_s=10.0, clock=FakeClock())
    assert registry.register(record()) is True
    assert registry.register(record()) is False


def test_deregister_records_reason_and_is_idempotent():
    clock = FakeClock()
    registry = MembershipRegistry(lease_s=10.0, clock=clock)
    registry.register(record())
    removed = registry.deregister("127.0.0.1", 9001)
    assert removed is not None and removed.port == 9001
    assert registry.deregister("127.0.0.1", 9001) is None
    assert registry.removal_reason("http://127.0.0.1:9001") == "deregistered"
    assert not registry.is_member("http://127.0.0.1:9001")


def test_register_clears_removal_reason():
    registry = MembershipRegistry(lease_s=10.0, clock=FakeClock())
    registry.register(record())
    registry.deregister("127.0.0.1", 9001)
    registry.register(record())
    assert registry.removal_reason("http://127.0.0.1:9001") is None
    assert registry.is_member("http://127.0.0.1:9001")


def test_removal_reason_expires_after_retention():
    clock = FakeClock()
    registry = MembershipRegistry(lease_s=10.0, clock=clock)
    registry.register(record())
    registry.deregister("127.0.0.1", 9001)
    clock.advance(REMOVAL_RETENTION_S + 1.0)
    assert registry.removal_reason("http://127.0.0.1:9001") is None


def test_members_reports_remaining_lease():
    clock = FakeClock()
    registry = MembershipRegistry(lease_s=10.0, clock=clock)
    registry.register(record())
    clock.advance(4.0)
    [(rec, remaining)] = registry.members()
    assert rec.port == 9001
    assert remaining == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# Persistence / rehydration


def _store(tmp_path):
    return SegmentStore(
        tmp_path, key=MEMBERS_STORE_KEY, prefix="members", flush_every=1, fsync=False
    )


def test_rehydrate_restores_members_with_fresh_leases(tmp_path):
    clock = FakeClock()
    registry = MembershipRegistry(lease_s=10.0, store=_store(tmp_path), clock=clock)
    registry.register(record(9001, weight=2))
    registry.register(record(9002))
    clock.advance(8.0)  # leases nearly spent at crash time
    registry.close()

    clock2 = FakeClock()
    reborn = MembershipRegistry(lease_s=10.0, store=_store(tmp_path), clock=clock2)
    records = reborn.rehydrate()
    assert sorted(r.port for r in records) == [9001, 9002]
    # Fresh leases: full lease_s remaining, not the pre-crash remnants.
    for _rec, remaining in reborn.members():
        assert remaining == pytest.approx(10.0)
    by_port = {r.port: r for r in records}
    assert by_port[9001].weight == 2
    reborn.close()


def test_rehydrate_skips_tombstones(tmp_path):
    registry = MembershipRegistry(
        lease_s=10.0, store=_store(tmp_path), clock=FakeClock()
    )
    registry.register(record(9001))
    registry.register(record(9002))
    registry.deregister("127.0.0.1", 9001)
    registry.close()

    reborn = MembershipRegistry(
        lease_s=10.0, store=_store(tmp_path), clock=FakeClock()
    )
    assert [r.port for r in reborn.rehydrate()] == [9002]
    reborn.close()


def test_expiry_tombstones_persist(tmp_path):
    clock = FakeClock()
    registry = MembershipRegistry(lease_s=5.0, store=_store(tmp_path), clock=clock)
    registry.register(record(9001))
    clock.advance(6.0)
    assert [r.port for r in registry.expire_due()] == [9001]
    registry.close()

    reborn = MembershipRegistry(
        lease_s=5.0, store=_store(tmp_path), clock=FakeClock()
    )
    assert reborn.rehydrate() == []
    reborn.close()
