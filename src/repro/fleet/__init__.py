"""Distributed sweep fabric: an HTTP gateway + worker fleet behind ResilientMap.

The fleet is a drop-in executor for the ``pool_factory`` seam of
:class:`repro.core.resilience.ResilientMap`: :func:`fleet_pool_factory`
builds :class:`FleetExecutor` instances that send each submitted item
through the fleet's gateway to a remote worker over HTTP instead of a
local ``ProcessPoolExecutor`` worker.  All of ResilientMap's retry/backoff/timeout/quarantine and
checkpoint semantics apply unchanged — a dead worker looks exactly like a
crashed pool process (the future raises, the attempt is charged, the item
is retried on a sibling), and a hung worker is handled by the same
timeout teardown via the executor ``kill()`` protocol.

Everything here is standard library only (``http.server`` + ``urllib``);
the wire protocol is JSON envelopes around base64-pickled callables, with
a :func:`repro.core.memo.code_version_hash` handshake so a worker running
different model code refuses jobs instead of silently computing different
numbers.
"""

from __future__ import annotations

from repro.fleet.cache import RemoteMemoCache
from repro.fleet.dispatch import FleetDispatcher
from repro.fleet.executor import FleetExecutor, fleet_pool_factory
from repro.fleet.manifest import FleetManifest, WorkerSpec
from repro.fleet.membership import MembershipRegistry, RegistrationClient
from repro.fleet.wire import (
    FleetBusyError,
    FleetError,
    FleetNoWorkersError,
    FleetTransportError,
    FleetVersionError,
    FleetWorkerError,
)

__all__ = [
    "FleetBusyError",
    "FleetDispatcher",
    "FleetError",
    "FleetExecutor",
    "FleetManifest",
    "FleetNoWorkersError",
    "FleetTransportError",
    "FleetVersionError",
    "FleetWorkerError",
    "MembershipRegistry",
    "RegistrationClient",
    "RemoteMemoCache",
    "WorkerSpec",
    "fleet_pool_factory",
]
