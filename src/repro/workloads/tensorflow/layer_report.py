"""Per-layer inference analysis.

Figure 19 evaluates "the four most time- and energy-consuming GEMM
operations for each input network"; this module provides the tooling
that selection implies: a per-layer table of GEMM shape, MACs,
pack/quantize overhead, and data movement, plus rankings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SocConfig
from repro.core.offload import OffloadEngine
from repro.workloads.tensorflow.gemm import profile_gemm
from repro.workloads.tensorflow.network import Network
from repro.workloads.tensorflow.packing import profile_packing, profile_unpacking
from repro.workloads.tensorflow.quantization import (
    profile_quantization,
    profile_requantization,
)


@dataclass(frozen=True)
class LayerReport:
    """One layer's GEMM and overhead characterization."""

    name: str
    m: int
    k: int
    n: int
    macs: float
    gemm_energy_j: float
    gemm_time_s: float
    overhead_energy_j: float  # pack + unpack + quantize + requantize
    overhead_time_s: float

    @property
    def overhead_energy_share(self) -> float:
        total = self.gemm_energy_j + self.overhead_energy_j
        return self.overhead_energy_j / total if total > 0 else 0.0

    @property
    def overhead_time_share(self) -> float:
        total = self.gemm_time_s + self.overhead_time_s
        return self.overhead_time_s / total if total > 0 else 0.0


def layer_reports(
    network: Network, engine: OffloadEngine | None = None
) -> list[LayerReport]:
    """Characterize every layer of ``network`` on the CPU."""
    engine = engine or OffloadEngine()
    cpu = engine.cpu_model
    soc = SocConfig()
    reports = []
    for layer in network.layers:
        m, k, n = layer.gemm_dims
        gemm = cpu.run(profile_gemm(m, k, n, soc=soc))
        overhead_profile = (
            profile_packing(float(m * k + k * n))
            .merged(profile_unpacking(float(m * n)), name="overhead")
            .merged(profile_quantization(float(layer.input_elements)), name="overhead")
            .merged(profile_requantization(float(m * n)), name="overhead")
        )
        overhead = cpu.run(overhead_profile)
        reports.append(
            LayerReport(
                name=layer.name,
                m=m, k=k, n=n,
                macs=layer.macs,
                gemm_energy_j=gemm.energy_j,
                gemm_time_s=gemm.time_s,
                overhead_energy_j=overhead.energy_j,
                overhead_time_s=overhead.time_s,
            )
        )
    return reports


def top_layers_by_energy(network: Network, count: int = 4) -> list[LayerReport]:
    """The paper's Figure 19 selection: heaviest GEMMs by total energy."""
    reports = layer_reports(network)
    return sorted(
        reports,
        key=lambda r: r.gemm_energy_j + r.overhead_energy_j,
        reverse=True,
    )[:count]


def render_table(reports: list[LayerReport], limit: int = 20) -> str:
    """A human-readable per-layer table."""
    lines = [
        "%-18s %6s %6s %6s %10s %9s %9s %8s"
        % ("layer", "M", "K", "N", "MACs", "gemm mJ", "ovh mJ", "ovh %")
    ]
    for r in reports[:limit]:
        lines.append(
            "%-18s %6d %6d %6d %10.2e %9.3f %9.3f %7.1f%%"
            % (
                r.name[:18], r.m, r.k, r.n, r.macs,
                r.gemm_energy_j * 1e3, r.overhead_energy_j * 1e3,
                100 * r.overhead_energy_share,
            )
        )
    return "\n".join(lines)
