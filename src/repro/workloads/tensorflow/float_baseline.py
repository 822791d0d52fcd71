"""Float-inference baseline and the quantization trade-off (Section 5.2).

The paper's observation: quantization exists to save energy and latency
versus float32 inference, but its pre/post-processing (packing, the
two-scan quantization passes) generates so much data movement that part
of the saving is lost -- and PIM recovers it.  This module makes that
narrative quantitative with three configurations:

* ``float32``      -- no quantization machinery, 4-byte operands;
* ``quantized``    -- uint8 GEMM plus CPU-side packing/quantization;
* ``quantized+PIM``-- uint8 GEMM with packing/quantization on PIM-Acc.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SocConfig
from repro.core.offload import OffloadEngine
from repro.core.workload import WorkloadFunction, offloaded_totals
from repro.sim.profile import KernelProfile
from repro.workloads.tensorflow.network import Network, network_functions


def profile_float_gemm(m: int, k: int, n: int, soc: SocConfig | None = None) -> KernelProfile:
    """One float32 GEMM: 4-byte operands, 4-lane FP SIMD.

    Mirrors :func:`repro.workloads.tensorflow.gemm.profile_gemm` with
    float costs: 4x the traffic per element and a quarter of the SIMD
    lanes (fp32 vs uint8).
    """
    soc = soc or SocConfig()
    llc = soc.l2.size_bytes
    macs = float(m) * k * n
    ops = 2.0 * macs
    n_block = max(min(n, (llc // 2) // max(4 * k, 1)), 1)
    passes_over_lhs = (n + n_block - 1) // n_block
    traffic = (
        4.0 * m * k * passes_over_lhs  # fp32 LHS
        + 4.0 * k * n  # fp32 RHS
        + 4.0 * m * n  # fp32 result
    )
    instructions = ops / 4.0 + traffic / 8.0
    lines = traffic / 64.0
    return KernelProfile(
        name="float_gemm",
        instructions=instructions,
        mem_instructions=macs / 4.0,
        alu_ops=ops / 4.0,
        simd_fraction=0.0,
        l1_misses=lines * 1.5,
        llc_misses=lines,
        dram_bytes=traffic,
        working_set_bytes=float(4 * (m * k + k * n + m * n)),
        notes="fp32 GEMM baseline (no quantization machinery)",
    )


def float_functions(network: Network) -> list[WorkloadFunction]:
    """The float32 inference decomposition: GEMMs + element-wise glue."""
    soc = SocConfig()
    gemm = []
    other_elements = 0.0
    for layer in network.layers:
        gemm.append(profile_float_gemm(*layer.gemm_dims, soc=soc))
        other_elements += layer.output_elements
    other = KernelProfile.streaming(
        name="other",
        bytes_read=other_elements * 4.0 * 4.0,  # fp32 activations
        bytes_written=other_elements * 4.0 * 4.0,
        ops_per_byte=0.5,
        instruction_overhead=0.2,
        simd_fraction=0.5,
    )
    return [
        WorkloadFunction("float_gemm", KernelProfile.total(gemm, "float_gemm")),
        WorkloadFunction("other", other),
    ]


@dataclass(frozen=True)
class QuantizationTradeoff:
    """Energy/time of the three inference configurations (joules/seconds)."""

    float_energy_j: float
    float_time_s: float
    quantized_energy_j: float
    quantized_time_s: float
    quantized_pim_energy_j: float
    quantized_pim_time_s: float

    @property
    def quantization_saving(self) -> float:
        """Energy saved by quantization alone (CPU pack/quant included)."""
        return 1.0 - self.quantized_energy_j / self.float_energy_j

    @property
    def pim_saving(self) -> float:
        """Energy saved by quantization with PIM-offloaded machinery."""
        return 1.0 - self.quantized_pim_energy_j / self.float_energy_j

    @property
    def overhead_recovered(self) -> float:
        """Fraction of the quantized inference's energy that PIM removes
        (the pack/quant overhead the paper says erodes the gains)."""
        if self.quantized_energy_j <= 0:
            return 0.0
        return 1.0 - self.quantized_pim_energy_j / self.quantized_energy_j


def quantization_tradeoff(
    network: Network, engine: OffloadEngine | None = None
) -> QuantizationTradeoff:
    """Evaluate all three configurations for one network."""
    engine = engine or OffloadEngine()
    float_e = float_t = 0.0
    for f in float_functions(network):
        execution = engine.cpu_model.run(f.profile)
        float_e += execution.energy_j
        float_t += execution.time_s
    functions = network_functions(network)
    cpu = offloaded_totals(functions, engine, use_accelerators=True)
    return QuantizationTradeoff(
        float_energy_j=float_e,
        float_time_s=float_t,
        quantized_energy_j=cpu.cpu_energy_j,
        quantized_time_s=cpu.cpu_time_s,
        quantized_pim_energy_j=cpu.pim_energy_j,
        quantized_pim_time_s=cpu.pim_time_s,
    )
