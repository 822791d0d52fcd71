"""Unit + property tests for KernelProfile."""

from dataclasses import fields
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from repro.sim.profile import KernelProfile

sizes = st.floats(min_value=1e3, max_value=1e9, allow_nan=False)


class TestValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            KernelProfile("k", instructions=-1, mem_instructions=0, alu_ops=0)

    def test_simd_fraction_bounds(self):
        with pytest.raises(ValueError):
            KernelProfile("k", 10, 1, 1, simd_fraction=1.5)

    def test_mem_cannot_exceed_instructions(self):
        with pytest.raises(ValueError):
            KernelProfile("k", instructions=5, mem_instructions=10, alu_ops=0)

    def test_pim_bytes_defaults_to_dram_bytes(self):
        p = KernelProfile("k", 100, 10, 10, dram_bytes=4096)
        assert p.pim_bytes == 4096


class TestDerived:
    def test_mpki(self):
        p = KernelProfile("k", instructions=10_000, mem_instructions=100,
                          alu_ops=0, llc_misses=150)
        assert p.mpki == pytest.approx(15.0)

    def test_mpki_zero_instructions(self):
        p = KernelProfile("k", 0, 0, 0)
        assert p.mpki == 0.0

    def test_bytes_per_instruction(self):
        p = KernelProfile("k", 1000, 10, 10, dram_bytes=500)
        assert p.bytes_per_instruction == pytest.approx(0.5)


class TestStreamingConstructor:
    def test_traffic_equals_bytes(self):
        p = KernelProfile.streaming("k", 1000, 2000, ops_per_byte=1.0)
        assert p.dram_bytes == 3000
        assert p.working_set_bytes == 3000

    def test_every_line_misses(self):
        p = KernelProfile.streaming("k", 6400, 0, ops_per_byte=0.0)
        assert p.llc_misses == pytest.approx(100)
        assert p.l1_misses == pytest.approx(100)

    def test_streaming_is_memory_intensive(self):
        """Streaming kernels must pass the paper's MPKI > 10 criterion."""
        p = KernelProfile.streaming("k", 2**20, 2**20, ops_per_byte=0.3)
        assert p.mpki > 10

    @given(bytes_read=sizes, bytes_written=sizes)
    def test_instructions_scale_with_bytes(self, bytes_read, bytes_written):
        p = KernelProfile.streaming("k", bytes_read, bytes_written, ops_per_byte=0.5)
        total = bytes_read + bytes_written
        assert p.instructions == pytest.approx(total * (0.125 + 0.5 + 0.5))


class TestCacheResidentConstructor:
    def test_dram_traffic_is_compulsory_only(self):
        p = KernelProfile.cache_resident("k", bytes_touched=64_000, reuse_factor=8,
                                         ops_per_byte=1.0)
        assert p.dram_bytes == 64_000
        assert p.llc_misses == pytest.approx(1000)

    def test_reuse_raises_instructions_not_traffic(self):
        lo = KernelProfile.cache_resident("k", 64_000, reuse_factor=1, ops_per_byte=1.0)
        hi = KernelProfile.cache_resident("k", 64_000, reuse_factor=8, ops_per_byte=1.0)
        assert hi.instructions > lo.instructions
        assert hi.dram_bytes == lo.dram_bytes

    def test_low_mpki(self):
        p = KernelProfile.cache_resident("k", 2**20, reuse_factor=8, ops_per_byte=2.0)
        assert p.mpki < 10


class TestScatteredConstructor:
    def test_whole_lines_fetched(self):
        p = KernelProfile.scattered("k", touches=1000, bytes_per_touch=16,
                                    ops_per_byte=1.0)
        # 16 B touches still fetch whole 64 B lines plus straddle overhead.
        assert p.dram_bytes > 1000 * 16

    def test_locality_reduces_traffic(self):
        none = KernelProfile.scattered("k", 1000, 64, 1.0, locality_fraction=0.0)
        half = KernelProfile.scattered("k", 1000, 64, 1.0, locality_fraction=0.5)
        assert half.dram_bytes < none.dram_bytes


class TestCombinators:
    def test_scaled_multiplies_counts(self):
        p = KernelProfile.streaming("k", 1000, 1000, ops_per_byte=1.0)
        s = p.scaled(3.0)
        assert s.instructions == pytest.approx(3 * p.instructions)
        assert s.dram_bytes == pytest.approx(3 * p.dram_bytes)
        assert s.mpki == pytest.approx(p.mpki)

    def test_merged_adds_counts(self):
        a = KernelProfile.streaming("a", 1000, 0, ops_per_byte=1.0)
        b = KernelProfile.streaming("b", 0, 2000, ops_per_byte=0.5)
        m = a.merged(b)
        assert m.instructions == pytest.approx(a.instructions + b.instructions)
        assert m.dram_bytes == pytest.approx(a.dram_bytes + b.dram_bytes)
        assert m.name == "a+b"

    def test_merged_simd_fraction_is_op_weighted(self):
        a = KernelProfile("a", 100, 10, 100, simd_fraction=1.0)
        b = KernelProfile("b", 100, 10, 100, simd_fraction=0.0)
        assert a.merged(b).simd_fraction == pytest.approx(0.5)

    @given(factor=st.floats(min_value=0.1, max_value=100, allow_nan=False))
    def test_scaling_preserves_intensity(self, factor):
        p = KernelProfile.streaming("k", 10_000, 10_000, ops_per_byte=0.7)
        s = p.scaled(factor)
        assert s.bytes_per_instruction == pytest.approx(p.bytes_per_instruction)

    def test_merge_is_commutative_in_totals(self):
        a = KernelProfile.streaming("a", 1000, 500, ops_per_byte=1.0)
        b = KernelProfile.cache_resident("b", 3000, 4, 2.0)
        ab, ba = a.merged(b), b.merged(a)
        assert ab.instructions == pytest.approx(ba.instructions)
        assert ab.dram_bytes == pytest.approx(ba.dram_bytes)
        assert ab.simd_fraction == pytest.approx(ba.simd_fraction)


counts = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    st.integers(min_value=0, max_value=10**9),
)


@st.composite
def profiles(draw):
    """Valid profiles: zero ALU ops, int or float counts, explicit or
    defaulted ``pim_bytes``."""
    mem = draw(counts)
    return KernelProfile(
        name=draw(st.sampled_from(["a", "b", "c"])),
        instructions=mem + draw(counts),
        mem_instructions=mem,
        alu_ops=draw(counts),
        simd_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        l1_misses=draw(counts),
        llc_misses=draw(counts),
        dram_bytes=draw(counts),
        working_set_bytes=draw(counts),
        pim_bytes=draw(st.one_of(st.just(-1.0), counts)),
        notes=draw(st.sampled_from(["", "kept"])),
    )


class TestTotal:
    @given(ps=st.lists(profiles(), min_size=1, max_size=12))
    def test_total_is_the_merged_fold_bit_for_bit(self, ps):
        folded = reduce(lambda a, b: a.merged(b, name="sum"), ps)
        total = KernelProfile.total(ps, "sum")
        for f in fields(KernelProfile):
            assert getattr(total, f.name) == getattr(folded, f.name), f.name
            assert type(getattr(total, f.name)) is type(getattr(folded, f.name))

    def test_zero_alu_ops_weights_simd_to_zero(self):
        a = KernelProfile("a", 10, 1, 0, simd_fraction=1.0)
        b = KernelProfile("b", 10, 1, 0, simd_fraction=0.5)
        assert KernelProfile.total([a, b], "ab").simd_fraction == 0.0

    def test_one_profile_is_returned_unchanged(self):
        p = KernelProfile.streaming("k", 1000, 1000, ops_per_byte=1.0)
        assert KernelProfile.total([p], "renamed") is p

    def test_no_profiles_rejected(self):
        with pytest.raises(ValueError):
            KernelProfile.total([], "empty")
