"""CPU-cache filter tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.hw import MachineSpec, MemoryNodeSpec, PackageSpec, tech
from repro.sim import BufferAccess, CacheModel, PatternKind, cache_filter
from repro.topology import build_topology
from repro.units import GB, MiB


MODEL = CacheModel(llc_bytes=32 * MiB)


def access(pattern, ws, *, reads=0, writes=0, gran=8, hot=0.0):
    return BufferAccess(
        buffer="b",
        pattern=pattern,
        bytes_read=reads,
        bytes_written=writes,
        working_set=ws,
        granularity=gran,
        hot_fraction=hot,
    )


class TestStreamFilter:
    def test_big_stream_all_misses(self):
        a = access(PatternKind.STREAM, 1 * GB, reads=1 * GB)
        r = cache_filter(MODEL, a, 1.0)
        assert r.memory_read_bytes == pytest.approx(1 * GB)
        assert r.hit_fraction == 0.0

    def test_fitting_stream_reuses(self):
        ws = 1 * MiB
        a = access(PatternKind.STREAM, ws, reads=100 * ws)
        r = cache_filter(MODEL, a, 1.0)
        assert r.memory_read_bytes == pytest.approx(ws)
        assert r.hit_fraction > 0.9

    def test_writes_pass_through(self):
        a = access(PatternKind.STREAM, 1 * GB, writes=1 * GB)
        r = cache_filter(MODEL, a, 1.0)
        assert r.memory_write_bytes == pytest.approx(1 * GB)

    def test_miss_count_is_line_granular(self):
        a = access(PatternKind.STREAM, 1 * GB, reads=1 * GB)
        r = cache_filter(MODEL, a, 1.0)
        assert r.miss_count == pytest.approx(1 * GB / 64)


class TestRandomFilter:
    def test_large_ws_mostly_misses(self):
        a = access(PatternKind.RANDOM, 10 * GB, reads=8 * 10**6)
        r = cache_filter(MODEL, a, 1.0)
        assert r.hit_fraction < 0.01
        assert r.miss_count == pytest.approx(10**6, rel=0.02)

    def test_line_amplification(self):
        """1M random 8-byte reads move ~64 MB of lines."""
        a = access(PatternKind.RANDOM, 10 * GB, reads=8 * 10**6)
        r = cache_filter(MODEL, a, 1.0)
        assert r.memory_read_bytes == pytest.approx(64 * 10**6, rel=0.02)

    def test_resident_ws_mostly_hits(self):
        a = access(PatternKind.RANDOM, 1 * MiB, reads=8 * 10**6)
        r = cache_filter(MODEL, a, 1.0)
        assert r.hit_fraction == pytest.approx(0.98)

    def test_hot_fraction_raises_hits(self):
        cold = cache_filter(MODEL, access(PatternKind.RANDOM, 10 * GB, reads=8e6), 1.0)
        hot = cache_filter(
            MODEL, access(PatternKind.RANDOM, 10 * GB, reads=8e6, hot=0.8), 1.0
        )
        assert hot.miss_count == pytest.approx(cold.miss_count * 0.2, rel=0.05)

    def test_cache_share_scales_hits(self):
        a = access(PatternKind.RANDOM, 64 * MiB, reads=8 * 10**6)
        full = cache_filter(MODEL, a, 1.0)
        half = cache_filter(MODEL, a, 0.5)
        assert half.hit_fraction < full.hit_fraction

    def test_random_writes_count_both_directions(self):
        a = access(PatternKind.RANDOM, 10 * GB, writes=8 * 10**6)
        r = cache_filter(MODEL, a, 1.0)
        assert r.memory_write_bytes > 0
        assert r.miss_count > 0


class TestCacheModel:
    def test_for_threads_xeon_llc(self, xeon_topo):
        m = CacheModel.for_threads(xeon_topo, range(20))
        assert m.llc_bytes == 27_500_000  # one package LLC

    def test_for_threads_both_packages(self, xeon_topo):
        m = CacheModel.for_threads(xeon_topo, [0, 79])
        assert m.llc_bytes == 2 * 27_500_000

    def test_knl_falls_back_to_l2(self, knl_topo):
        m = CacheModel.for_threads(knl_topo, range(64))
        assert m.llc_bytes == 16 * 512 * 1024  # 16 cores × 512KB

    def test_empty_pus_rejected(self, xeon_topo):
        with pytest.raises(SimulationError):
            CacheModel.for_threads(xeon_topo, [])

    def test_numpy_pus_match_int_pus(self, xeon_topo, knl_topo):
        for topo, n in ((xeon_topo, 80), (knl_topo, 256)):
            for pus in ([0], [0, n - 1], range(n)):
                assert CacheModel.for_threads(
                    topo, [np.int64(p) for p in pus]
                ) == CacheModel.for_threads(topo, pus)

    @pytest.mark.parametrize(
        "pus, named", [([10**6], "1000000"), ([0, 80, 81], "80-81"), ([-1], "-1")]
    )
    def test_pus_outside_topology_rejected(self, xeon_topo, pus, named):
        with pytest.raises(SimulationError, match=named):
            CacheModel.for_threads(xeon_topo, pus)

    def test_non_integer_pus_rejected(self, xeon_topo):
        with pytest.raises(SimulationError):
            CacheModel.for_threads(xeon_topo, [2.5])

    def test_default_only_without_cache_objects(self):
        machine = MachineSpec(
            name="cacheless",
            packages=(PackageSpec(cores=4),),
            machine_memories=(MemoryNodeSpec(tech=tech("ddr4-xeon"), capacity=GB),),
        )
        topo = build_topology(machine)
        assert CacheModel.for_threads(topo, [0, 3]).llc_bytes == 256 * 1024
        with pytest.raises(SimulationError):
            CacheModel.for_threads(topo, [4])

    def test_bad_share_rejected(self):
        a = access(PatternKind.RANDOM, GB, reads=8)
        with pytest.raises(SimulationError):
            cache_filter(MODEL, a, 1.5)


class TestMonotonicity:
    @settings(max_examples=25, deadline=None)
    @given(
        ws=st.integers(min_value=1 * MiB, max_value=64 * GB),
        reads=st.integers(min_value=1, max_value=10**9),
    )
    def test_traffic_never_exceeds_amplified_bytes(self, ws, reads):
        a = access(PatternKind.RANDOM, ws, reads=reads)
        r = cache_filter(MODEL, a, 1.0)
        amplified = reads / a.granularity * a.line_size
        assert r.memory_read_bytes <= amplified * 1.001

    @settings(max_examples=25, deadline=None)
    @given(ws=st.integers(min_value=1024, max_value=64 * GB))
    def test_hit_fraction_decreases_with_ws(self, ws):
        small = cache_filter(MODEL, access(PatternKind.RANDOM, ws, reads=8e6), 1.0)
        big = cache_filter(
            MODEL, access(PatternKind.RANDOM, ws * 2, reads=8e6), 1.0
        )
        assert big.hit_fraction <= small.hit_fraction + 1e-12
