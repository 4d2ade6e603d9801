"""Machine-model fuzzing: the whole stack must hold for *any* valid
platform, not just the presets.

A composite strategy generates random machines (packages × optional SNC
groups × memories drawn from the technology presets); for each, we assert
the structural invariants every layer relies on, build the firmware and
the topology, run native or benchmark discovery, and allocate through the
attribute API.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import MemAttrs, native_discovery
from repro.errors import SpecError
from repro.firmware import build_hmat, build_slit, build_srat, build_sysfs
from repro.firmware.srat import SratCpuAffinity, _cpu_domain
from repro.hw import (
    CacheSpec,
    GroupSpec,
    MachineSpec,
    MemoryNodeSpec,
    PackageSpec,
    machine_from_dict,
    machine_to_dict,
    tech,
)
from repro.sim import CacheModel
from repro.topology import ObjType, build_topology, render_lstopo
from repro.units import GB, KiB, MiB

TECH_NAMES = ("ddr4-xeon", "optane-nvdimm", "hbm2", "ddr5", "cxl-dram")


@st.composite
def machines(draw):
    n_packages = draw(st.integers(1, 3))
    use_groups = draw(st.booleans())
    packages = []
    for _ in range(n_packages):
        pkg_mems = tuple(
            MemoryNodeSpec(
                tech=tech(draw(st.sampled_from(TECH_NAMES))),
                capacity=draw(st.integers(1, 64)) * GB,
            )
            for _ in range(draw(st.integers(0, 2)))
        )
        if use_groups:
            groups = tuple(
                GroupSpec(
                    cores=draw(st.integers(1, 4)),
                    pus_per_core=draw(st.integers(1, 2)),
                    memories=tuple(
                        MemoryNodeSpec(
                            tech=tech(draw(st.sampled_from(TECH_NAMES))),
                            capacity=draw(st.integers(1, 16)) * GB,
                        )
                        for _ in range(draw(st.integers(0, 2)))
                    ),
                )
                for _ in range(draw(st.integers(1, 2)))
            )
            has_mem = pkg_mems or any(g.memories for g in groups)
            packages.append(
                PackageSpec(groups=groups, memories=pkg_mems)
            )
        else:
            has_mem = bool(pkg_mems)
            packages.append(
                PackageSpec(
                    cores=draw(st.integers(1, 6)),
                    pus_per_core=draw(st.integers(1, 2)),
                    memories=pkg_mems,
                )
            )
    machine_mems = tuple(
        MemoryNodeSpec(
            tech=tech("nam"), capacity=draw(st.integers(64, 256)) * GB
        )
        for _ in range(draw(st.integers(0, 1)))
    )
    # Guarantee at least one NUMA node somewhere.
    if not machine_mems and not any(
        p.memories or any(g.memories for g in p.groups) for p in packages
    ):
        machine_mems = (
            MemoryNodeSpec(tech=tech("ddr4-xeon"), capacity=32 * GB),
        )
    return MachineSpec(
        name="fuzz",
        packages=tuple(packages),
        machine_memories=machine_mems,
        has_hmat=draw(st.booleans()),
    )


COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestStructuralInvariants:
    @settings(**COMMON)
    @given(machine=machines())
    def test_node_numbering_dense_and_unique(self, machine):
        nodes = machine.numa_nodes()
        assert sorted(n.os_index for n in nodes) == list(range(len(nodes)))
        assert sorted(n.logical_index for n in nodes) == list(range(len(nodes)))

    @settings(**COMMON)
    @given(machine=machines())
    def test_dram_numbered_before_special_kinds(self, machine):
        from repro.hw import MemoryKind
        nodes = machine.numa_nodes()
        drams = [n.os_index for n in nodes if n.kind is MemoryKind.DRAM]
        others = [n.os_index for n in nodes if n.kind is not MemoryKind.DRAM]
        if drams and others:
            assert max(drams) < min(others)

    @settings(**COMMON)
    @given(machine=machines())
    def test_serialization_roundtrip(self, machine):
        assert machine_from_dict(machine_to_dict(machine)) == machine

    @settings(**COMMON)
    @given(machine=machines())
    def test_firmware_builds(self, machine):
        srat = build_srat(machine)
        assert {e.pu for e in srat.cpus} == set(range(machine.total_pus))
        slit = build_slit(machine)
        assert slit.num_domains == len(machine.numa_nodes())
        fs = build_sysfs(machine)
        assert fs.exists("/sys/devices/system/node/node0")


class TestFullStackOnRandomMachines:
    @settings(**COMMON)
    @given(machine=machines())
    def test_topology_builds_and_renders(self, machine):
        topo = build_topology(machine)
        assert len(topo.numanodes()) == len(machine.numa_nodes())
        text = render_lstopo(topo)
        assert text.startswith("Machine (")

    @settings(**COMMON)
    @given(machine=machines())
    def test_capacity_attribute_always_rankable(self, machine):
        """Capacity is "always supported" (Table I): any machine, any PU,
        get_best_target answers with the largest *local* node."""
        from repro.errors import NoTargetError
        topo = build_topology(machine)
        ma = MemAttrs(topo)
        local_caps = [
            n.attrs["capacity"] for n in ma.get_local_numanode_objs(0)
        ]
        if local_caps:
            best = ma.get_best_target("Capacity", 0)
            assert best.value == max(local_caps)
        else:
            # Memoryless package: the low-level API reports no local
            # target (hwloc's error return); the allocator layer handles
            # the machine-wide fallback.
            with pytest.raises(NoTargetError):
                ma.get_best_target("Capacity", 0)

    @settings(max_examples=10, deadline=None)
    @given(machine=machines())
    def test_allocator_capacity_requests_always_serve(self, machine):
        from repro.alloc import HeterogeneousAllocator
        from repro.kernel import KernelMemoryManager
        topo = build_topology(machine)
        ma = native_discovery(topo) if machine.has_hmat else MemAttrs(topo)
        allocator = HeterogeneousAllocator(ma, KernelMemoryManager(machine))
        buf = allocator.mem_alloc(64 * 1024, "Capacity", 0)
        assert buf.allocation.total_pages > 0
        allocator.free(buf)
        assert not allocator.buffers


# ----------------------------------------------------------------------
# Table lookups against the linear scans they replaced
# ----------------------------------------------------------------------
@st.composite
def cache_specs(draw):
    levels = draw(st.sets(st.integers(1, 3), max_size=3))
    return tuple(
        CacheSpec(
            level=level,
            size=draw(st.integers(1, 64)) * (MiB if level == 3 else 64 * KiB),
            shared=draw(st.booleans()),
        )
        for level in sorted(levels)
    )


@st.composite
def machines_with_caches(draw):
    """A random machine whose packages/groups carry random cache levels."""
    machine = draw(machines())
    packages = []
    for pkg in machine.packages:
        if pkg.groups:
            groups = tuple(
                dataclasses.replace(g, caches=draw(cache_specs()))
                for g in pkg.groups
            )
            packages.append(dataclasses.replace(pkg, groups=groups))
        else:
            packages.append(dataclasses.replace(pkg, caches=draw(cache_specs())))
    return dataclasses.replace(machine, packages=tuple(packages))


def pu_subsets(machine):
    return st.lists(
        st.integers(0, machine.total_pus - 1), min_size=1, max_size=12
    )


def llc_oracle(topology, pus) -> int:
    """Per-PU ``isset`` scan of every cache object (the old body)."""
    pu_set = set(pus)
    for level in (ObjType.L3, ObjType.L2, ObjType.L1):
        total = 0
        for cache in topology.objs(level):
            if any(cache.cpuset.isset(p) for p in pu_set):
                total += cache.attrs.get("size", 0)
        if total:
            return total
    return 256 * 1024


def pu_location_oracle(machine, pu):
    """Linear scan of ``pu_ranges()`` (the old body)."""
    for pi, gi, _first, rng in machine.pu_ranges():
        if pu in rng:
            return pi, gi
    raise SpecError(f"{machine.name}: no PU {pu}")


def srat_cpus_oracle(machine):
    """One ``_cpu_domain`` pick per PU (the old body)."""
    nodes = machine.numa_nodes()
    return tuple(
        SratCpuAffinity(pu=pu, proximity_domain=_cpu_domain(machine, pu, nodes))
        for pu in range(machine.total_pus)
    )


class TestLookupOracles:
    @settings(**COMMON)
    @given(machine=machines_with_caches(), data=st.data())
    def test_llc_lookup_matches_per_pu_scan(self, machine, data):
        topo = build_topology(machine)
        for _ in range(3):
            pus = data.draw(pu_subsets(machine))
            model = CacheModel.for_threads(topo, pus)
            assert model.llc_bytes == llc_oracle(topo, pus)

    @settings(**COMMON)
    @given(machine=machines())
    def test_pu_location_matches_range_scan(self, machine):
        for pu in range(machine.total_pus):
            assert machine.pu_location(pu) == pu_location_oracle(machine, pu)

    @settings(**COMMON)
    @given(machine=machines())
    def test_pu_location_out_of_range_raises(self, machine):
        for pu in (-1, machine.total_pus, 10**6):
            with pytest.raises(SpecError):
                machine.pu_location(pu)

    @settings(**COMMON)
    @given(machine=machines())
    def test_srat_matches_per_pu_domains(self, machine):
        assert build_srat(machine).cpus == srat_cpus_oracle(machine)

    @settings(**COMMON)
    @given(machine=machines(), local_only=st.booleans())
    def test_hmat_unchanged_by_location_table(self, machine, local_only):
        machine = dataclasses.replace(
            machine, has_hmat=True, hmat_local_only=local_only
        )
        with mock.patch.object(
            MachineSpec, "pu_location", pu_location_oracle
        ):
            expected = build_hmat(machine)
        assert build_hmat(machine) == expected

    @settings(**COMMON)
    @given(machine=machines())
    def test_location_table_invisible_to_identity(self, machine):
        fresh = machine_from_dict(machine_to_dict(machine))
        before = (hash(machine), machine_to_dict(machine))
        machine.pu_location(0)
        assert (hash(machine), machine_to_dict(machine)) == before
        assert machine == fresh and hash(machine) == hash(fresh)
        assert machine_from_dict(machine_to_dict(machine)) == machine
