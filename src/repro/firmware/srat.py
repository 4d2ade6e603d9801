"""SRAT — System Resource Affinity Table (synthetic).

The SRAT assigns every logical processor and every memory range to a
*proximity domain*.  We use one proximity domain per NUMA node, numbered by
OS node index, and assign each PU to the domain of its nearest
conventional-DRAM node (falling back to the nearest node of any kind on
DRAM-less platforms such as the Fugaku-like model) — mirroring how real
firmware keeps default allocations on conventional memory.

Nearness depends on a PU only through its locality group (package and
SubNUMA cluster), so the domain is resolved once per group and shared by
all of the group's PUs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FirmwareError
from ..hw.spec import AttachLevel, MachineSpec, NodeInstance
from ..hw.techs import MemoryKind

__all__ = ["SratCpuAffinity", "SratMemoryAffinity", "Srat", "build_srat"]


@dataclass(frozen=True)
class SratCpuAffinity:
    """One logical processor → proximity domain assignment."""

    pu: int
    proximity_domain: int


@dataclass(frozen=True)
class SratMemoryAffinity:
    """One physical memory range → proximity domain assignment."""

    proximity_domain: int
    base_address: int
    length: int
    hot_pluggable: bool = False
    non_volatile: bool = False


@dataclass(frozen=True)
class Srat:
    """A parsed/synthetic SRAT."""

    cpus: tuple[SratCpuAffinity, ...]
    memories: tuple[SratMemoryAffinity, ...]

    def domain_of_pu(self, pu: int) -> int:
        for entry in self.cpus:
            if entry.pu == pu:
                return entry.proximity_domain
        raise FirmwareError(f"SRAT has no CPU affinity entry for PU {pu}")

    def pus_of_domain(self, domain: int) -> tuple[int, ...]:
        return tuple(e.pu for e in self.cpus if e.proximity_domain == domain)

    def memory_of_domain(self, domain: int) -> tuple[SratMemoryAffinity, ...]:
        return tuple(e for e in self.memories if e.proximity_domain == domain)

    @property
    def domains(self) -> tuple[int, ...]:
        seen = {e.proximity_domain for e in self.memories}
        seen.update(e.proximity_domain for e in self.cpus)
        return tuple(sorted(seen))


def _locality_rank(cls: str) -> int:
    return {"local": 0, "cross_group": 1, "cross_package": 2}[cls]


def _cpu_domain(machine: MachineSpec, pu: int, nodes: tuple[NodeInstance, ...]) -> int:
    """Pick the proximity domain for a PU.

    Preference order: nearest DRAM node, then nearest node of any kind;
    among equally-near candidates prefer smaller attach scope (group over
    package over machine) and then lower OS index.
    """

    def sort_key(node: NodeInstance) -> tuple:
        level_rank = {
            AttachLevel.GROUP: 0,
            AttachLevel.PACKAGE: 1,
            AttachLevel.MACHINE: 2,
        }[node.attach_level]
        return (
            _locality_rank(machine.locality_class(pu, node)),
            0 if node.kind is MemoryKind.DRAM else 1,
            level_rank,
            node.os_index,
        )

    return min(nodes, key=sort_key).os_index


def build_srat(machine: MachineSpec) -> Srat:
    """Synthesize the SRAT for a machine."""
    nodes = machine.numa_nodes()
    if not nodes:
        raise FirmwareError("machine has no NUMA nodes")

    cpus = []
    # A group's first PU stands for all of them (module docstring).
    for _pkg, _grp, first, rng in machine.pu_ranges():
        domain = _cpu_domain(machine, first, nodes)
        cpus.extend(SratCpuAffinity(pu=pu, proximity_domain=domain) for pu in rng)

    # Lay memory ranges out contiguously in OS-index order, 1 GiB aligned,
    # purely so the table has plausible physical addresses.
    memories = []
    base = 0x1_0000_0000  # leave the traditional low hole
    align = 1 << 30
    for node in sorted(nodes, key=lambda n: n.os_index):
        memories.append(
            SratMemoryAffinity(
                proximity_domain=node.os_index,
                base_address=base,
                length=node.capacity,
                hot_pluggable=node.attach_level == AttachLevel.MACHINE,
                non_volatile=node.tech.persistent,
            )
        )
        base += (node.capacity + align - 1) // align * align
    return Srat(cpus=tuple(cpus), memories=tuple(memories))
