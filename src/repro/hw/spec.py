"""Declarative machine specifications.

A :class:`MachineSpec` is the single source of truth for one platform.  It
is a pure-data tree::

    MachineSpec
      ├── PackageSpec (×N)
      │     ├── GroupSpec (×M SubNUMA clusters, optional)
      │     │     ├── cores / PUs
      │     │     └── MemoryNodeSpec (group-local memories, e.g. MCDRAM)
      │     └── MemoryNodeSpec (package-local memories, e.g. NVDIMM)
      └── MemoryNodeSpec (machine-wide memories, e.g. network-attached)

From a spec the rest of the library derives: synthetic ACPI tables
(:mod:`repro.firmware`), the hwloc-like object tree (:mod:`repro.topology`),
the kernel's NUMA node table (:mod:`repro.kernel`), and simulator inputs
(:mod:`repro.sim`).

Node numbering follows the OS convention the paper leans on in §VII:
conventional DRAM nodes receive the lowest OS indexes (so that default
allocations go to DRAM), then other kinds by
:attr:`MemoryKind.os_numbering_priority`, breaking ties by position in the
tree.  The *logical* order (hwloc-style, depth-first by attach point) is
also exposed because Fig. 5 numbers nodes logically.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

from ..errors import SpecError
from ..units import format_size
from .techs import MemoryKind, MemoryTechnology

__all__ = [
    "MemsideCacheSpec",
    "MemoryNodeSpec",
    "CacheSpec",
    "GroupSpec",
    "PackageSpec",
    "InterconnectSpec",
    "MachineSpec",
    "AttachLevel",
    "NodeInstance",
]


@dataclass(frozen=True)
class MemsideCacheSpec:
    """A memory-side cache in front of a NUMA node.

    KNL *Cache*/*Hybrid* modes place MCDRAM as a direct-mapped memory-side
    cache in front of the DDR4; Xeon *2-Level-Memory* places DRAM in front
    of NVDIMMs.  The cache is transparent to software but changes observed
    performance (paper §VIII: attribute values do not include it).
    """

    size: int                      # bytes
    hit_latency: float             # seconds
    hit_bandwidth: float           # bytes/s
    associativity: int = 1         # KNL memside cache is direct-mapped
    label: str = "MemCache"

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise SpecError("memory-side cache size must be positive")
        if self.hit_latency <= 0 or self.hit_bandwidth <= 0:
            raise SpecError("memory-side cache performance must be positive")
        if self.associativity < 1:
            raise SpecError("associativity must be >= 1")


@dataclass(frozen=True)
class MemoryNodeSpec:
    """One NUMA memory node (a *memory target* in the paper's terms)."""

    tech: MemoryTechnology
    capacity: int                          # bytes
    memside_cache: MemsideCacheSpec | None = None
    subtype: str = ""                      # lstopo label, e.g. "MCDRAM"

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise SpecError("memory node capacity must be positive")

    @property
    def kind(self) -> MemoryKind:
        return self.tech.kind

    def describe(self) -> str:
        label = self.subtype or self.tech.kind.value
        return f"{label}({format_size(self.capacity)})"


@dataclass(frozen=True)
class CacheSpec:
    """A CPU cache level (per core or shared per group/package)."""

    level: int
    size: int
    line_size: int = 64
    shared: bool = False      # shared by all cores of the enclosing scope

    def __post_init__(self) -> None:
        if self.level < 1:
            raise SpecError("cache level must be >= 1")
        if self.size <= 0 or self.line_size <= 0:
            raise SpecError("cache size/line must be positive")


@dataclass(frozen=True)
class GroupSpec:
    """A SubNUMA cluster: cores plus cluster-local memories."""

    cores: int
    pus_per_core: int = 1
    memories: tuple[MemoryNodeSpec, ...] = ()
    caches: tuple[CacheSpec, ...] = ()
    name: str = "Group0"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise SpecError("group must contain at least one core")
        if self.pus_per_core < 1:
            raise SpecError("pus_per_core must be >= 1")


@dataclass(frozen=True)
class PackageSpec:
    """A processor package: SubNUMA clusters (or a flat core set) plus
    package-local memories."""

    groups: tuple[GroupSpec, ...] = ()
    cores: int = 0                         # used when groups is empty
    pus_per_core: int = 1
    memories: tuple[MemoryNodeSpec, ...] = ()
    caches: tuple[CacheSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.groups and self.cores:
            raise SpecError("give either groups or a flat core count, not both")
        if not self.groups and self.cores < 1:
            raise SpecError("package must contain cores")

    @property
    def total_cores(self) -> int:
        if self.groups:
            return sum(g.cores for g in self.groups)
        return self.cores

    @property
    def total_pus(self) -> int:
        if self.groups:
            return sum(g.cores * g.pus_per_core for g in self.groups)
        return self.cores * self.pus_per_core


@dataclass(frozen=True)
class InterconnectSpec:
    """Penalties for non-local accesses.

    ``*_latency_add`` values are added to the technology latency;
    ``*_bandwidth_factor`` multiplies (caps) the technology bandwidth.
    ``cross_group`` applies between SubNUMA clusters of the same package,
    ``cross_package`` between packages.
    """

    cross_group_latency_add: float = 10e-9
    cross_group_bandwidth_factor: float = 0.85
    cross_package_latency_add: float = 60e-9
    cross_package_bandwidth_factor: float = 0.55

    def __post_init__(self) -> None:
        for name in ("cross_group_latency_add", "cross_package_latency_add"):
            if getattr(self, name) < 0:
                raise SpecError(f"{name} must be non-negative")
        for name in ("cross_group_bandwidth_factor", "cross_package_bandwidth_factor"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise SpecError(f"{name} must be in (0, 1]")


class AttachLevel:
    """Where a memory node hangs in the tree (hwloc attach point)."""

    GROUP = "group"
    PACKAGE = "package"
    MACHINE = "machine"


@dataclass(frozen=True)
class NodeInstance:
    """A fully-resolved NUMA node of a machine.

    Produced by :meth:`MachineSpec.numa_nodes`; carries both numbering
    schemes and the locality coordinates needed to compute access
    performance from any core.
    """

    os_index: int
    logical_index: int
    spec: MemoryNodeSpec
    attach_level: str                      # AttachLevel.*
    package: int | None                    # None for machine-level nodes
    group: int | None                      # None unless attached to a group
    local_pu_indices: tuple[int, ...]      # PUs considered local (empty ⇒ CPU-less w/ whole machine local)

    @property
    def tech(self) -> MemoryTechnology:
        return self.spec.tech

    @property
    def kind(self) -> MemoryKind:
        return self.spec.kind

    @property
    def capacity(self) -> int:
        return self.spec.capacity

    def describe(self) -> str:
        where = (
            f"pkg{self.package}/grp{self.group}"
            if self.group is not None
            else (f"pkg{self.package}" if self.package is not None else "machine")
        )
        return f"node{self.os_index}[{self.spec.describe()}@{where}]"


@dataclass(frozen=True)
class MachineSpec:
    """A whole machine."""

    name: str
    packages: tuple[PackageSpec, ...]
    machine_memories: tuple[MemoryNodeSpec, ...] = ()
    interconnect: InterconnectSpec = field(default_factory=InterconnectSpec)
    #: per-core non-memory work rate used by app models (FLOP-ish ops/s);
    #: keeps compute cost out of the memory model's way.
    core_ops_per_second: float = 2.0e9
    #: does the platform's firmware publish an HMAT?  (older machines do not)
    has_hmat: bool = True
    #: real Linux ≥5.2 only exposes HMAT performance for *local* accesses
    #: (paper §IV-A1); mirrors that limitation when True.
    hmat_local_only: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("machine name must be non-empty")
        if not self.packages:
            raise SpecError("machine must contain at least one package")
        if self.core_ops_per_second <= 0:
            raise SpecError("core_ops_per_second must be positive")
        # Validate every package eagerly so errors surface at build time.
        if not self.numa_nodes():
            raise SpecError("machine must contain at least one NUMA node")

    # ------------------------------------------------------------------
    # PU numbering: PUs are numbered depth-first: package 0 group 0 core 0
    # pu 0, ...  (SMT threads contiguous per core, hwloc physical-ish).
    # ------------------------------------------------------------------
    @property
    def total_pus(self) -> int:
        return sum(p.total_pus for p in self.packages)

    @property
    def total_cores(self) -> int:
        return sum(p.total_cores for p in self.packages)

    def pu_ranges(self) -> list[tuple[int, int, int, range]]:
        """Yield ``(package, group_or_-1, first_pu, range_of_pus)`` per group.

        Flat packages (no SNC) are reported as a single pseudo-group ``-1``.
        """
        out: list[tuple[int, int, int, range]] = []
        pu = 0
        for pi, pkg in enumerate(self.packages):
            if pkg.groups:
                for gi, grp in enumerate(pkg.groups):
                    n = grp.cores * grp.pus_per_core
                    out.append((pi, gi, pu, range(pu, pu + n)))
                    pu += n
            else:
                n = pkg.cores * pkg.pus_per_core
                out.append((pi, -1, pu, range(pu, pu + n)))
                pu += n
        return out

    # ------------------------------------------------------------------
    # NUMA node resolution
    # ------------------------------------------------------------------
    def numa_nodes(self) -> tuple[NodeInstance, ...]:
        """Resolve all memory nodes with OS and logical numbering.

        Logical order: depth-first by attach point (group memories inside
        their group, then package memories, then machine memories) — the
        order Fig. 2/Fig. 5 display.  OS order: sorted by
        (kind priority, logical order) — the order Linux would use.
        """
        return self._numa_nodes

    @cached_property
    def _numa_nodes(self) -> tuple[NodeInstance, ...]:
        # Resolved once per machine, outside the dataclass fields like
        # _pu_locations; the nodes are frozen, so callers can share them.
        raw: list[tuple[MemoryNodeSpec, str, int | None, int | None, tuple[int, ...]]] = []
        ranges = self.pu_ranges()

        def group_pus(pi: int, gi: int) -> tuple[int, ...]:
            for rp, rg, _first, rng in ranges:
                if rp == pi and rg == gi:
                    return tuple(rng)
            return ()

        def package_pus(pi: int) -> tuple[int, ...]:
            out: list[int] = []
            for rp, _rg, _first, rng in ranges:
                if rp == pi:
                    out.extend(rng)
            return tuple(out)

        for pi, pkg in enumerate(self.packages):
            if pkg.groups:
                for gi, grp in enumerate(pkg.groups):
                    for mem in grp.memories:
                        raw.append((mem, AttachLevel.GROUP, pi, gi, group_pus(pi, gi)))
            for mem in pkg.memories:
                raw.append((mem, AttachLevel.PACKAGE, pi, None, package_pus(pi)))
        all_pus = tuple(range(self.total_pus))
        for mem in self.machine_memories:
            raw.append((mem, AttachLevel.MACHINE, None, None, all_pus))

        # logical numbering = raw order re-sorted so that group-level nodes of
        # a package appear before its package-level ones, package by package —
        # which the construction above already guarantees except that group
        # memories of *later* groups must precede package memories; fix by a
        # stable sort on (package ordinal, level rank, group ordinal).
        level_rank = {AttachLevel.GROUP: 0, AttachLevel.PACKAGE: 1, AttachLevel.MACHINE: 2}
        raw.sort(
            key=lambda r: (
                99 if r[2] is None else r[2],       # package (machine last)
                level_rank[r[1]],
                -1 if r[3] is None else r[3],
            )
        )

        os_order = sorted(
            range(len(raw)), key=lambda i: (raw[i][0].kind.os_numbering_priority, i)
        )
        os_index_of = {raw_i: os_i for os_i, raw_i in enumerate(os_order)}

        nodes = tuple(
            NodeInstance(
                os_index=os_index_of[i],
                logical_index=i,
                spec=mem,
                attach_level=level,
                package=pi,
                group=gi,
                local_pu_indices=pus,
            )
            for i, (mem, level, pi, gi, pus) in enumerate(raw)
        )
        return nodes

    def node_by_os_index(self, os_index: int) -> NodeInstance:
        for node in self.numa_nodes():
            if node.os_index == os_index:
                return node
        raise SpecError(f"{self.name}: no NUMA node with OS index {os_index}")

    def total_capacity(self) -> int:
        return sum(n.capacity for n in self.numa_nodes())

    # ------------------------------------------------------------------
    # Locality / performance resolution between a PU and a node
    # ------------------------------------------------------------------
    @cached_property
    def _pu_locations(self) -> tuple[tuple[int, int], ...]:
        # Built once per machine; lives in the instance __dict__, outside
        # the dataclass fields, so equality, hashing and serialization
        # never see it.
        return tuple(
            (pi, gi) for pi, gi, _first, rng in self.pu_ranges() for _ in rng
        )

    def pu_location(self, pu: int) -> tuple[int, int]:
        """Return (package, group) of a PU; group is -1 for flat packages."""
        table = self._pu_locations
        try:
            index = operator.index(pu)
        except TypeError:
            raise SpecError(f"{self.name}: no PU {pu!r}") from None
        # Explicit bounds: a negative index would wrap around the table.
        if not 0 <= index < len(table):
            raise SpecError(f"{self.name}: no PU {pu}")
        return table[index]

    def locality_class(self, pu: int, node: NodeInstance) -> str:
        """Classify an access: 'local' | 'cross_group' | 'cross_package'."""
        if node.attach_level == AttachLevel.MACHINE:
            return "local"          # equidistant from everyone
        ppkg, pgrp = self.pu_location(pu)
        if node.package != ppkg:
            return "cross_package"
        if node.attach_level == AttachLevel.PACKAGE:
            return "local"
        if node.group == pgrp:
            return "local"
        return "cross_group"

    def access_performance(
        self, pu: int, node: NodeInstance, *, loaded: bool = True
    ) -> tuple[float, float, float]:
        """(latency_s, read_bw, write_bw) for one PU accessing one node.

        ``loaded=False`` returns the theoretical (HMAT-flavoured) numbers
        used for firmware synthesis; ``loaded=True`` the benchmark-flavoured
        numbers used by the simulator.
        """
        t = node.tech
        if loaded:
            lat, rbw, wbw = t.loaded_latency, t.peak_read_bandwidth, t.peak_write_bandwidth
        else:
            lat, rbw, wbw = (
                t.hmat_read_latency,
                t.hmat_read_bandwidth,
                t.hmat_write_bandwidth,
            )
        cls = self.locality_class(pu, node)
        ic = self.interconnect
        if cls == "cross_group":
            lat += ic.cross_group_latency_add
            rbw *= ic.cross_group_bandwidth_factor
            wbw *= ic.cross_group_bandwidth_factor
        elif cls == "cross_package":
            lat += ic.cross_package_latency_add
            rbw *= ic.cross_package_bandwidth_factor
            wbw *= ic.cross_package_bandwidth_factor
        return lat, rbw, wbw

    def describe(self) -> str:
        """One-paragraph human summary (used by the CLI and docs)."""
        parts = [f"{self.name}: {len(self.packages)} package(s), "
                 f"{self.total_cores} cores / {self.total_pus} PUs"]
        for node in sorted(self.numa_nodes(), key=lambda n: n.os_index):
            parts.append("  " + node.describe())
        return "\n".join(parts)
