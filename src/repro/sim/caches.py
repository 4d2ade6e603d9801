"""CPU cache filtering: how much traffic reaches memory at all.

The engine only needs an aggregate answer per buffer access: of the bytes
the program touches, how many cache-line transfers actually reach the
memory node?  We model the last-level cache reachable from the executing
threads, partition it proportionally across the phase's working sets, and
apply a per-pattern reuse model:

* **stream/strided** — no reuse: every line is fetched once, so memory
  read traffic equals the touched bytes (line-rounded); repeated sweeps
  refetch unless the whole working set fits.
* **random** — hit probability ≈ resident fraction (cache_share / ws).
* **pointer_chase** — as random, but the engine also serializes it.

Sub-line granularity amplifies traffic: an 8-byte random read still moves
a 64-byte line.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError, TopologyError
from ..topology.bitmap import Bitmap
from ..topology.build import Topology
from ..topology.objects import ObjType
from .access import BufferAccess, PatternKind

__all__ = ["CacheModel", "CacheFilterResult", "cache_filter"]


@dataclass(frozen=True)
class CacheFilterResult:
    """Traffic that reaches memory for one buffer access."""

    memory_read_bytes: float     # line-granular bytes read from memory
    memory_write_bytes: float    # line-granular bytes written to memory
    miss_count: float            # number of demand misses (latency events)
    hit_fraction: float          # fraction of accesses served by cache


@dataclass(frozen=True)
class CacheModel:
    """The cache capacity visible to a set of threads."""

    llc_bytes: int
    line_size: int = 64

    @classmethod
    def for_threads(cls, topology: Topology, pus) -> "CacheModel":
        """LLC capacity reachable from the given PUs.

        Sums the distinct last-level caches whose cpuset intersects the
        thread set (two SNCs ⇒ two LLC slices).  Platforms without an L3
        (KNL) fall back to the aggregate L2.  PUs outside the topology
        are an error, not a silent fallback to the default below.
        """
        try:
            threads = Bitmap(pus)
        except TopologyError as exc:
            raise SimulationError(f"CacheModel PU set: {exc}") from None
        if not threads:
            raise SimulationError("CacheModel needs at least one PU")
        outside = threads.andnot(topology.root.cpuset)
        if outside:
            raise SimulationError(
                f"CacheModel PUs {outside.to_list_syntax()} are not in "
                f"the topology"
            )
        for level in (ObjType.L3, ObjType.L2, ObjType.L1):
            total = 0
            for cache in topology.objs(level):
                if cache.cpuset.intersects(threads):
                    total += cache.attrs.get("size", 0)
            if total:
                return cls(llc_bytes=total)
        # No cache objects modelled: a tiny default keeps the math sane.
        return cls(llc_bytes=256 * 1024)


def cache_filter(
    model: CacheModel, access: BufferAccess, cache_share: float
) -> CacheFilterResult:
    """Filter one buffer access through the CPU caches.

    ``cache_share`` is the fraction of the LLC this buffer gets (the
    engine partitions proportionally to working sets).
    """
    if not 0.0 <= cache_share <= 1.0:
        raise SimulationError(f"cache_share out of range: {cache_share}")
    cache_bytes = model.llc_bytes * cache_share
    line = access.line_size
    ws = access.working_set

    if access.pattern in (PatternKind.STREAM, PatternKind.STRIDED):
        # Every touched line is fetched from memory; strided sweeps with
        # stride > line still fetch whole lines per element.
        read_lines = access.bytes_read / line
        if access.pattern is PatternKind.STRIDED and access.granularity < line:
            read_lines = access.bytes_read / access.granularity
        if ws <= cache_bytes:
            # Fits: only the first sweep misses.
            sweeps = max(1.0, (access.bytes_read + access.bytes_written) / max(ws, 1))
            read_traffic = min(access.bytes_read, ws)
            miss_count = read_traffic / line
            hit_fraction = 1.0 - 1.0 / sweeps
        else:
            read_traffic = read_lines * line
            miss_count = read_lines
            hit_fraction = 0.0
        write_traffic = access.bytes_written  # streaming stores, no RFO
        return CacheFilterResult(
            memory_read_bytes=read_traffic,
            memory_write_bytes=write_traffic,
            miss_count=miss_count,
            hit_fraction=hit_fraction,
        )

    # RANDOM / POINTER_CHASE: hit probability = resident fraction, plus
    # the hot-subset hits of power-law access distributions.
    resident = min(1.0, cache_bytes / ws) if ws > 0 else 1.0
    hit = access.hot_fraction + (1.0 - access.hot_fraction) * resident
    # Even a fully-resident working set takes some cold misses; keep a
    # small floor so latency never vanishes entirely.
    hit = min(hit, 0.98)
    n_reads = access.bytes_read / access.granularity
    n_writes = access.bytes_written / access.granularity
    read_misses = n_reads * (1.0 - hit)
    write_misses = n_writes * (1.0 - hit)
    return CacheFilterResult(
        memory_read_bytes=read_misses * line,
        # A random write to a non-resident line moves the line in and the
        # dirty line out eventually: count both directions.
        memory_write_bytes=write_misses * line,
        miss_count=read_misses + write_misses,
        hit_fraction=hit,
    )
