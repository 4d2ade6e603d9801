"""repro — reproduction of *Using Performance Attributes for Managing
Heterogeneous Memory in HPC Applications* (Goglin & Rubio Proaño,
PDSEC/IPDPS 2022).

The package layers, bottom to top:

* :mod:`repro.hw` — declarative platform models (KNL, Xeon+NVDIMM, ...).
* :mod:`repro.firmware` — synthetic ACPI SRAT/SLIT/HMAT + virtual sysfs.
* :mod:`repro.kernel` — Linux-like NUMA page allocator, policies, migration.
* :mod:`repro.topology` — hwloc-like object tree, bitmaps, lstopo rendering.
* :mod:`repro.core` — **the paper's memory-attributes API** (hwloc memattrs).
* :mod:`repro.sim` — analytic memory-performance simulator.
* :mod:`repro.bench` — STREAM / lat_mem_rd / multichase feeding attributes.
* :mod:`repro.alloc` — **the heterogeneous allocator** ``mem_alloc(..., attr)``.
* :mod:`repro.profiler` — VTune-style Memory Access analysis.
* :mod:`repro.sensitivity` — benchmarking / profiling / static methods.
* :mod:`repro.apps` — Graph500, STREAM and pointer-chase workloads.
* :mod:`repro.omp` — OpenMP memory spaces and allocators on top.
* :mod:`repro.serve` — multi-tenant placement daemon (``repro-serve``).

Subpackages and the names re-exported here load on first access
(PEP 562), so a command pays only for the layers it uses.

Quickstart::

    from repro import quick_setup
    setup = quick_setup("knl-snc4-flat")
    buf = setup.allocator.mem_alloc(1 << 30, "Bandwidth", initiator=0)
    print(buf.describe())          # lands on the local MCDRAM
"""

from __future__ import annotations

import importlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .alloc import HeterogeneousAllocator
    from .bench import BenchmarkReport
    from .core import MemAttrs
    from .hw import MachineSpec
    from .kernel import KernelMemoryManager
    from .sim import SimEngine
    from .topology import Topology

#: Re-exported name -> the subpackage that defines it.
_REEXPORTS = {
    "HeterogeneousAllocator": "alloc",
    "characterize_machine": "bench",
    "feed_attributes": "bench",
    "MemAttrs": "core",
    "native_discovery": "core",
    "MachineSpec": "hw",
    "get_platform": "hw",
    "KernelMemoryManager": "kernel",
    "SimEngine": "sim",
    "Topology": "topology",
    "build_topology": "topology",
}


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        # Importing a submodule also binds it on this package, so this
        # hook runs once per subpackage.
        return importlib.import_module(f"{__name__}.{name}")
    home = _REEXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [
    "alloc",
    "apps",
    "baselines",
    "bench",
    "core",
    "errors",
    "firmware",
    "hw",
    "kernel",
    "obs",
    "omp",
    "profiler",
    "resilience",
    "sensitivity",
    "serve",
    "sim",
    "topology",
    "units",
    "ReproSetup",
    "quick_setup",
    "__version__",
]

_SUBPACKAGES = frozenset(__all__) - {"ReproSetup", "quick_setup", "__version__"}


@dataclass
class ReproSetup:
    """Everything wired together for one machine."""

    machine: MachineSpec
    topology: Topology
    engine: SimEngine
    memattrs: MemAttrs
    kernel: KernelMemoryManager
    allocator: HeterogeneousAllocator


#: Machines whose benchmark sweep :func:`quick_setup` keeps; past this
#: many the least recently used report is dropped.
_SWEEP_MEMO_MACHINES = 8
_sweep_reports: OrderedDict[MachineSpec, BenchmarkReport] = OrderedDict()
_sweep_lock = threading.Lock()


def _sweep_report(machine: MachineSpec, engine: SimEngine) -> BenchmarkReport:
    """The §IV-A benchmark sweep of ``machine``, run once per process.

    The report depends only on the machine (``engine`` is built from it),
    and :func:`~repro.bench.feed_attributes` only reads it, so every
    setup of one machine can share it.
    """
    from .bench import characterize_machine

    with _sweep_lock:
        report = _sweep_reports.get(machine)
        if report is not None:
            _sweep_reports.move_to_end(machine)
            return report
    report = characterize_machine(engine)
    with _sweep_lock:
        _sweep_reports[machine] = report
        while len(_sweep_reports) > _SWEEP_MEMO_MACHINES:
            _sweep_reports.popitem(last=False)
    return report


def quick_setup(
    platform: str = "xeon-cascadelake-1lm",
    *,
    benchmark: bool | None = None,
    **platform_kwargs,
) -> ReproSetup:
    """Build the full stack for a preset platform.

    Attributes come from native HMAT discovery when the platform firmware
    provides one, else from the benchmark sweep; pass ``benchmark=True``
    to force benchmarking (it also measures remote accesses).  The sweep
    runs once per machine per process; every setup still gets its own
    topology, engine, attribute store, kernel and allocator.
    """
    from .alloc import HeterogeneousAllocator
    from .bench import feed_attributes
    from .core import MemAttrs, native_discovery
    from .hw import get_platform
    from .kernel import KernelMemoryManager
    from .sim import SimEngine
    from .topology import build_topology

    machine = get_platform(platform, **platform_kwargs)
    topo = build_topology(machine)
    engine = SimEngine(machine, topo)
    if benchmark is None:
        benchmark = not machine.has_hmat
    if benchmark:
        memattrs = MemAttrs(topo)
        feed_attributes(memattrs, _sweep_report(machine, engine))
    else:
        memattrs = native_discovery(topo)
    km = KernelMemoryManager(machine)
    allocator = HeterogeneousAllocator(memattrs, km)
    # Tie the engine's pricing memo (and compiled-phase validity) to the
    # attribute store's generation so degraded attrs never serve stale
    # prices.
    engine.bind_attrs(memattrs)
    return ReproSetup(
        machine=machine,
        topology=topo,
        engine=engine,
        memattrs=memattrs,
        kernel=km,
        allocator=allocator,
    )
