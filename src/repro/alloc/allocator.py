"""``mem_alloc(..., attribute)`` — the experimental allocator of §IV-B.

:class:`HeterogeneousAllocator` combines a :class:`~repro.core.api.MemAttrs`
(to *rank* targets) with a :class:`~repro.kernel.pagealloc.KernelMemoryManager`
(to actually *place* pages), giving applications the single-call interface
the paper proposes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..core.api import MemAttrs, TargetValue
from ..core.querycache import MISSING
from ..core.ranking import rank_targets
from ..errors import AllocationError, CapacityError, SpecError, TopologyError
from ..kernel.migration import MigrationReport
from ..kernel.pagealloc import KernelMemoryManager, PageAllocation
from ..kernel.policy import bind_policy
from ..obs import OBS
from ..sim.access import Placement
from ..topology.objects import TopoObject
from ..topology.traversal import as_cpuset
from .fallback import attribute_fallback_chain

__all__ = ["AllocRequest", "Buffer", "HeterogeneousAllocator"]

_buffer_ids = itertools.count(1)


@dataclass(frozen=True)
class AllocRequest:
    """One request of a :meth:`HeterogeneousAllocator.mem_alloc_many` batch.

    Mirrors the keyword surface of :meth:`~HeterogeneousAllocator.mem_alloc`.
    """

    size: int
    attribute: str
    initiator: object
    name: str | None = None
    allow_partial: bool = False
    allow_fallback: bool = True
    scope: str = "local"


@dataclass
class Buffer:
    """A buffer placed by the heterogeneous allocator."""

    name: str
    size: int
    requested_attribute: str
    used_attribute: str
    allocation: PageAllocation
    target: TopoObject | None          # primary target (None if fully split)
    fallback_rank: int                 # 0 = got the best target
    initiator: tuple[int, ...]
    # Allocation plan this buffer was placed by (recycling handle of the
    # warm fast path); None for buffers placed outside the fast path.
    _plan: object = field(default=None, repr=False, compare=False)

    @property
    def nodes(self) -> tuple[int, ...]:
        return self.allocation.nodes

    @property
    def is_split(self) -> bool:
        return self.allocation.is_split

    def placement_fractions(self) -> dict[int, float]:
        return {n: self.allocation.fraction_on(n) for n in self.allocation.nodes}

    def describe(self) -> str:
        where = ", ".join(
            f"node{n}:{f:.0%}" for n, f in sorted(self.placement_fractions().items())
        )
        note = "" if self.fallback_rank == 0 else f" (fallback #{self.fallback_rank})"
        return (
            f"{self.name}[{self.size}B] attr={self.requested_attribute}"
            f"->{self.used_attribute} on {where}{note}"
        )


#: Upper bound on recycled buffers kept per allocation plan.  Large
#: enough that a freed batch can be recycled wholesale, small enough
#: that pools stay negligible next to the page bookkeeping itself.
_POOL_MAX = 256


class _AllocPlan:
    """One memoized allocation plan: the resolved ranking of a
    ``(attribute, initiator, scope)`` triple, flattened for the warm path.

    A plan is valid only while ``generation`` matches the attribute
    store's — attribute updates *and* topology events (offline/online,
    co-tenant capacity shifts) bump the generation, so a stale plan can
    never place onto a dead node or follow an outdated ranking.

    ``entries`` holds the online ranked targets as
    ``(node_state, os_index, target, bind_policy, original_rank)`` tuples:
    everything the first-fit walk needs without touching the topology,
    the policy constructor, or the query cache.  ``pool`` recycles
    freed fast-path buffers (object + name + kernel allocation record)
    so a warm alloc/free cycle is a handful of counter updates.
    """

    __slots__ = (
        "generation",
        "used_attr",
        "entries",
        "state",
        "node",
        "best_rank",
        "best_node_orig",
        "best_target_orig",
        "nodeset",
        "initiator_pus",
        "pool",
    )


class HeterogeneousAllocator:
    """The paper's ``mem_alloc`` built on attributes + the kernel."""

    def __init__(
        self,
        memattrs: MemAttrs,
        kernel: KernelMemoryManager,
        *,
        attribute_fallback: dict[str, tuple[str, ...]] | None = None,
        tie_tolerance: float = 0.10,
        tie_attr: str | None = "Capacity",
    ) -> None:
        if memattrs.topology.machine_spec is not kernel.machine:
            raise SpecError("memattrs and kernel manager describe different machines")
        self.memattrs = memattrs
        self.kernel = kernel
        self._attribute_fallback = attribute_fallback
        self._overrides_key = (
            None
            if attribute_fallback is None
            else tuple(sorted((k, tuple(v)) for k, v in attribute_fallback.items()))
        )
        self.tie_tolerance = tie_tolerance
        self.tie_attr = tie_attr
        self.buffers: dict[str, Buffer] = {}
        # Warm-path plan cache: (attribute, initiator, scope) -> _AllocPlan.
        # Entries self-invalidate via the generation check; the dict itself
        # only grows with the number of distinct request triples.
        self._plans: dict[tuple, _AllocPlan] = {}
        # Hot-path aliases: one attribute load instead of two per call.
        self._qc = memattrs.query_cache
        self._kernel_live = kernel._live
        self._page_size = kernel.page_size
        # Topology events (node offline/online, co-tenant capacity shifts)
        # must invalidate the memoized rankings exactly like attribute
        # updates do, or mem_alloc would keep placing onto a dead node.
        kernel.add_topology_listener(self._on_topology_event)

    def _on_topology_event(self, event: str, node: int) -> None:
        self.memattrs.notify_topology_event(event=event, node=node)

    # ------------------------------------------------------------------
    def rank_for(
        self, attribute: str, initiator, *, scope: str = "local"
    ) -> tuple[str, tuple[TargetValue, ...]]:
        """Resolve the attribute (with fallback) and rank targets.

        ``scope="local"`` considers the initiator's local targets (the
        paper's default flow); ``scope="machine"`` ranks every node —
        the §VIII question "is it better to allocate in the local NVDIMM
        or in another DRAM?", answerable once benchmarking measured the
        remote pairs.  Returns ``(used_attribute_name, ranked_targets)``.

        This is the allocator's hot path: the resolved
        ``(used_attribute, ranking)`` pair is memoized in the MemAttrs
        query cache (family ``"alloc_rank"``) keyed by its generation,
        so repeated ``mem_alloc`` calls between attribute updates only
        re-walk the free-capacity check.
        """
        if scope not in ("local", "machine"):
            raise AllocationError(f"unknown scope {scope!r}")
        cache_key = self._rank_for_cache_key(attribute, initiator, scope)
        if cache_key is not None:
            cached = self.memattrs.query_cache.get("alloc_rank", cache_key)
            if cached is not MISSING:
                return cached
        if scope == "local":
            # Memoryless-initiator fallback: a CPU whose package has no
            # memory at all (CPU-only NUMA nodes exist) allocates from the
            # whole machine, like the kernel's zonelist would.
            local = self.memattrs.get_local_numanode_objs(initiator)
            targets = local if local else self.memattrs.topology.numanodes()
        else:
            targets = self.memattrs.topology.numanodes()
        chain = attribute_fallback_chain(
            self.memattrs, attribute, overrides=self._attribute_fallback
        )
        for attr in chain:
            if not self.memattrs.has_values(attr):
                continue
            ranked = rank_targets(
                self.memattrs,
                attr,
                initiator,
                targets=targets,
                tie_attr=self.tie_attr if self.tie_attr != attr.name else None,
                tie_tolerance=self.tie_tolerance,
            )
            if ranked:
                if cache_key is not None:
                    self.memattrs.query_cache.store(
                        "alloc_rank", cache_key, (attr.name, ranked)
                    )
                return attr.name, ranked
        raise AllocationError(
            f"no attribute in the fallback chain of {attribute!r} has values "
            "for any local target"
        )

    def _rank_for_cache_key(self, attribute: str, initiator, scope: str):
        """Key for one resolved ranking, or ``None`` when uncacheable (the
        uncached path then raises exactly as before)."""
        try:
            init_key = as_cpuset(
                self.memattrs.topology, initiator, cache=self.memattrs.query_cache
            )
        except TopologyError:
            return None
        return (
            self.memattrs.generation,
            attribute.lower() if isinstance(attribute, str) else attribute,
            init_key,
            scope,
            self.tie_attr,
            self.tie_tolerance,
            self._overrides_key,
        )

    # ------------------------------------------------------------------
    def mem_alloc(
        self,
        size: int,
        attribute: str,
        initiator,
        *,
        name: str | None = None,
        allow_partial: bool = False,
        allow_fallback: bool = True,
        scope: str = "local",
    ) -> Buffer:
        """Allocate ``size`` bytes on the best local target for ``attribute``.

        The default reproduces hwloc's allocator: walk the target ranking
        on capacity exhaustion, placing the **whole buffer** on the first
        target that fits.  ``allow_partial=True`` switches to the *hybrid
        allocation* alternative of §VII: fill the best target first and
        spill the remainder down the ranking — more fast-memory use, at
        the price of the irregular performance the paper warns about.
        ``allow_fallback=False`` insists on the best-ranked target
        (strict binding): the request fails when it is full, like the
        whole-process-binding runs of Tables II/III.
        """
        if OBS.enabled:
            # Sampling gate: with obs.enable(sample_every=N) only every
            # N-th request pays for span + metric recording; the rest run
            # the same placement logic untraced.
            skip = OBS.hot_countdown
            if skip:
                OBS.hot_countdown = skip - 1
            else:
                OBS.hot_countdown = OBS.sample_every - 1
                return self._mem_alloc_traced(
                    size, attribute, initiator, name,
                    allow_partial, allow_fallback, scope,
                )
        return self._alloc_route(
            size, attribute, initiator, name,
            allow_partial, allow_fallback, scope,
        )

    def _mem_alloc_traced(
        self, size, attribute, initiator, name,
        allow_partial, allow_fallback, scope,
    ) -> Buffer:
        """The sampled-in branch: record span + metrics around the same
        placement route the untraced path takes."""
        metrics = OBS.metrics
        with OBS.tracer.span(
            "mem_alloc", attribute=attribute, size=size, scope=scope
        ) as span:
            metrics.counter("alloc.requests", attribute=attribute).inc()
            try:
                buffer = self._alloc_route(
                    size, attribute, initiator, name,
                    allow_partial, allow_fallback, scope,
                )
            except CapacityError:
                metrics.counter("alloc.capacity_errors", attribute=attribute).inc()
                raise
            primary = None if buffer.target is None else buffer.target.os_index
            metrics.counter(
                "alloc.placed",
                attribute=buffer.used_attribute,
                node="split" if primary is None else primary,
            ).inc()
            metrics.histogram("alloc.fallback_rank").observe(buffer.fallback_rank)
            if buffer.fallback_rank > 0:
                metrics.counter("alloc.capacity_fallbacks").inc()
            if buffer.used_attribute.lower() != str(attribute).lower():
                metrics.counter(
                    "alloc.attribute_fallbacks",
                    requested=attribute,
                    used=buffer.used_attribute,
                ).inc()
            span.fields.update(
                buffer=buffer.name,
                used_attribute=buffer.used_attribute,
                fallback_rank=buffer.fallback_rank,
                nodes=list(buffer.nodes),
            )
            return buffer

    def _alloc_route(
        self, size, attribute, initiator, name,
        allow_partial, allow_fallback, scope,
    ) -> Buffer:
        """Fast path when eligible, else the legacy body; the one
        placement route of both the traced and untraced mem_alloc."""
        if name is None and allow_fallback and not allow_partial:
            buf = self._fast_alloc(size, attribute, initiator, scope)
            if buf is not None:
                return buf
        return self._mem_alloc_impl(
            size,
            attribute,
            initiator,
            name=name,
            allow_partial=allow_partial,
            allow_fallback=allow_fallback,
            scope=scope,
        )

    def _fast_alloc(self, size, attribute, initiator, scope) -> Buffer | None:
        """Plan-cache fast allocation; None means "take the legacy path".

        A recycled commit never reaches the kernel's instrumented
        allocate, so it emits the page accounting counters itself.
        """
        try:
            plan = self._plans.get((attribute, initiator, scope))
        except TypeError:
            return None
        if (
            plan is None
            or plan.generation != self.memattrs._generation
            or not self._qc.enabled
        ):
            return None
        pool = plan.pool
        if pool:
            buf = pool[-1]
            alloc = buf.allocation
            if alloc.size_bytes == size:
                state = plan.state
                pages = alloc.pages_by_node[plan.node]
                if (
                    state.free_pages >= pages
                    and self.buffers.setdefault(buf.name, buf) is buf
                ):
                    del pool[-1]
                    state.free_pages -= pages
                    alloc.freed = False
                    self._kernel_live[alloc.allocation_id] = alloc
                    if OBS.enabled:
                        OBS.metrics.counter("kernel.allocations").inc()
                        OBS.metrics.counter("kernel.pages_allocated").inc(pages)
                    return buf
        return self._plan_alloc(plan, size, attribute)

    def _plan_alloc(self, plan: _AllocPlan, size, attribute) -> Buffer | None:
        """First-fit over a valid plan's online entries, committing through
        the kernel's no-walk fast commit.  None when nothing fits (the
        legacy path then re-walks and raises the canonical error)."""
        pages = -(-size // self._page_size)
        for state, node, target, policy, rank in plan.entries:
            if state.free_pages >= pages:
                alloc = self.kernel.place_pages(node, pages, size, policy)
                bufname = f"buf{next(_buffer_ids)}"
                buffer = Buffer(
                    name=bufname,
                    size=size,
                    requested_attribute=attribute,
                    used_attribute=plan.used_attr,
                    allocation=alloc,
                    target=target,
                    fallback_rank=rank,
                    initiator=plan.initiator_pus,
                )
                if rank == plan.best_rank:
                    buffer._plan = plan
                self.buffers[bufname] = buffer
                return buffer
        return None

    def _build_plan(self, used_attr, ranked, initiator_pus) -> _AllocPlan:
        """Flatten one resolved ranking into a warm-path plan."""
        nodes = self.kernel.nodes
        offline = self.kernel._offline
        entries = tuple(
            (
                nodes[tv.target.os_index],
                tv.target.os_index,
                tv.target,
                bind_policy(tv.target.os_index),
                rank,
            )
            for rank, tv in enumerate(ranked)
            if tv.target.os_index not in offline
        )
        plan = _AllocPlan()
        plan.generation = self.memattrs._generation
        plan.used_attr = used_attr
        plan.entries = entries
        if entries:
            plan.state = entries[0][0]
            plan.node = entries[0][1]
            plan.best_rank = entries[0][4]
        else:
            plan.state = None
            plan.node = -1
            plan.best_rank = -1
        plan.best_node_orig = ranked[0].target.os_index
        plan.best_target_orig = ranked[0].target
        plan.nodeset = tuple(tv.target.os_index for tv in ranked)
        plan.initiator_pus = initiator_pus
        plan.pool = []
        return plan

    def _mem_alloc_impl(
        self,
        size: int,
        attribute: str,
        initiator,
        *,
        name: str | None,
        allow_partial: bool,
        allow_fallback: bool,
        scope: str,
    ) -> Buffer:
        if size <= 0:
            raise AllocationError("allocation size must be positive")
        auto_named = name is None
        name = name or f"buf{next(_buffer_ids)}"
        if name in self.buffers:
            raise AllocationError(f"buffer name {name!r} already in use")
        initiator_pus = self._initiator_pus(initiator)
        used_attr, ranked = self.rank_for(attribute, initiator, scope=scope)
        # (Re)build the warm-path plan for this triple while the resolved
        # ranking is in hand, so the next request takes the fast path.
        plan = None
        if self._qc.enabled:
            try:
                plan = self._plans.get((attribute, initiator, scope))
                if plan is None or plan.generation != self.memattrs._generation:
                    plan = self._build_plan(used_attr, ranked, initiator_pus)
                    self._plans[(attribute, initiator, scope)] = plan
            except TypeError:      # unhashable initiator: uncacheable
                plan = None
        if not allow_fallback:
            ranked = ranked[:1]

        if allow_partial:
            # Greedy spill down the ranking ("at least partially", §VII).
            nodeset = tuple(tv.target.os_index for tv in ranked)
            total_free = sum(self.kernel.free_bytes(n) for n in nodeset)
            if total_free >= size:
                allocation = self.kernel.allocate_ordered(size, nodeset)
                best_node = ranked[0].target.os_index
                buffer = Buffer(
                    name=name,
                    size=size,
                    requested_attribute=attribute,
                    used_attribute=used_attr,
                    allocation=allocation,
                    target=(
                        ranked[0].target
                        if allocation.fraction_on(best_node) > 0
                        else None
                    ),
                    fallback_rank=0 if allocation.fraction_on(best_node) >= 0.999 else 1,
                    initiator=initiator_pus,
                )
                self.buffers[name] = buffer
                return buffer
        else:
            for rank, tv in enumerate(ranked):
                node = tv.target.os_index
                if self.kernel.free_bytes(node) >= size:
                    allocation = self.kernel.allocate(
                        size, bind_policy(node), initiator_pu=initiator_pus[0]
                    )
                    buffer = Buffer(
                        name=name,
                        size=size,
                        requested_attribute=attribute,
                        used_attribute=used_attr,
                        allocation=allocation,
                        target=tv.target,
                        fallback_rank=rank,
                        initiator=initiator_pus,
                    )
                    if auto_named and plan is not None and node == plan.node:
                        # Eligible for pool recycling when freed: unnamed,
                        # whole-buffer, sitting on the plan's best target.
                        buffer._plan = plan
                    self.buffers[name] = buffer
                    return buffer

        raise CapacityError(
            f"cannot place {size} bytes for attribute {attribute!r}: "
            + "; ".join(
                f"{tv.target.label} free={self.kernel.free_bytes(tv.target.os_index)}"
                for tv in ranked
            )
        )

    def mem_alloc_many(
        self,
        requests,
        *,
        rollback_on_error: bool = True,
    ) -> tuple[Buffer, ...]:
        """Allocate a batch of buffers in one call.

        ``requests`` is an iterable of :class:`AllocRequest` (or dicts /
        tuples with the same fields).  Requests sharing an (attribute,
        initiator, scope) resolve their target ranking once — the query
        cache serves every repeat — so the per-buffer cost is only the
        free-capacity walk and the page placement.

        By default the batch is all-or-nothing: when any request fails,
        buffers already placed by this call are freed before the error
        propagates.  ``rollback_on_error=False`` keeps the partial batch
        (the failed request's error still propagates).
        """
        if not OBS.enabled:
            return self._mem_alloc_many_impl(
                requests, rollback_on_error=rollback_on_error
            )
        with OBS.tracer.span("mem_alloc_many") as span:
            OBS.metrics.counter("alloc.batches").inc()
            try:
                placed = self._mem_alloc_many_impl(
                    requests, rollback_on_error=rollback_on_error
                )
            except Exception:
                OBS.metrics.counter("alloc.batch_failures").inc()
                raise
            span.fields.update(buffers=len(placed))
            OBS.metrics.histogram("alloc.batch_size").observe(len(placed))
            return placed

    def _mem_alloc_many_impl(
        self,
        requests,
        *,
        rollback_on_error: bool,
    ) -> tuple[Buffer, ...]:
        reqs = requests if type(requests) is list else list(requests)
        if reqs and not OBS.enabled and reqs[0].__class__ is AllocRequest:
            # Batch fast paths.  Both bail to the sequential loop (None)
            # whenever any request is not plan-eligible or capacity is
            # tight enough that first-fit order matters — the loop is the
            # semantic definition of a batch.  Mixed dict/tuple request
            # shapes also fall through (normalization happens in the
            # loop below).
            fast = (
                self._batch_partial_fast(reqs)
                if reqs[0].allow_partial
                else self._batch_fast(reqs)
            )
            if fast is not None:
                return fast
        placed: list[Buffer] = []
        try:
            for req in reqs:
                if isinstance(req, AllocRequest):
                    r = req
                elif isinstance(req, dict):
                    r = AllocRequest(**req)
                else:
                    r = AllocRequest(*req)
                placed.append(
                    self.mem_alloc(
                        r.size,
                        r.attribute,
                        r.initiator,
                        name=r.name,
                        allow_partial=r.allow_partial,
                        allow_fallback=r.allow_fallback,
                        scope=r.scope,
                    )
                )
        except Exception:
            if rollback_on_error:
                for buf in reversed(placed):
                    self.free(buf)
            raise
        return tuple(placed)

    def _batch_fast(self, reqs: list[AllocRequest]) -> tuple[Buffer, ...] | None:
        """Whole-buffer batch commit: one fused fast-path pass per request.

        Runs the warm fast path (pool recycle, else plan first-fit) over
        the batch in request order — by construction the same placement
        decisions as the sequential ``mem_alloc`` loop, minus the
        per-request dispatch, telemetry-gate and capacity re-derivation
        overhead.  Any ineligible request (named, partial, stale plan,
        nothing fits) undoes the committed prefix exactly (fast free
        restores counters and pools) and returns None, and the caller
        replays through the sequential loop.
        """
        if not self._qc.enabled:
            return None
        gen = self.memattrs._generation
        plans = self._plans
        live = self._kernel_live
        buffers = self.buffers
        out: list[Buffer] = []
        for r in reqs:
            if (
                r.__class__ is not AllocRequest
                or r.name is not None
                or r.allow_partial
                or not r.allow_fallback
            ):
                break
            try:
                plan = plans.get((r.attribute, r.initiator, r.scope))
            except TypeError:
                break
            if plan is None or plan.generation != gen:
                break
            size = r.size
            pool = plan.pool
            if pool:
                buf = pool[-1]
                alloc = buf.allocation
                if alloc.size_bytes == size:
                    state = plan.state
                    pages = alloc.pages_by_node[plan.node]
                    if (
                        state.free_pages >= pages
                        and buffers.setdefault(buf.name, buf) is buf
                    ):
                        del pool[-1]
                        state.free_pages -= pages
                        alloc.freed = False
                        live[alloc.allocation_id] = alloc
                        out.append(buf)
                        continue
            buf = self._plan_alloc(plan, size, r.attribute)
            if buf is None:
                break
            out.append(buf)
        else:
            return tuple(out)
        for buf in reversed(out):
            self.free(buf)
        return None

    def _batch_partial_fast(
        self, reqs: list[AllocRequest]
    ) -> tuple[Buffer, ...] | None:
        """Hybrid (spill) batch via the kernel's vectorized ordered fill.

        Applies when the whole batch shares one plan-eligible
        ``(attribute, initiator, scope)`` triple with ``allow_partial``
        set and the ranked nodeset can hold the batch total — exactly the
        regime where a sequence of ``allocate_ordered`` calls equals one
        cumulative fill, which :meth:`KernelMemoryManager.
        allocate_many_ordered` computes with numpy array ops.
        """
        r0 = reqs[0]
        for r in reqs:
            if (
                r.__class__ is not AllocRequest
                or r.name is not None
                or not r.allow_partial
                or not r.allow_fallback
                or r.attribute != r0.attribute
                or r.initiator != r0.initiator
                or r.scope != r0.scope
            ):
                return None
        if not self._qc.enabled:
            return None
        try:
            plan = self._plans.get((r0.attribute, r0.initiator, r0.scope))
        except TypeError:
            return None
        if plan is None or plan.generation != self.memattrs._generation:
            return None
        ps = self._page_size
        total_pages = sum(-(-r.size // ps) for r in reqs)
        free_total = int(self.kernel.free_pages_array(plan.nodeset).sum())
        if total_pages > free_total:
            return None
        allocs = self.kernel.allocate_many_ordered(
            [r.size for r in reqs], plan.nodeset
        )
        best = plan.best_node_orig
        out: list[Buffer] = []
        for r, alloc in zip(reqs, allocs):
            frac = alloc.fraction_on(best)
            bufname = f"buf{next(_buffer_ids)}"
            buffer = Buffer(
                name=bufname,
                size=r.size,
                requested_attribute=r.attribute,
                used_attribute=plan.used_attr,
                allocation=alloc,
                target=plan.best_target_orig if frac > 0 else None,
                fallback_rank=0 if frac >= 0.999 else 1,
                initiator=plan.initiator_pus,
            )
            self.buffers[bufname] = buffer
            out.append(buffer)
        return tuple(out)

    def cache_stats(self) -> dict:
        """Hit/miss/invalidation counters of the shared query cache."""
        return self.memattrs.cache_stats()

    def free(self, buffer: Buffer | str) -> None:
        # Fast path: a live fast-path buffer releases its pages straight
        # to its plan's node counter and parks itself in the plan's pool
        # for recycling.  Everything else (names, migrated/split buffers,
        # double frees) takes the legacy route below.
        if buffer.__class__ is Buffer:
            plan = buffer._plan
            if plan is not None:
                alloc = buffer.allocation
                pbn = alloc.pages_by_node
                pages = pbn.get(plan.node)
                if pages is not None and len(pbn) == 1 and not alloc.freed:
                    got = self.buffers.pop(buffer.name, None)
                    if got is buffer:
                        del self._kernel_live[alloc.allocation_id]
                        alloc.freed = True
                        plan.state.free_pages += pages
                        pool = plan.pool
                        if len(pool) < _POOL_MAX:
                            pool.append(buffer)
                        return
                    if got is not None:
                        # A different live buffer owns this name (the
                        # caller's handle is stale): restore and let the
                        # legacy route raise its canonical error.
                        self.buffers[buffer.name] = got
        buffer = self._resolve_buffer(buffer)
        self.kernel.free(buffer.allocation)
        del self.buffers[buffer.name]

    def migrate(self, buffer: Buffer | str, attribute: str) -> MigrationReport:
        """Move a buffer to the (possibly new) best target for ``attribute``.

        Used at phase changes (§VII): expensive, so callers should check
        :attr:`MigrationReport.estimated_seconds` against the expected
        gain.
        """
        if not OBS.enabled:
            return self._migrate_impl(buffer, attribute)
        with OBS.tracer.span("alloc.migrate", attribute=attribute) as span:
            report = self._migrate_impl(buffer, attribute)
            span.fields.update(
                moved_pages=report.moved_pages, to_node=report.to_node
            )
            return report

    def _migrate_impl(self, buffer: Buffer | str, attribute: str) -> MigrationReport:
        buffer = self._resolve_buffer(buffer)
        used_attr, ranked = self.rank_for(attribute, buffer.initiator)
        for tv in ranked:
            node = tv.target.os_index
            already = buffer.allocation.fraction_on(node)
            needed = buffer.size * (1 - already)
            if self.kernel.free_bytes(node) >= needed:
                report = self.kernel.migrate(buffer.allocation, node)
                buffer.target = tv.target
                buffer.used_attribute = used_attr
                buffer.requested_attribute = attribute
                return report
        raise CapacityError(
            f"no target can absorb {buffer.name} for attribute {attribute!r}"
        )

    # ------------------------------------------------------------------
    def placement(self) -> Placement:
        """The live buffers as a simulator placement."""
        return Placement(
            {
                name: buf.placement_fractions()
                for name, buf in self.buffers.items()
            }
        )

    def _resolve_buffer(self, buffer: Buffer | str) -> Buffer:
        if isinstance(buffer, Buffer):
            key = buffer.name
        else:
            key = buffer
        try:
            return self.buffers[key]
        except KeyError:
            raise AllocationError(f"unknown buffer {key!r}") from None

    def _initiator_pus(self, initiator) -> tuple[int, ...]:
        cache = self.memattrs.query_cache
        cpuset = as_cpuset(self.memattrs.topology, initiator, cache=cache)
        pus = cache.get("initiator_pus", cpuset)
        if pus is not MISSING:
            return pus
        if cpuset.is_empty():
            raise AllocationError("initiator has no PUs")
        pus = tuple(cpuset)
        cache.store("initiator_pus", cpuset, pus)
        return pus
