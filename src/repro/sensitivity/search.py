"""Scalable per-buffer placement search (paper §V-A's combinatorial case).

"In the general case, one should rather compare the performance of all
possible placements of every buffer ... N buffers lead to 2^N possible
placements", pruned "by identifying buffers that are obviously not
performance critical".

PR 1 reproduced the warning literally: a materialized ``itertools.product``
sweep that refused to run past ``max_candidates``.  This module replaces it
with a search *engine* that scales to the spaces the paper only gestures
at:

* **streaming enumeration** — candidates are generated by recursive
  assignment and fed into a bounded top-k heap; nothing of size
  ``kinds^N`` is ever materialized;
* **prefix capacity pruning** — a node that cannot absorb the buffers
  assigned so far kills the whole subtree, not individual leaves;
* **branch-and-bound** — an admissible per-phase lower bound (each phase
  priced with every undecided buffer on its best node for that phase,
  precomputed once per phase from single-buffer pricings) skips subtrees
  that cannot beat the current k-th best candidate;
* **budgeted pricing** — ``max_candidates`` is a pricing budget with a
  loggable truncation report instead of a hard error.

:func:`search_placements` is the full engine; :func:`exhaustive_search`
keeps PR 1's tuple-returning signature for the oracle benchmarks.

The walk runs in one process.  Branch-and-bound collapses the top-k
spaces to a few priced leaves, and even the 4096-leaf 8-node KNL
exhaustive search of Graph500 takes longer when fanned out over two
processes than serially (docs/MODEL.md §7b).
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..obs import OBS
from ..sim.access import KernelPhase, Placement
from ..sim.engine import CompiledPhase, SimEngine

__all__ = [
    "PlacementCandidate",
    "SearchStats",
    "SearchResult",
    "search_placements",
    "exhaustive_search",
]

#: Prune only when the lower bound clears the incumbent by this relative
#: margin: the bound and the true pricing sum floats in different orders,
#: so equality-adjacent comparisons get a safety belt.
_BOUND_SLACK = 1e-12

#: Collected-leaf count below which the batch pricing path falls back to
#: scalar per-leaf pricing: a tiny batch pays the fraction-tensor and
#: result-marshalling overhead without amortizing it.
_BATCH_MIN_LEAVES = 32

#: Most placement rows priced in one batch-engine call: the engine's
#: temporaries grow with the row count, and an exhaustive search collects
#: thousands of rows.
_BATCH_MAX_ROWS = 1024

#: Escape hatch for differential tests: setting this to False forces the
#: lazy per-leaf pricing walk even where the batch path would engage.
_BATCH_LEAF_PATH = True


@dataclass(frozen=True)
class PlacementCandidate:
    """One evaluated placement."""

    assignment: tuple[tuple[str, int], ...]   # (buffer, node) pairs
    seconds: float

    def as_dict(self) -> dict[str, int]:
        return dict(self.assignment)


@dataclass(frozen=True)
class SearchStats:
    """What the search did to the ``kinds^N`` space."""

    space_size: int           # full candidate space (kinds^N)
    leaves_priced: int        # complete assignments actually priced
    kept: int                 # candidates returned
    capacity_pruned: int      # leaves skipped via prefix capacity pruning
    bound_pruned: int         # leaves skipped via branch-and-bound
    truncated: bool           # pricing budget exhausted before completion
    budget: int | None        # the pricing budget (None = unlimited)
    slice_pricings: int       # engine pricings for candidate evaluation
    bound_pricings: int       # engine pricings for the lower-bound tables
    # The search always runs in one process; these two constants remain
    # because callers read them and report() prints them.
    workers: int = 1
    dispatch: str = "serial"

    def report(self) -> str:
        """Human-readable (and loggable) account of the search."""
        lines = [
            f"placement search: space {self.space_size}, "
            f"priced {self.leaves_priced} leaves, kept {self.kept}",
            f"  pruned: {self.capacity_pruned} by capacity, "
            f"{self.bound_pruned} by bound",
            f"  engine pricings: {self.slice_pricings} slice + "
            f"{self.bound_pricings} bound, workers: {self.workers}",
            # Kept verbatim: recorded `repro-experiments all` output
            # digests include this line.
            f"  dispatch: {self.dispatch} "
            f"(requested workers {self.workers}; parallel not requested)",
        ]
        if self.truncated:
            lines.append(
                f"  TRUNCATED: pricing budget {self.budget} exhausted; "
                f"unexplored candidates remain — raise max_candidates or "
                f"prune critical_buffers"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class SearchResult:
    """Candidates (best first) plus the search's accounting."""

    candidates: tuple[PlacementCandidate, ...]
    stats: SearchStats

    @property
    def best(self) -> PlacementCandidate:
        return self.candidates[0]


class _BudgetExhausted(Exception):
    """Internal: the leaf-pricing budget ran out."""


# ----------------------------------------------------------------------
# admissible lower bound
# ----------------------------------------------------------------------
class _BoundModel:
    """Admissible per-phase lower bounds from single-buffer pricings.

    For every (phase, buffer, node) the engine prices the buffer's
    prepared access *alone* on the node
    (:meth:`~repro.sim.engine.SimEngine.price_access_alone`): the access
    keeps its real cache share — its miss counts are exactly those of the
    full phase — while the node carries only this buffer's working set,
    so its loaded latency is at its lowest and its bandwidth at its
    highest.  Both components are therefore lower bounds on the buffer's
    contribution in any complete placement (docs/MODEL.md, "Placement
    search" has the monotonicity argument).

    The phase lower bound under a partial assignment combines:

    * decided buffers at their assigned nodes (latency terms summed; per
      node, bandwidth terms summed),
    * every undecided buffer on its *best* node for that phase
      (``min`` over candidate nodes, precomputed as suffix aggregates),

    as ``max(bw_lb, lat_lb + cpu)`` per phase, summed over phases — the
    same roofline combination the engine applies, on per-term lower
    bounds.
    """

    def __init__(
        self,
        engine: SimEngine,
        prepared: tuple,
        critical: tuple[str, ...],
        candidate_nodes: tuple[int, ...],
        default_node: int,
        *,
        vectorized: bool = True,
    ) -> None:
        self.pricings = 0
        crit_index = {b: i for i, b in enumerate(critical)}
        n_phases = len(prepared)
        self._cpu = tuple(p.cpu_seconds for p in prepared)
        # Decided-term state, mutated by apply()/undo() during the walk.
        self._dec_lat = [0.0] * n_phases
        self._dec_bw: list[dict[int, float]] = [{} for _ in range(n_phases)]
        # touch[i]: per critical buffer i, (phase, lat-by-node, bw-by-node).
        self._touch: list[list[tuple[int, dict[int, float], dict[int, float]]]] = [
            [] for _ in critical
        ]
        # Suffix aggregates over undecided critical buffers: per phase,
        # sum of min-latency and max of min-bandwidth for buffers >= i.
        n_crit = len(critical)
        self._suffix_lat = [[0.0] * (n_crit + 1) for _ in range(n_phases)]
        self._suffix_bw = [[0.0] * (n_crit + 1) for _ in range(n_phases)]
        min_lat = [[0.0] * n_crit for _ in range(n_phases)]
        min_bw = [[0.0] * n_crit for _ in range(n_phases)]

        # The vectorized build replaces phases x accesses x nodes scalar
        # price_access_alone calls with one (B, K) table per phase —
        # bit-identical per element, so the resulting bound tables (and
        # every pruning decision downstream) are unchanged.  The scalar
        # loop is kept behind vectorized=False as the differential
        # reference.
        axis: tuple[int, ...] = ()
        tables: list[tuple] = []
        if vectorized:
            axis = tuple(
                dict.fromkeys(tuple(candidate_nodes) + (default_node,))
            )
            for prep in prepared:
                compiled = engine.compile_prepared(prep, axis)
                tables.append(engine.price_accesses_alone_batch(compiled))
        axis_pos = {node: k for k, node in enumerate(axis)}

        def alone(p: int, index: int, node: int) -> tuple[float, float]:
            if vectorized:
                lat_tab, bw_tab = tables[p]
                k = axis_pos[node]
                return float(lat_tab[index, k]), float(bw_tab[index, k])
            return engine.price_access_alone(prepared[p], index, node)

        for p, prep in enumerate(prepared):
            for index, (access, _) in enumerate(prep.filtered):
                ci = crit_index.get(access.buffer)
                if ci is None:
                    # Non-critical: pinned on the default node from the start.
                    lat, bw = alone(p, index, default_node)
                    self.pricings += 1
                    self._dec_lat[p] += lat
                    self._dec_bw[p][default_node] = (
                        self._dec_bw[p].get(default_node, 0.0) + bw
                    )
                    continue
                lat_by_node: dict[int, float] = {}
                bw_by_node: dict[int, float] = {}
                for node in candidate_nodes:
                    lat, bw = alone(p, index, node)
                    self.pricings += 1
                    lat_by_node[node] = lat
                    bw_by_node[node] = bw
                self._touch[ci].append((p, lat_by_node, bw_by_node))
                min_lat[p][ci] = min(lat_by_node.values())
                min_bw[p][ci] = min(bw_by_node.values())

        for p in range(n_phases):
            for i in range(n_crit - 1, -1, -1):
                self._suffix_lat[p][i] = self._suffix_lat[p][i + 1] + min_lat[p][i]
                self._suffix_bw[p][i] = max(self._suffix_bw[p][i + 1], min_bw[p][i])

    # -- incremental decided-state maintenance -------------------------
    def apply(self, index: int, node: int) -> list[tuple[int, float, float]]:
        """Assign critical buffer ``index`` to ``node``; returns an undo token."""
        undo = []
        for p, lat_by_node, bw_by_node in self._touch[index]:
            undo.append((p, self._dec_lat[p], self._dec_bw[p].get(node, 0.0)))
            self._dec_lat[p] += lat_by_node[node]
            self._dec_bw[p][node] = (
                self._dec_bw[p].get(node, 0.0) + bw_by_node[node]
            )
        return undo

    def undo(self, index: int, node: int, token) -> None:
        # Restore the exact prior floats (re-subtracting would drift).
        for p, lat, bw in token:
            self._dec_lat[p] = lat
            self._dec_bw[p][node] = bw

    def bound(self, depth: int) -> float:
        """Admissible lower bound with critical buffers < depth decided."""
        total = 0.0
        for p in range(len(self._cpu)):
            dec_bw = self._dec_bw[p]
            bw_lb = max(dec_bw.values(), default=0.0)
            undecided_bw = self._suffix_bw[p][depth]
            if undecided_bw > bw_lb:
                bw_lb = undecided_bw
            lat_lb = self._dec_lat[p] + self._suffix_lat[p][depth] + self._cpu[p]
            total += bw_lb if bw_lb >= lat_lb else lat_lb
        return total

    def bound_for(self, prefix: tuple[int, ...]) -> float:
        """Convenience (tests): the bound under an explicit prefix."""
        tokens = [(i, n, self.apply(i, n)) for i, n in enumerate(prefix)]
        value = self.bound(len(prefix))
        for i, n, token in reversed(tokens):
            self.undo(i, n, token)
        return value


# ----------------------------------------------------------------------
# the search core
# ----------------------------------------------------------------------
class _SearchSpace:
    """One engine's view of the search: prepared phases + pricing memo."""

    def __init__(
        self,
        engine: SimEngine,
        phases: tuple[KernelPhase, ...],
        buffer_sizes: dict[str, int],
        candidate_nodes: tuple[int, ...],
        critical: tuple[str, ...],
        all_buffers: tuple[str, ...],
        default_node: int,
        node_capacity: dict[int, int] | None,
        pus: tuple[int, ...] | None,
        reuse_phase_pricings: bool,
    ) -> None:
        self.engine = engine
        self.phases = phases
        self.candidate_nodes = candidate_nodes
        self.critical = critical
        self.all_buffers = all_buffers
        self.default_node = default_node
        self.capacity = node_capacity
        self.pus = pus
        self.reuse = reuse_phase_pricings
        self.sizes = tuple(buffer_sizes[b] for b in critical)
        # One prepared context per phase: the cache model and per-access
        # cache filtering are shared by every candidate's pricing.
        self.prepared = tuple(engine.prepare_phase(p, pus=pus) for p in phases)
        self.phase_buffers = tuple(
            tuple(a.buffer for a in phase.accesses) for phase in phases
        )
        # (phase index, slice-of-placement-it-reads) -> seconds: phases only
        # look at the nodes of the buffers they access, so assignments
        # differing in other buffers reuse the exact same pricing.
        self.memo: dict[tuple, float] = {}
        self.pricings = 0
        self._compiled_cache: dict[int, CompiledPhase] = {}

    def _compiled(self, idx: int) -> CompiledPhase:
        compiled = self._compiled_cache.get(idx)
        if compiled is None:
            axis = tuple(
                dict.fromkeys(
                    tuple(self.candidate_nodes) + (self.default_node,)
                )
            )
            compiled = self.engine.compile_prepared(self.prepared[idx], axis)
            self._compiled_cache[idx] = compiled
        return compiled

    def _price_leaves(self, digits: np.ndarray) -> np.ndarray:
        """Price collected leaves through the batch engine.

        ``digits`` holds one row per leaf: the candidate-node index of
        each critical buffer.  For each distinct set of critical positions
        a phase reads, the leaves are folded into integer codes, one
        column at a time, re-ranked after every fold by ``np.unique`` so a
        code stays below ``rows * kinds`` whatever the buffer count.  Only
        the first leaf of each code is priced, through
        :meth:`SimEngine.price_placements_batch` at most
        :data:`_BATCH_MAX_ROWS` rows per call; rows price independently,
        so their order changes no float.  Per-leaf totals add the phase
        seconds in phase order, the same additions
        :meth:`price_assignment` makes, so the totals are bit-identical
        and ``self.pricings`` counts the same distinct (phase, slice)
        pricings.
        """
        rows = len(digits)
        kinds = len(self.candidate_nodes)
        crit_pos = {b: i for i, b in enumerate(self.critical)}
        totals = np.zeros(rows)
        # Critical positions read -> (first leaf of each slice, slice of
        # every leaf).
        slices: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        for idx, bufs in enumerate(self.phase_buffers):
            positions = tuple(crit_pos.get(b) for b in bufs)
            read = tuple(sorted({p for p in positions if p is not None}))
            found = slices.get(read)
            if found is None:
                # After each fold the code is a dense rank, 0..slices-1.
                code = np.zeros(rows, dtype=np.intp)
                for p in read:
                    code = np.unique(
                        code * kinds + digits[:, p], return_inverse=True
                    )[1]
                first = np.unique(code, return_index=True)[1]
                found = slices[read] = (first, code)
            first, inverse = found
            compiled = self._compiled(idx)
            # The node axis starts with the candidate nodes in order, so a
            # candidate index is its column; non-critical buffers sit on
            # the default node's column.
            default_col = compiled.node_pos[self.default_node]
            cols = np.empty((len(first), compiled.n_buffers), dtype=np.intp)
            for b, p in enumerate(positions):
                cols[:, b] = default_col if p is None else digits[first, p]
            buffer_row = np.arange(compiled.n_buffers)
            secs = np.empty(len(first))
            # Chunking bounds the batch engine's temporaries.
            for start in range(0, len(first), _BATCH_MAX_ROWS):
                chunk = cols[start : start + _BATCH_MAX_ROWS]
                frac = np.zeros(
                    (len(chunk), compiled.n_buffers, compiled.n_nodes)
                )
                frac[np.arange(len(chunk))[:, None], buffer_row, chunk] = 1.0
                secs[start : start + len(chunk)] = (
                    self.engine.price_placements_batch(compiled, frac).seconds
                )
            self.pricings += len(first)
            totals += secs[inverse]
        return totals

    def price_assignment(self, assignment: dict[str, int]) -> float:
        """Price one complete assignment of the critical buffers."""
        if not self.reuse:
            placement = Placement(
                {
                    b: {assignment.get(b, self.default_node): 1.0}
                    for b in self.all_buffers
                }
            )
            self.pricings += len(self.phases)
            return self.engine.price_run(
                self.phases, placement, pus=self.pus
            ).seconds
        seconds = 0.0
        for idx, bufs in enumerate(self.phase_buffers):
            key = (
                idx,
                tuple(assignment.get(b, self.default_node) for b in bufs),
            )
            cached = self.memo.get(key)
            if cached is None:
                placement = Placement(
                    {
                        b: {assignment.get(b, self.default_node): 1.0}
                        for b in bufs
                    }
                )
                cached = self.engine.price_prepared(
                    self.prepared[idx], placement
                ).seconds
                self.memo[key] = cached
                self.pricings += 1
            seconds += cached
        return seconds

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        top_k: int | None,
        budget: int | None,
        prune: bool,
    ) -> tuple[list[tuple[float, tuple[int, ...]]], dict]:
        """Walk the space; return sorted (seconds, combo) + stats."""
        nodes = self.candidate_nodes
        n_nodes = len(nodes)
        n_crit = len(self.critical)
        bound_model = None
        if prune and top_k is not None and n_crit > 0:
            bound_model = _BoundModel(
                self.engine,
                self.prepared,
                self.critical,
                nodes,
                self.default_node,
            )

        # No bound model means every surviving leaf gets priced — collect
        # them and push the pricing through the batch engine instead of
        # one scalar call per leaf.  Branch-and-bound stays on the lazy
        # path: its pruning depends on the incumbent built leaf by leaf.
        if (
            _BATCH_LEAF_PATH
            and bound_model is None
            and self.reuse
            and n_crit > 0
        ):
            return self._run_batch(top_k=top_k, budget=budget)

        heap: list[tuple] = []        # max-heap entries when top_k is set
        all_results: list[tuple[float, tuple[int, ...]]] = []
        combo = [0] * n_crit
        used: dict[int, int] = {}
        # Leaves under one node choice made at depth d.
        subtree = [n_nodes ** (n_crit - d - 1) for d in range(n_crit)]
        stats = {
            "leaves_priced": 0,
            "capacity_pruned": 0,
            "bound_pruned": 0,
            "truncated": False,
        }

        def price_leaf() -> None:
            if budget is not None and stats["leaves_priced"] >= budget:
                stats["truncated"] = True
                raise _BudgetExhausted
            assignment = dict(zip(self.critical, combo))
            seconds = self.price_assignment(assignment)
            stats["leaves_priced"] += 1
            if top_k is None:
                all_results.append((seconds, tuple(combo)))
                return
            entry = (
                (-seconds, tuple(-n for n in combo)),  # negated => max-heap
                seconds,
                tuple(combo),
            )
            if len(heap) < top_k:
                heapq.heappush(heap, entry)
            elif entry[0] > heap[0][0]:
                heapq.heapreplace(heap, entry)

        def walk(depth: int) -> None:
            if depth == n_crit:
                price_leaf()
                return
            need = self.sizes[depth]
            for node in nodes:
                if self.capacity is not None:
                    limit = self.capacity.get(node)  # missing => unlimited
                    if limit is not None and used.get(node, 0) + need > limit:
                        stats["capacity_pruned"] += subtree[depth]
                        continue
                combo[depth] = node
                used[node] = used.get(node, 0) + need
                token = (
                    bound_model.apply(depth, node)
                    if bound_model is not None
                    else None
                )
                try:
                    if (
                        bound_model is not None
                        and len(heap) == top_k
                        and bound_model.bound(depth + 1)
                        > -heap[0][0][0] * (1.0 + _BOUND_SLACK)
                    ):
                        stats["bound_pruned"] += subtree[depth]
                    else:
                        walk(depth + 1)
                finally:
                    if token is not None:
                        bound_model.undo(depth, node, token)
                    used[node] -= need

        try:
            walk(0)
        except _BudgetExhausted:
            pass

        if top_k is not None:
            all_results = [(sec, cmb) for _, sec, cmb in heap]
        all_results.sort()
        stats["slice_pricings"] = self.pricings
        stats["bound_pricings"] = bound_model.pricings if bound_model else 0
        return all_results, stats

    def _run_batch(
        self,
        *,
        top_k: int | None,
        budget: int | None,
    ) -> tuple[list[tuple[float, tuple[int, ...]]], dict]:
        """Collect-then-batch variant of :meth:`run` (no bound model).

        The walk is the same recursive assignment with identical prefix
        capacity pruning and budget truncation; leaves are collected in
        walk order as candidate indices and priced through
        :meth:`_price_leaves`.  Ordering every priced leaf by
        ``(seconds, node ids)`` and slicing ``top_k`` equals the lazy
        path's heap under the same total order, so results and stats are
        unchanged — only wall-clock drops.
        """
        nodes = self.candidate_nodes
        n_nodes = len(nodes)
        n_crit = len(self.critical)
        combo = [0] * n_crit
        used: dict[int, int] = {}
        subtree = [n_nodes ** (n_crit - d - 1) for d in range(n_crit)]
        stats = {
            "leaves_priced": 0,
            "capacity_pruned": 0,
            "bound_pruned": 0,
            "truncated": False,
        }
        leaves: list[tuple[int, ...]] = []

        def collect_leaf() -> None:
            if budget is not None and stats["leaves_priced"] >= budget:
                stats["truncated"] = True
                raise _BudgetExhausted
            leaves.append(tuple(combo))
            stats["leaves_priced"] += 1

        def walk(depth: int) -> None:
            if depth == n_crit:
                collect_leaf()
                return
            need = self.sizes[depth]
            for k, node in enumerate(nodes):
                if self.capacity is not None:
                    limit = self.capacity.get(node)  # missing => unlimited
                    if limit is not None and used.get(node, 0) + need > limit:
                        stats["capacity_pruned"] += subtree[depth]
                        continue
                combo[depth] = k
                used[node] = used.get(node, 0) + need
                try:
                    walk(depth + 1)
                finally:
                    used[node] -= need

        try:
            walk(0)
        except _BudgetExhausted:
            pass

        digits = np.array(leaves, dtype=np.intp).reshape(len(leaves), n_crit)
        node_ids = np.array(nodes, dtype=np.int64)[digits]
        if len(leaves) < _BATCH_MIN_LEAVES:
            seconds = np.array(
                [
                    self.price_assignment(dict(zip(self.critical, row)))
                    for row in node_ids.tolist()
                ]
            )
        else:
            seconds = self._price_leaves(digits)
        # np.lexsort's last key is the primary one: seconds, then the
        # node ids left to right.
        order = np.lexsort((*node_ids.T[::-1], seconds))[:top_k]
        all_results = list(
            zip(seconds[order].tolist(), map(tuple, node_ids[order].tolist()))
        )
        stats["slice_pricings"] = self.pricings
        stats["bound_pricings"] = 0
        return all_results, stats


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def search_placements(
    engine: SimEngine,
    phases: tuple[KernelPhase, ...],
    buffer_sizes: dict[str, int],
    candidate_nodes: tuple[int, ...],
    *,
    default_node: int,
    critical_buffers: tuple[str, ...] | None = None,
    node_capacity: dict[int, int] | None = None,
    pus: tuple[int, ...] | None = None,
    top_k: int | None = None,
    max_candidates: int | None = None,
    prune: bool = True,
    workers: int = 1,
    reuse_phase_pricings: bool = True,
    log=None,
) -> SearchResult:
    """Search placements of the critical buffers over the candidate nodes.

    Non-critical buffers stay on ``default_node``.  Returns the
    candidates best-first under the deterministic total order
    ``(seconds, assignment)``.

    ``top_k``
        Keep only the k best candidates (streaming heap).  ``None``
        returns every feasible candidate priced, like PR 1's oracle.
    ``max_candidates``
        Pricing *budget*: at most this many complete assignments are
        priced; exceeding it truncates the walk (``stats.truncated``)
        instead of raising.  ``None`` = unlimited.
    ``prune``
        Enable branch-and-bound when ``top_k`` is set: subtrees whose
        admissible lower bound cannot beat the current k-th best are
        skipped.  Lossless — only candidates provably worse than the kept
        set are skipped.
    ``workers``
        Accepted and ignored: the search runs in one process.
    ``node_capacity``
        Max bytes per node; a node *missing* from the dict is unlimited
        (use an explicit ``0`` to forbid a node).
    ``log``
        Callable receiving ``stats.report()`` when the search finishes
        (notably the truncation report).
    """
    # Normalised before the span records them: numpy integers would not
    # serialize, and a plain int is what every assignment returns.
    candidate_nodes = tuple(_node_id(n) for n in candidate_nodes)
    if not OBS.enabled:
        return _search_placements_impl(
            engine,
            phases,
            buffer_sizes,
            candidate_nodes,
            default_node=default_node,
            critical_buffers=critical_buffers,
            node_capacity=node_capacity,
            pus=pus,
            top_k=top_k,
            max_candidates=max_candidates,
            prune=prune,
            reuse_phase_pricings=reuse_phase_pricings,
            log=log,
        )
    with OBS.tracer.span(
        "search.placements",
        nodes=list(candidate_nodes),
        top_k=top_k,
    ) as span:
        result = _search_placements_impl(
            engine,
            phases,
            buffer_sizes,
            candidate_nodes,
            default_node=default_node,
            critical_buffers=critical_buffers,
            node_capacity=node_capacity,
            pus=pus,
            top_k=top_k,
            max_candidates=max_candidates,
            prune=prune,
            reuse_phase_pricings=reuse_phase_pricings,
            log=log,
        )
        stats = result.stats
        metrics = OBS.metrics
        metrics.counter("search.runs").inc()
        metrics.counter("search.leaves_priced").inc(stats.leaves_priced)
        metrics.counter("search.capacity_pruned").inc(stats.capacity_pruned)
        metrics.counter("search.bound_pruned").inc(stats.bound_pruned)
        metrics.counter("search.slice_pricings").inc(stats.slice_pricings)
        metrics.counter("search.bound_pricings").inc(stats.bound_pricings)
        if stats.truncated:
            metrics.counter("search.truncations").inc()
        span.fields.update(
            space_size=stats.space_size,
            leaves_priced=stats.leaves_priced,
            capacity_pruned=stats.capacity_pruned,
            bound_pruned=stats.bound_pruned,
            kept=stats.kept,
            best_seconds=result.best.seconds,
        )
        return result


def _node_id(node) -> int:
    try:
        return operator.index(node)
    except TypeError:
        raise ReproError(f"node ids must be integers, got {node!r}") from None


def _positive_count(value, name: str) -> int | None:
    if value is None:
        return None
    # bool is an int subclass, but top_k=True is a mistake, not 1.
    if isinstance(value, bool):
        raise ReproError(f"{name} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise ReproError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ReproError(f"{name} must be >= 1, got {value}")
    return value


def _search_placements_impl(
    engine: SimEngine,
    phases: tuple[KernelPhase, ...],
    buffer_sizes: dict[str, int],
    candidate_nodes: tuple[int, ...],
    *,
    default_node: int,
    critical_buffers: tuple[str, ...] | None,
    node_capacity: dict[int, int] | None,
    pus: tuple[int, ...] | None,
    top_k: int | None,
    max_candidates: int | None,
    prune: bool,
    reuse_phase_pricings: bool,
    log,
) -> SearchResult:
    if not phases:
        raise ReproError("need at least one phase to search over")
    phases = tuple(phases)
    all_buffers = tuple(
        sorted({a.buffer for phase in phases for a in phase.accesses})
    )
    missing = [b for b in all_buffers if b not in buffer_sizes]
    if missing:
        raise ReproError(f"no sizes for buffers: {missing}")
    critical = tuple(
        critical_buffers if critical_buffers is not None else all_buffers
    )
    unknown = set(critical) - set(all_buffers)
    if unknown:
        raise ReproError(f"critical buffers not in phases: {sorted(unknown)}")
    if len(set(critical)) != len(critical):
        raise ReproError(f"duplicate critical buffers: {list(critical)}")
    if not candidate_nodes:
        raise ReproError("need at least one candidate node")
    if len(set(candidate_nodes)) != len(candidate_nodes):
        raise ReproError(f"duplicate candidate nodes: {list(candidate_nodes)}")
    default_node = _node_id(default_node)
    top_k = _positive_count(top_k, "top_k")
    max_candidates = _positive_count(max_candidates, "max_candidates")

    # Not bound to a name: the space's pricing memo is freed before the
    # candidates are built, which keeps the peak memory of exhaustive
    # searches down.
    entries, raw = _SearchSpace(
        engine,
        phases,
        buffer_sizes,
        candidate_nodes,
        critical,
        all_buffers,
        default_node,
        node_capacity,
        pus,
        reuse_phase_pricings,
    ).run(top_k=top_k, budget=max_candidates, prune=prune)
    candidates = tuple(
        PlacementCandidate(
            assignment=tuple(zip(critical, cmb)), seconds=sec
        )
        for sec, cmb in entries
    )
    stats = SearchStats(
        space_size=len(candidate_nodes) ** len(critical),
        leaves_priced=raw["leaves_priced"],
        kept=len(candidates),
        capacity_pruned=raw["capacity_pruned"],
        bound_pruned=raw["bound_pruned"],
        truncated=raw["truncated"],
        budget=max_candidates,
        slice_pricings=raw["slice_pricings"],
        bound_pricings=raw["bound_pricings"],
    )
    if log is not None:
        log(stats.report())
    if not candidates:
        raise ReproError(
            "no feasible placement found"
            + (" within the pricing budget" if stats.truncated else "")
        )
    return SearchResult(candidates=candidates, stats=stats)


def exhaustive_search(
    engine: SimEngine,
    phases: tuple[KernelPhase, ...],
    buffer_sizes: dict[str, int],
    candidate_nodes: tuple[int, ...],
    *,
    default_node: int,
    critical_buffers: tuple[str, ...] | None = None,
    node_capacity: dict[int, int] | None = None,
    pus: tuple[int, ...] | None = None,
    max_candidates: int | None = 4096,
    reuse_phase_pricings: bool = True,
    top_k: int | None = None,
    prune: bool = True,
    log=None,
) -> tuple[PlacementCandidate, ...]:
    """Price feasible placements of the critical buffers, best first.

    PR 1's oracle interface, now backed by :func:`search_placements`:
    ``max_candidates`` is a pricing *budget* (the walk truncates with a
    report instead of raising), and ``top_k``/``prune`` expose the
    streaming heap and branch-and-bound.  Candidate ordering — including
    ties — matches PR 1's stable best-first sort exactly:
    ``(seconds, assignment)``.
    """
    return search_placements(
        engine,
        phases,
        buffer_sizes,
        candidate_nodes,
        default_node=default_node,
        critical_buffers=critical_buffers,
        node_capacity=node_capacity,
        pus=pus,
        top_k=top_k,
        max_candidates=max_candidates,
        prune=prune,
        reuse_phase_pricings=reuse_phase_pricings,
        log=log,
    ).candidates
