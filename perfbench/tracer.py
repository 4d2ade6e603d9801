"""In-memory span recorder wrapped around the public functions of each layer.

The benchmark measures from outside the program: it installs wrappers on
the public functions listed in :data:`LAYER_FUNCTIONS` (and on every name
those functions were imported under), so no file of ``src/`` changes.

Each wrapper records a span (name, start, end, parent, request id) and
accumulates, per span name, the call count, total time and self time
(span time minus the time its child spans cover).  Aggregates are exact;
raw spans are kept up to :data:`RAW_SPAN_CAP` per process so a long run
cannot grow memory without bound.  Everything is written out once, when
the process ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

RAW_SPAN_CAP = 20000

# (module, qualified name, span name).  Several functions may share a span
# name when they are one layer operation (every kernel placement entry
# point is ``kernel.place``).
LAYER_FUNCTIONS = (
    ("repro.serve.protocol", "decode_request", "serve.protocol.decode"),
    ("repro.serve.protocol", "encode_response", "serve.protocol.encode"),
    ("repro.serve.server", "ServeCore.apply_run", "serve.commit"),
    ("repro.serve.server", "ServeCore.reject_admission", "serve.admission_reject"),
    ("repro.alloc.allocator", "HeterogeneousAllocator.mem_alloc", "alloc.mem_alloc"),
    (
        "repro.alloc.allocator",
        "HeterogeneousAllocator.mem_alloc_many",
        "alloc.mem_alloc_many",
    ),
    ("repro.alloc.allocator", "HeterogeneousAllocator.free", "alloc.free"),
    ("repro.alloc.allocator", "HeterogeneousAllocator.migrate", "alloc.migrate"),
    ("repro.alloc.allocator", "HeterogeneousAllocator.rank_for", "core.rank_for"),
    ("repro.core.api", "MemAttrs.get_best_target", "core.get_best_target"),
    ("repro.kernel.pagealloc", "KernelMemoryManager.allocate", "kernel.place"),
    ("repro.kernel.pagealloc", "KernelMemoryManager.allocate_ordered", "kernel.place"),
    (
        "repro.kernel.pagealloc",
        "KernelMemoryManager.allocate_many_ordered",
        "kernel.place",
    ),
    ("repro.kernel.pagealloc", "KernelMemoryManager.place_pages", "kernel.place"),
    ("repro.kernel.pagealloc", "KernelMemoryManager.free", "kernel.free"),
    ("repro.kernel.pagealloc", "KernelMemoryManager.migrate", "kernel.migrate"),
    ("repro.kernel.pagealloc", "KernelMemoryManager.__init__", "kernel.init"),
    ("repro.kernel.autotier", "AutoTierDaemon.step", "kernel.autotier.step"),
    ("repro.sim.engine", "SimEngine.__init__", "sim.init"),
    ("repro.sim.engine", "SimEngine.prepare_phase", "sim.prepare_phase"),
    ("repro.sim.engine", "SimEngine.price_phase", "sim.price_phase"),
    ("repro.sim.engine", "SimEngine.price_run", "sim.price_run"),
    (
        "repro.sim.engine",
        "SimEngine.price_placements_batch",
        "sim.price_placements_batch",
    ),
    ("repro.sensitivity.search", "search_placements", "search"),
    ("repro.profiler.pebs", "PebsSampler.sample", "profiler.pebs.sample"),
    (
        "repro.profiler.guidance",
        "GuidanceLoop.run_interval",
        "profiler.guidance.interval",
    ),
    ("repro", "quick_setup", "setup.quick_setup"),
    ("repro.topology.build", "build_topology", "topology.build"),
    ("repro.firmware.sysfs", "build_sysfs", "firmware.build"),
    ("repro.firmware.srat", "build_srat", "firmware.build"),
    ("repro.firmware.slit", "build_slit", "firmware.build"),
    ("repro.firmware.hmat", "build_hmat", "firmware.build"),
    ("repro.bench.runner", "characterize_machine", "bench.characterize"),
    ("repro.core.discovery", "native_discovery", "core.discovery"),
    ("repro.bench.runner", "feed_attributes", "core.discovery"),
)


class SpanRecorder:
    """Stack-based span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child_s, rid]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.edges: dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.engines: list = []
        self.caches: list = []
        self.submitted: dict[tuple, float] = {}

    def enter(self, name: str, rid=None) -> list:
        frame = [name, time.perf_counter(), 0.0, rid]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list, failed: bool) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        name, start, child_s, rid = frame
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child_s
        if failed:
            self.errors[name] += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
            self.edges[f"{parent[0]}>{name}"] += 1
        else:
            self.root_s += dur
        if len(self.spans) < RAW_SPAN_CAP:
            self.spans.append(
                (name, start, end, parent[0] if parent else None, rid)
            )
        else:
            self.dropped += 1

    def summary(self) -> dict:
        """Aggregates plus the engine/cache counters read at process end."""
        evictions = sum(e.memo_stats()["evictions"] for e in self.engines)
        families: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for cache in {id(c): c for c in self.caches}.values():
            for fam, st in cache.stats()["families"].items():
                families[fam][0] += st["hits"]
                families[fam][1] += st["misses"]
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
            "edges": dict(self.edges),
            "root_s": self.root_s,
            "sim_memo_evictions": evictions,
            "cache_families": {k: v for k, v in families.items()},
            "raw_spans": len(self.spans),
            "dropped_spans": self.dropped,
        }

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**self.summary(), **extra}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _observe_alloc(rec: SpanRecorder, buffers, requested) -> None:
    counts = rec.counts
    for buf, attr in zip(buffers, requested):
        counts["alloc.placed"] += 1
        if buf.fallback_rank == 0:
            counts["alloc.best_target"] += 1
        if buf.used_attribute.lower() != str(attr).lower():
            counts["alloc.attr_fallback"] += 1


def _requested_attrs(requests) -> list:
    out = []
    for r in requests:
        if isinstance(r, dict):
            out.append(r.get("attribute"))
        elif isinstance(r, tuple):
            out.append(r[1])
        else:
            out.append(r.attribute)
    return out


def _after_hooks(rec: SpanRecorder) -> dict:
    """Per-span-name hooks that read a call's result into counters."""
    counts = rec.counts

    def mem_alloc(buf, args, kwargs):
        counts["alloc.requests"] += 1
        attribute = args[2] if len(args) > 2 else kwargs["attribute"]
        _observe_alloc(rec, (buf,), (attribute,))

    def mem_alloc_many(bufs, args, kwargs):
        counts["alloc.requests"] += len(args[1])
        counts["alloc.batched"] += len(bufs)
        _observe_alloc(rec, bufs, _requested_attrs(args[1]))

    def decode(req, args, kwargs):
        if req.verb == "alloc":
            counts["serve.alloc_verbs"] += 1
        elif req.verb == "alloc_many":
            reqs = req.payload.get("requests")
            counts["serve.alloc_verbs"] += len(reqs) if isinstance(reqs, list) else 0

    def migrate(report, args, kwargs):
        counts["kernel.pages_moved"] += report.moved_pages

    def batch(out, args, kwargs):
        counts["sim.batch_rows"] += out.rows

    def search(result, args, kwargs):
        st = result.stats
        counts["search.leaves_priced"] += st.leaves_priced
        counts["search.bound_pruned"] += st.bound_pruned
        counts["search.space"] += st.space_size
        counts["search.parallel_dispatches"] += st.dispatch == "parallel"

    def interval(report, args, kwargs):
        counts["guidance.replacements"] += report.step is not None

    def engine(out, args, kwargs):
        rec.engines.append(args[0])

    def setup(out, args, kwargs):
        rec.caches.append(out.memattrs.query_cache)

    return {
        "alloc.mem_alloc": mem_alloc,
        "alloc.mem_alloc_many": mem_alloc_many,
        "serve.protocol.decode": decode,
        "kernel.migrate": migrate,
        "sim.price_placements_batch": batch,
        "search": search,
        "profiler.guidance.interval": interval,
        "sim.init": engine,
        "setup.quick_setup": setup,
    }


def _serve_commit_before(rec: SpanRecorder, args) -> list:
    """Queue wait of each request of the run; returns its request ids."""
    requests = args[1]
    now = time.perf_counter()
    submitted = rec.submitted
    counts = rec.counts
    for r in requests:
        t = submitted.pop((r.tenant, r.id), None)
        if t is not None:
            counts["serve.queue.wait_s"] += now - t
            counts["serve.queue.waits"] += 1
    counts["serve.commit.requests"] += len(requests)
    return [r.id for r in requests]


def _make_wrapper(rec: SpanRecorder, span: str, fn, after):
    enter, exit_ = rec.enter, rec.exit
    # A batch may be any iterable; the hook reads it again after the call.
    listify = span == "alloc.mem_alloc_many"
    commit = span == "serve.commit"
    decode = span == "serve.protocol.decode"

    def wrapper(*args, **kwargs):
        if listify:
            args = (args[0], list(args[1]), *args[2:])
        frame = enter(span, _serve_commit_before(rec, args) if commit else None)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            exit_(frame, True)
            raise
        exit_(frame, False)
        spans = rec.spans
        if decode and spans and spans[-1][1] == frame[1]:
            # The id is known only once the line is decoded.
            spans[-1] = (*spans[-1][:4], out.id)
        if after is not None:
            after(out, args, kwargs)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", span)
    return wrapper


def _wrap_submit(rec: SpanRecorder, fn):
    """Stamp submit time so the commit wrapper can measure queue wait."""

    async def submit(self, request):
        rec.submitted[(request.tenant, request.id)] = time.perf_counter()
        return await fn(self, request)

    submit.__wrapped__ = fn
    return submit


def install(rec: SpanRecorder) -> None:
    """Wrap every function of :data:`LAYER_FUNCTIONS` and rebind its aliases.

    ``from x import f`` copies the function object into the importer's
    namespace, so after wrapping ``x.f`` every loaded ``repro`` module
    whose globals still hold the original gets the wrapper too.
    """
    import repro  # noqa: F401  (loads every layer)

    hooks = _after_hooks(rec)
    replaced: dict[int, object] = {}
    for module_name, qualname, span in LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr] if owner_name else getattr(module, attr)
        wrapper = _make_wrapper(rec, span, original, hooks.get(span))
        setattr(owner, attr, wrapper)
        if not owner_name:
            replaced[id(original)] = (original, wrapper)
    from repro.serve.server import ReproServeServer

    ReproServeServer.submit = _wrap_submit(rec, ReproServeServer.submit)
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for key, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
