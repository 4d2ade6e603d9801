"""``app_alloc``: an in-process closed loop over the paper's allocation API.

Simulated HPC processes start, place their buffer set with ``mem_alloc``
or ``mem_alloc_many``, read the ranking (``get_best_target``,
``rank_for``), churn small OpenMP-allocator-style requests, sometimes
migrate a buffer at a phase change, and free everything when they retire.
A window of live processes per platform keeps MCDRAM past capacity, so the
§VII capacity fallback runs beside the warm plan-cache fast path.

Every call into the library is timed on its own (one sample per call, kept
in a fixed-size log-bucket histogram so memory does not grow with speed).
"""

from __future__ import annotations

import random
import statistics
import time

PLATFORMS = ("knl-snc4-flat", "xeon-cascadelake-1lm")
LIVE_WINDOW = 6           # live simulated processes per platform
SPECS_PER_PLATFORM = 512  # distinct process specs, cycled during the loop
CHECK_EVERY = 8           # every n-th get_best_target read is a check
CHUNK_S = 1.0             # seconds per measured chunk
TICK_EVERY = 128          # simulated processes between host-speed samples
API_CALLS = ("mem_alloc", "mem_alloc_many", "free", "migrate", "rank_for",
             "get_best_target")


class Histogram:
    """Log buckets with 64 steps per octave (1.6% wide), in ns."""

    def __init__(self) -> None:
        self.counts = [0] * (64 * 48)
        self.n = 0

    def add(self, ns: int) -> None:
        bl = ns.bit_length()
        if bl > 7:
            ns = ((bl - 6) << 6) | ((ns >> (bl - 7)) & 63)
        self.counts[ns] += 1
        self.n += 1

    @staticmethod
    def _bounds(b: int) -> tuple[float, float]:
        if b < 128:
            return float(b), float(b + 1)
        shift = (b >> 6) - 1
        lo = (64 | (b & 63)) << shift
        return float(lo), float(lo + (1 << shift))

    def percentile(self, q: float) -> float:
        """The q-quantile in ns, interpolated by rank inside its bucket."""
        rank = q * (self.n - 1)
        seen = 0
        for b, c in enumerate(self.counts):
            if seen + c > rank:
                lo, hi = self._bounds(b)
                return lo + (hi - lo) * (rank - seen + 0.5) / c
            seen += c
        return 0.0


def _buffer_sets(rng: random.Random, app: str) -> list[tuple[str, int, str]]:
    """(name, size, attribute) of one simulated process's arrays."""
    if app == "graph500":
        from repro.apps.graph500 import TrafficModel

        sizes = TrafficModel.analytic(rng.choice((20, 21, 22))).buffer_sizes()
        return [
            ("csr_offsets", sizes["csr_offsets"], "Bandwidth"),
            ("csr_targets", sizes["csr_targets"], "Bandwidth"),
            ("parent", sizes["parent"], "Latency"),
            ("frontier", sizes["frontier"], "Latency"),
        ]
    if app == "stream":
        n = rng.choice((1 << 25, 3 << 24, 1 << 26))
        return [(name, 8 * n, "Bandwidth") for name in ("a", "b", "c")]
    rows = rng.choice((1 << 21, 3 << 20, 1 << 22))
    nnz = rows * rng.choice((16, 27))
    return [
        ("vals", 8 * nnz, "Bandwidth"),
        ("cols", 4 * nnz, "Bandwidth"),
        ("rowptr", 4 * (rows + 1), "Bandwidth"),
        ("x", 8 * rows, "Latency"),
        ("y", 8 * rows, "Bandwidth"),
        ("checkpoint", 8 * nnz, "Capacity"),
    ]


def _initiator(rng: random.Random, n_pus: int):
    """Skewed over every PU, with a tail of multi-PU cpusets."""
    if rng.random() < 0.15:
        width = rng.choice((2, 4, 8))
        start = rng.randrange(0, n_pus, width)
        return tuple(range(start, min(start + width, n_pus)))
    return min(int(n_pus * rng.random() ** 3), n_pus - 1)


def make_specs(seed: int, platform: str, n_pus: int) -> list[dict]:
    """Seeded process specs; the program sees only these inputs."""
    rng = random.Random(f"{seed}:{platform}")
    specs = []
    for _ in range(SPECS_PER_PLATFORM):
        app = rng.choice(("graph500", "stream", "spmv"))
        buffers = _buffer_sets(rng, app)
        specs.append(
            {
                "initiator": _initiator(rng, n_pus),
                "buffers": buffers,
                "batched": rng.random() < 0.3,
                "small": [
                    (rng.choice((4096, 16384, 65536, 262144)),
                     rng.choice(("Latency", "Bandwidth")))
                    for _ in range(rng.randint(2, 6))
                ],
                "small_rounds": rng.randint(1, 4),
                "migrate": (
                    rng.randrange(len(buffers)) if rng.random() < 0.1 else None
                ),
                "reads": [rng.choice(("Bandwidth", "Latency", "Capacity"))
                          for _ in range(rng.randint(1, 3))],
            }
        )
    return specs


class PlatformLoop:
    """Runs the closed loop on one platform's allocator stack."""

    def __init__(self, setup, specs: list[dict], hist: Histogram | None) -> None:
        self.setup = setup
        self.alloc = setup.allocator
        self.memattrs = setup.memattrs
        self.specs = specs
        self.hist = hist
        self.live: list[list] = []
        self.next_spec = 0
        self.failed = 0
        self.checks = 0
        self.check_failures: list[str] = []
        self.reads = 0
        self.calls = dict.fromkeys(API_CALLS, 0)

    def _timed(self, fn, *args, **kwargs):
        self.calls[fn.__name__] += 1
        t = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception:  # every typed error counts as a failed op
            self.failed += 1
            return None
        finally:
            self.hist.add(time.perf_counter_ns() - t)

    def step(self) -> None:
        """Start one process, run its phase, retire the oldest if needed."""
        spec = self.specs[self.next_spec % len(self.specs)]
        self.next_spec += 1
        init = spec["initiator"]
        alloc = self.alloc
        timed = self._timed
        if spec["batched"]:
            got = timed(
                alloc.mem_alloc_many,
                [{"size": s, "attribute": a, "initiator": init}
                 for _, s, a in spec["buffers"]],
            )
            buffers = list(got) if got is not None else []
        else:
            buffers = []
            for _, size, attr in spec["buffers"]:
                buf = timed(alloc.mem_alloc, size, attr, init)
                if buf is not None:
                    buffers.append(buf)
        for attr in spec["reads"]:
            timed(alloc.rank_for, attr, init)
            best = timed(self.memattrs.get_best_target, attr, init)
            self.reads += 1
            if best is not None and self.reads % CHECK_EVERY == 0:
                self._check(buffers, attr, best)
        for _ in range(spec["small_rounds"]):
            small = [timed(alloc.mem_alloc, s, a, init) for s, a in spec["small"]]
            for buf in small:
                if buf is not None:
                    timed(alloc.free, buf)
        if spec["migrate"] is not None and spec["migrate"] < len(buffers):
            buf = buffers[spec["migrate"]]
            to = "Capacity" if buf.requested_attribute != "Capacity" else "Bandwidth"
            timed(alloc.migrate, buf, to)
        self.live.append(buffers)
        if len(self.live) > LIVE_WINDOW:
            self.retire()

    def _check(self, buffers, attr: str, best) -> None:
        """A buffer placed without any fallback sits on the best target."""
        for buf in buffers:
            if (
                buf.requested_attribute == attr
                and buf.used_attribute == attr
                and buf.fallback_rank == 0
                and not buf.is_split
            ):
                self.checks += 1
                if buf.target.os_index != best.target.os_index:
                    self.check_failures.append(
                        f"{buf.name}: on node {buf.target.os_index}, "
                        f"get_best_target({attr}) = {best.target.os_index}"
                    )
                return

    def retire(self) -> None:
        for buf in self.live.pop(0):
            self._timed(self.alloc.free, buf)

    def teardown(self) -> None:
        while self.live:
            self.retire()


def conservation_errors(setup, free_before: list[int]) -> list[str]:
    """Pages conserved after teardown: nothing live, free pages restored."""
    errors = []
    kernel = setup.kernel
    free_after = [int(x) for x in kernel.free_pages_array()]
    if free_after != free_before:
        errors.append(f"free pages {free_after} != opening {free_before}")
    if kernel.live_allocations():
        errors.append(f"{len(kernel.live_allocations())} kernel allocations live")
    if setup.allocator.buffers:
        errors.append(f"{len(setup.allocator.buffers)} allocator buffers live")
    return errors


def run(setups: dict, seed: int, seconds: float) -> dict:
    """The timed closed loop; correctness is checked after the clock stops.

    The loop is cut into CHUNK_S chunks, each with its own histogram and
    its own host speed: the median of ``calib.tick`` samples taken every
    TICK_EVERY simulated processes, whose time is left out of the chunk's.
    The reported rate and percentiles are medians over the scaled chunks.
    """
    import calib

    loops = []
    opening = {}
    for platform in PLATFORMS:
        setup = setups[platform]
        n_pus = len(setup.topology.pus())
        loops.append(PlatformLoop(setup, make_specs(seed, platform, n_pus), None))
        opening[platform] = [int(x) for x in setup.kernel.free_pages_array()]
    rng = random.Random(seed)
    chunks = []
    start = time.perf_counter()
    deadline = start + seconds
    steps = 0
    while time.perf_counter() < deadline:
        hist = Histogram()
        for loop in loops:
            loop.hist = hist
        speeds = [calib.tick()]
        paused = 0.0
        t0 = time.perf_counter()
        chunk_end = min(t0 + CHUNK_S, deadline)
        while True:
            rng.choice(loops).step()
            steps += 1
            if steps % 16 == 0:
                if time.perf_counter() >= chunk_end:
                    break
                if steps % TICK_EVERY == 0:
                    t = time.perf_counter()
                    speeds.append(calib.tick())
                    paused += time.perf_counter() - t
        dt = time.perf_counter() - t0 - paused
        speed = statistics.median(speeds)
        chunks.append((hist.n, dt, hist.percentile(0.50), hist.percentile(0.90),
                       hist.percentile(0.99), speed))
    elapsed = time.perf_counter() - start
    full = [c for c in chunks if c[1] >= 0.5 * CHUNK_S]
    result = {
        "elapsed_s": elapsed,
        "ops": sum(c[0] for c in chunks),
        "chunks": len(full),
        "ops_per_s": statistics.median(c[0] / c[1] / c[5] for c in full),
        "p50_ms": statistics.median(c[2] * c[5] for c in full) / 1e6,
        "p90_ms": statistics.median(c[3] * c[5] for c in full) / 1e6,
        "p99_ms": statistics.median(c[4] * c[5] for c in full) / 1e6,
        "raw_ops_per_s": statistics.median(c[0] / c[1] for c in full),
        "raw_p50_ms": statistics.median(c[2] for c in full) / 1e6,
        "raw_p90_ms": statistics.median(c[3] for c in full) / 1e6,
        "speed": statistics.median(c[5] for c in full),
        "min_chunk_ops": min(c[0] for c in full),
        "failed": sum(d.failed for d in loops),
        "checks": sum(d.checks for d in loops),
        "processes": steps,
    }
    errors = []
    for loop in loops:
        loop.teardown()
        errors.extend(loop.check_failures)
    for platform in PLATFORMS:
        errors.extend(
            f"{platform}: {e}"
            for e in conservation_errors(setups[platform], opening[platform])
        )
    result["teardown_failed"] = sum(d.failed for d in loops) - result["failed"]
    calls = {name: sum(d.calls[name] for d in loops) for name in API_CALLS}
    result["mix"] = {name: n / sum(calls.values()) for name, n in calls.items()}
    result["errors"] = errors
    return result
