"""End-to-end benchmark of the placement stack, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload serve_ndjson --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report --seed 7     # every workload, every metric

Workloads (see ``perfbench/README.md``):

``serve_ndjson``    a ``repro-serve`` daemon driven open-loop over NDJSON/TCP;
``app_alloc``       an in-process closed loop of the paper's allocation API;
``paper_workflow``  cold ``repro-experiments all`` plus warm placement
                    searches and guidance runs.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload once untraced and once with spans around
every layer's public functions, and reports the per-layer metrics plus
span coverage and tracing overhead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Run metadata (host fingerprint, seed, generator lateness, saturation
phase, sample counts) is printed on the line before it and kept under
``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
WORK = HERE / ".work"
SETUP_SPAWNS = 9
CHILD_TIMEOUT_S = 150.0
WORKLOADS = ("serve_ndjson", "app_alloc", "paper_workflow")

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ops_per_s": "1/s",
}

sys.path.insert(0, str(HERE))

import serve_load  # noqa: E402


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def spawn(role: str, args: list[str], trace_out: str | None = None,
          stdin: bool = False, stderr=None, speed_out: str | None = None
          ) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "launch.py"), role]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if speed_out:
        cmd += ["--speed-out", speed_out]
    return subprocess.Popen(
        cmd + args,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
    )


def read_until(proc: subprocess.Popen, prefix: str) -> str:
    """The first stdout line starting with ``prefix``; raises on exit."""
    for line in proc.stdout:
        if line.startswith(prefix):
            return line
    proc.wait(timeout=CHILD_TIMEOUT_S)
    raise RuntimeError(f"child exited with {proc.returncode} before {prefix!r}")


def finish(proc: subprocess.Popen, sig: int | None = None) -> None:
    """Stop a child (optionally by signal) and wait until it has ended."""
    if proc.stdin:
        proc.stdin.close()
    if sig is not None and proc.poll() is None:
        proc.send_signal(sig)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    for pipe in (proc.stdout, proc.stderr):
        if pipe:
            pipe.close()
    if proc.returncode not in (0, -sig if sig else 0):
        raise RuntimeError(f"child exited with code {proc.returncode}")


def timed_spawn(role: str, args: list[str], **kw):
    """Spawn a child and wait for its ``ready`` line.

    Returns (proc, set-up seconds, host speed).  The set-up time is the
    spawn-to-ready wall time less the child's own calibration loops,
    scaled by the host speed the child measured around its set-up.
    """
    t0 = time.perf_counter()
    proc = spawn(role, args, **kw)
    ready = json.loads(read_until(proc, "ready ")[len("ready "):])
    wall = time.perf_counter() - t0
    return proc, (wall - ready["calib_s"]) * ready["speed"], ready["speed"]


def setup_samples(role: str, args: list[str], sig=None) -> list[float]:
    """Set-up time of SETUP_SPAWNS - 1 throwaway processes."""
    out = []
    for _ in range(SETUP_SPAWNS - 1):
        proc, setup_s, _ = timed_spawn(role, args)
        finish(proc, sig)
        out.append(setup_s)
    return out


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def trace_path(tag: str, kind: str = "traces") -> str:
    path = WORK / kind / f"{tag}-{os.getpid()}-{time.monotonic_ns()}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    return str(path)


def load_trace(path: str) -> dict:
    with open(path) as fh:
        return json.loads(fh.readline())


# ----------------------------------------------------------------------
# serve_ndjson
# ----------------------------------------------------------------------
# The daemon's default configuration: the generator never holds more
# requests in flight than the default admission window.
SERVE_ARGS = ["--platform", "knl-snc4-flat", "--host", "127.0.0.1", "--port", "0"]


def proc_status(pid: int) -> dict:
    """Peak resident set (MiB, Linux ``VmHWM``) and CPU seconds of a live
    process so far."""
    hwm = None
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            hwm = int(line.split()[1]) / 1024.0
    fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime + stime
    return {"hwm_mb": hwm, "cpu_s": ticks / os.sysconf("SC_CLK_TCK")}


def _serve_once(seed: int, light_s: float, saturation_s: float,
                trace_out: str | None) -> tuple[dict, float]:
    speed_out = trace_path("serve", "speed")
    proc, setup_s, _ = timed_spawn("serve", SERVE_ARGS, trace_out=trace_out,
                                   speed_out=speed_out)
    rss: list[float] = []
    try:
        line = read_until(proc, "repro-serve listening")
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        out = serve_load.drive(
            host, int(port), seed, light_s, saturation_s,
            lambda: rss.append(proc_status(proc.pid)["hwm_mb"]),
            lambda: proc_status(proc.pid)["cpu_s"],
        )
    finally:
        finish(proc, signal.SIGINT)
    # The saturation phase's volume grows with capacity, so memory is read
    # after the fixed light phase.
    out["light_peak_rss_mb"] = rss[0]
    with open(speed_out) as fh:
        samples = json.load(fh)
    os.unlink(speed_out)

    def speed_in(span: dict) -> float:
        return statistics.median(
            v for t, v in samples if span["t_start"] <= t <= span["t_end"])

    # Each 1 s window is scaled by the daemon's speed in it, then the
    # median over the windows of the phase is taken.
    for phase in (out["light"], out["saturation"]):
        phase["daemon_speed"] = speed_in(phase)
        for window in phase["per_window"]:
            window["daemon_speed"] = speed_in(window)
    windows = out["light"]["per_window"]
    out["light"]["scaled_p50_ms"] = statistics.median(
        w["p50_ms"] * w["daemon_speed"] for w in windows)
    windows = out["saturation"]["per_window"]
    out["saturation"]["scaled_rps"] = statistics.median(
        w["rps"] / w["daemon_speed"] for w in windows)
    out["saturation"]["scaled_p90_ms"] = statistics.median(
        w["p90_ms"] * w["daemon_speed"] for w in windows)
    return out, setup_s


def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    # The median latency is gated on the light phase, the p90 and the rate
    # on the saturation phase.  A light-phase p90 is kept in the metadata
    # only: host scheduling stalls, which the speed samples do not see,
    # moved it by up to 1.6x between runs.
    light_s, saturation_s = 0.35 * seconds, 0.45 * seconds
    if not trace:
        setups = setup_samples("serve", SERVE_ARGS, signal.SIGINT)
        out, setup_s = _serve_once(seed, light_s, saturation_s, None)
        setups.append(setup_s)
        light, sat = out["light"], out["saturation"]
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["light_peak_rss_mb"],
            "p50_ms": light["scaled_p50_ms"],
            "p90_ms": sat["scaled_p90_ms"],
            "ops_per_s": sat["scaled_rps"],
        }
        meta = {"setup_samples_s": setups}
        runs = [out]
    else:
        base, _ = _serve_once(seed, light_s / 2, saturation_s, None)
        path = trace_path("serve")
        out, _ = _serve_once(seed, light_s, saturation_s, path)
        tr = load_trace(path)
        # The daemon idles between requests, so its busy time is its CPU
        # time after start-up, not its wall time.
        busy = [(tr["cpu_s"] - tr["ready_cpu"], tr["root_s"] - tr["ready_root_s"])]
        metrics = per_layer([tr], busy, startup=[tr])
        metrics.update({f"mix.{verb}.share": share
                        for verb, share in out["mix"].items()})
        metrics["trace.overhead_pct"] = 100.0 * (
            base["saturation"]["scaled_rps"] / out["saturation"]["scaled_rps"] - 1.0
        )
        meta = {"untraced_saturation": base["saturation"], "trace_file": path}
        runs = [base, out]
    light = out["light"]
    meta.update(
        {
            "light_phase": light,
            "saturation": out["saturation"],
            "mix": out["mix"],
            "gen.lag_ms": {"p99": light["lag_p99_ms"], "max": light["lag_max_ms"]},
            "samples": {"p50_ms": light["samples"], "windows": light["windows"],
                        "p90_ms": out["saturation"]["counted"]},
        }
    )
    return {
        "errors": [e for r in runs for e in r["errors"]],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
        "meta": meta,
    }


# ----------------------------------------------------------------------
# app_alloc
# ----------------------------------------------------------------------
def _app_once(seed: int, seconds: float, trace_out: str | None) -> tuple[dict, float]:
    proc, setup_s, _ = timed_spawn(
        "app_alloc", [str(seed), str(seconds)], trace_out=trace_out
    )
    try:
        result = json.loads(read_until(proc, "result ")[len("result "):])
    finally:
        finish(proc)
    return result, setup_s


def run_app(seed: int, seconds: float, trace: bool) -> dict:
    if not trace:
        setups = setup_samples("setup", [])
        res, setup_s = _app_once(seed, seconds, None)
        setups.append(setup_s)
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": children_peak_rss_mb(),
            "p50_ms": res["p50_ms"],
            "p90_ms": res["p90_ms"],
            "ops_per_s": res["ops_per_s"],
        }
        meta = {"setup_samples_s": setups, "result": res}
        runs = [res]
    else:
        base, _ = _app_once(seed, seconds / 3, None)
        path = trace_path("app_alloc")
        res, _ = _app_once(seed, seconds / 2, path)
        tr = load_trace(path)
        busy = [(tr["wall_s"] - tr["ready_wall"], tr["root_s"] - tr["ready_root_s"])]
        metrics = per_layer([tr], busy, startup=[tr])
        metrics.update({f"mix.{name}.share": share
                        for name, share in res["mix"].items()})
        metrics["trace.overhead_pct"] = 100.0 * (
            base["ops_per_s"] / res["ops_per_s"] - 1.0
        )
        meta = {"untraced": base, "traced": res, "trace_file": path}
        runs = [base, res]
    meta["samples"] = {"per_chunk_min": runs[-1]["min_chunk_ops"],
                       "chunks": runs[-1]["chunks"]}
    return {
        "errors": [e for r in runs for e in r["errors"]],
        "attempted": sum(r["ops"] for r in runs),
        "failed": sum(r["failed"] + r["teardown_failed"] for r in runs),
        "metrics": metrics,
        "meta": meta,
    }


# ----------------------------------------------------------------------
# paper_workflow
# ----------------------------------------------------------------------
MIN_PASSES = 3
# Per-layer rows only the paper workflow measures (0 on the other two).
PAPER_PARTS = (
    "paper.experiments_s",
    "paper.search_s",
    "paper.guidance.intervals_per_s",
    "paper.experiments.pass_share",
    "paper.search.pass_share",
    "paper.guidance.pass_share",
    "paper.experiments.setup_share",
)


def _cold_experiments(expected_digest: str, trace_out: str | None) -> dict:
    """One cold ``repro-experiments all``: its times and its output check."""
    t0 = time.perf_counter()
    proc = spawn("experiments", ["all"], trace_out=trace_out,
                 stderr=subprocess.PIPE)
    stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    finish(proc)
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    errors = [] if digest == expected_digest else [
        f"experiments stdout digest {digest} != {expected_digest}"
    ]
    line = next(ln for ln in stderr.splitlines() if ln.startswith("cold "))
    timing = json.loads(line[len("cold "):])
    return {"wall_s": wall, "busy_s": timing["busy_s"], "speed": timing["speed"],
            "errors": errors}


def _paper_passes(seed: int, seconds: float, first_index: int, trace: bool,
                  traces: list[str]) -> tuple[list[dict], float]:
    import paper

    expected = json.loads(paper.EXPECTED.read_text())["experiments_sha256"]
    worker_trace = trace_path("paper-worker") if trace else None
    proc, setup_s, _ = timed_spawn("paper", [], trace_out=worker_trace,
                                   stdin=True)
    passes = []
    try:
        start = time.perf_counter()
        index = first_index
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            cold_trace = trace_path("experiments") if trace else None
            cold = _cold_experiments(expected, cold_trace)
            if cold_trace:
                traces.append(cold_trace)
            proc.stdin.write(f"pass {seed} {index}\n")
            proc.stdin.flush()
            warm = json.loads(read_until(proc, "result ")[len("result "):])
            warm["cold_s"] = cold["wall_s"]
            warm["errors"] = cold["errors"] + warm["errors"]
            warm["raw_pass_s"] = cold["wall_s"] + warm["warm_s"]
            warm["pass_s"] = cold["busy_s"] * cold["speed"] + warm["scaled_s"]
            warm["speed"] = [cold["speed"], *warm["speeds"]]
            passes.append(warm)
            index += 1
    finally:
        finish(proc)
    if worker_trace:
        traces.append(worker_trace)
    return passes, setup_s


def _paper_parts(passes: list[dict]) -> dict:
    """The three parts of a pass: their own figures, and each one's median
    share of the (raw) pass time."""
    searches = [s for p in passes for s in p["search_s"]]
    return {
        "paper.experiments_s": statistics.median(p["cold_s"] for p in passes),
        "paper.search_s": statistics.median(searches),
        "paper.guidance.intervals_per_s": sum(p["intervals"] for p in passes)
        / sum(p["guidance_s"] for p in passes),
        "paper.experiments.pass_share": statistics.median(
            p["cold_s"] / p["raw_pass_s"] for p in passes),
        "paper.search.pass_share": statistics.median(
            sum(p["search_s"]) / p["raw_pass_s"] for p in passes),
        "paper.guidance.pass_share": statistics.median(
            p["guidance_s"] / p["raw_pass_s"] for p in passes),
    }


def run_paper(seed: int, seconds: float, trace: bool) -> dict:
    traces: list[str] = []
    if not trace:
        setups = setup_samples("setup", [])
        passes, setup_s = _paper_passes(seed, seconds, 0, False, traces)
        setups.append(setup_s)
        pass_ms = [p["pass_s"] * 1e3 for p in passes]
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": children_peak_rss_mb(),
            "p50_ms": statistics.median(pass_ms),
            "p90_ms": serve_load.percentile(sorted(pass_ms), 0.90),
            "ops_per_s": len(passes) / sum(p["pass_s"] for p in passes),
        }
        meta = {"setup_samples_s": setups, "parts": _paper_parts(passes)}
        meta["part_shares"] = {k: v for k, v in meta["parts"].items()
                               if k.endswith("pass_share")}
        all_passes = passes
    else:
        base, _ = _paper_passes(seed, 0.0, 0, False, traces)
        passes, _ = _paper_passes(seed, seconds / 2, len(base), True, traces)
        trs = [load_trace(p) for p in traces]
        # The warm worker idles on stdin while a cold process runs, so its
        # busy time is the warm part of its passes.
        busy = [
            (sum(p["warm_s"] for p in passes), tr["root_s"] - tr["ready_root_s"])
            if "ready_wall" in tr else
            (tr["wall_s"], tr["root_s"] + tr["import_s"])
            for tr in trs
        ]
        cold = [tr for tr in trs if "ready_wall" not in tr]
        metrics = per_layer(trs, busy, startup=cold)
        metrics.update(_paper_parts(base))
        metrics["paper.experiments.setup_share"] = sum(
            tr["total_s"].get("setup.quick_setup", 0.0) for tr in cold
        ) / sum(tr["wall_s"] - tr["import_s"] for tr in cold)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(p["pass_s"] for p in passes)
            / statistics.median(p["pass_s"] for p in base) - 1.0
        )
        meta = {"untraced_parts": _paper_parts(base), "trace_files": traces}
        all_passes = base + passes
    meta["passes"] = [
        {k: p[k] for k in ("pass_s", "raw_pass_s", "speed", "cold_s", "warm_s",
                           "search_s", "guidance_s", "intervals")}
        for p in all_passes
    ]
    meta["samples"] = {"p50_ms": len(all_passes), "p90_ms": len(all_passes)}
    jobs = sum(p["jobs"] + 1 for p in all_passes)
    errors = [e for p in all_passes for e in p["errors"]]
    return {
        "errors": errors,
        "attempted": jobs,
        "failed": 0,
        "metrics": metrics,
        "meta": meta,
    }


# ----------------------------------------------------------------------
# per-layer metrics from span aggregates
# ----------------------------------------------------------------------
# Share of each request verb (serve_ndjson) or API call (app_alloc) the
# workload issued; 0 where a workload has no such request.
MIX_ROWS = tuple(f"mix.{name}.share" for name in (
    "alloc", "alloc_many", "query", "free", "migrate",
    "mem_alloc", "mem_alloc_many", "rank_for", "get_best_target",
))
CACHE_FAMILIES = (
    "alloc_rank", "as_cpuset", "fallback_chain", "initiator_pus",
    "local_nodes", "match_initiator", "rank_targets", "rank_tiebreak",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traces: list[dict], busy: list[tuple[float, float]],
              startup: list[dict]) -> dict:
    """Sum the aggregates of every traced process into the layer metrics.

    ``busy`` holds, per process, (measured busy seconds, seconds covered
    by root spans) over the timed part; ``startup`` are the processes
    whose start-up (import and set-up spans) the start-up rows report.
    """

    def total(key: str, name: str, procs=traces) -> float:
        return sum(tr[key].get(name, 0.0) for tr in procs)

    def calls(name: str) -> float:
        return total("calls", name)

    def self_s(name: str, procs=traces) -> float:
        return total("self_s", name, procs)

    def count(name: str) -> float:
        return total("counts", name)

    def edges(prefix: str, child: str) -> float:
        return sum(v for tr in traces for k, v in tr["edges"].items()
                   if k.startswith(prefix) and k.endswith(">" + child))

    m: dict[str, float] = {}
    m["serve.protocol.decode.self_s"] = self_s("serve.protocol.decode")
    m["serve.protocol.encode.self_s"] = self_s("serve.protocol.encode")
    m["serve.commit.calls"] = calls("serve.commit")
    m["serve.commit.self_s"] = self_s("serve.commit")
    m["serve.commit.size_mean"] = _ratio(count("serve.commit.requests"),
                                         calls("serve.commit"))
    m["serve.queue.wait_ms"] = 1e3 * _ratio(count("serve.queue.wait_s"),
                                            count("serve.queue.waits"))
    serve_batched = sum(
        tr["counts"].get("alloc.batched", 0.0) for tr in traces
        if tr["counts"].get("serve.alloc_verbs")
    )
    m["serve.batched_ratio"] = _ratio(serve_batched, count("serve.alloc_verbs"))
    m["serve.batch_replays"] = sum(
        tr["errors"].get("alloc.mem_alloc_many", 0) for tr in traces
        if tr["calls"].get("serve.commit")
    )
    m["serve.admission_rejects"] = calls("serve.admission_reject")

    m["alloc.mem_alloc.calls"] = calls("alloc.mem_alloc")
    m["alloc.mem_alloc.self_s"] = self_s("alloc.mem_alloc")
    m["alloc.mem_alloc_many.calls"] = calls("alloc.mem_alloc_many")
    m["alloc.mem_alloc_many.self_s"] = self_s("alloc.mem_alloc_many")
    m["alloc.free.self_s"] = self_s("alloc.free")
    m["alloc.migrate.self_s"] = self_s("alloc.migrate")
    m["alloc.kernel_call_ratio"] = _ratio(edges("alloc.mem_alloc", "kernel.place"),
                                          count("alloc.requests"))
    m["alloc.best_target_ratio"] = _ratio(count("alloc.best_target"),
                                          count("alloc.placed"))
    m["alloc.attr_fallback_ratio"] = _ratio(count("alloc.attr_fallback"),
                                            count("alloc.placed"))
    m["alloc.failed"] = sum(
        total("errors", n) for n in ("alloc.mem_alloc", "alloc.mem_alloc_many",
                                     "alloc.migrate", "alloc.free")
    )

    m["core.rank_for.calls"] = calls("core.rank_for")
    m["core.rank_for.self_s"] = self_s("core.rank_for")
    m["core.get_best_target.self_s"] = self_s("core.get_best_target")
    hits = misses = 0
    for fam in CACHE_FAMILIES:
        h = sum(tr["cache_families"].get(fam, [0, 0])[0] for tr in traces)
        mi = sum(tr["cache_families"].get(fam, [0, 0])[1] for tr in traces)
        hits, misses = hits + h, misses + mi
        m[f"core.cache.{fam}.hit_ratio"] = _ratio(h, h + mi)
    m["core.cache.hit_ratio"] = _ratio(hits, hits + misses)

    m["kernel.place.calls"] = calls("kernel.place")
    m["kernel.place.self_s"] = self_s("kernel.place")
    m["kernel.free.self_s"] = self_s("kernel.free")
    m["kernel.migrate.calls"] = calls("kernel.migrate")
    m["kernel.migrate.self_s"] = self_s("kernel.migrate")
    m["kernel.pages_moved"] = count("kernel.pages_moved")
    m["kernel.autotier.step.self_s"] = self_s("kernel.autotier.step")

    for name in ("prepare_phase", "price_phase", "price_placements_batch"):
        m[f"sim.{name}.calls"] = calls(f"sim.{name}")
        m[f"sim.{name}.self_s"] = self_s(f"sim.{name}")
    m["sim.price_run.self_s"] = self_s("sim.price_run")
    m["sim.price_placements_batch.rows"] = count("sim.batch_rows")
    m["sim.memo.evictions"] = sum(tr["sim_memo_evictions"] for tr in traces)

    m["search.self_s"] = self_s("search")
    m["search.leaves_priced"] = count("search.leaves_priced")
    m["search.bound_pruned_ratio"] = _ratio(count("search.bound_pruned"),
                                            count("search.space"))
    m["search.parallel_dispatches"] = count("search.parallel_dispatches")

    m["profiler.pebs.sample.self_s"] = self_s("profiler.pebs.sample")
    m["profiler.guidance.interval.self_s"] = self_s("profiler.guidance.interval")
    m["guidance.replacements"] = count("guidance.replacements")
    m["guidance.step_ratio"] = _ratio(count("guidance.replacements"),
                                      calls("profiler.guidance.interval"))

    m["setup.import_s"] = statistics.mean(tr["import_s"] for tr in startup)
    for metric, span in (
        ("topology.build.self_s", "topology.build"),
        ("firmware.build.self_s", "firmware.build"),
        ("bench.characterize.self_s", "bench.characterize"),
        ("core.discovery.self_s", "core.discovery"),
        ("kernel.init.self_s", "kernel.init"),
    ):
        m[metric] = self_s(span, startup)
    m["setup.quick_setup.calls"] = sum(
        tr["calls"].get("setup.quick_setup", 0) for tr in startup
    )

    wall = sum(b for b, _ in busy)
    covered = sum(c for _, c in busy)
    m["trace.coverage"] = _ratio(covered, wall)
    m["trace.unattributed_s"] = wall - covered
    m["trace.overhead_pct"] = 0.0
    for name in PAPER_PARTS + MIX_ROWS:
        m[name] = 0.0
    return m


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit or "unknown",
        "src_sha256": digest.hexdigest(),
    }


def layer_units(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("ratio", "share", "coverage")):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = {"serve_ndjson": run_serve, "app_alloc": run_app,
              "paper_workflow": run_paper}[workload]
    out = runner(seed, seconds, trace)
    units = E2E_UNITS if not trace else None
    out["result"] = {
        "correct": not out["errors"] and out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {
            k: {"value": float(v),
                "unit": units[k] if units else layer_units(k)}
            for k, v in out["metrics"].items()
        },
    }
    return out


def format_rows(result: dict) -> list[str]:
    return [f"  {k:<40} {v['value']:>14.6g} {v['unit']}"
            for k, v in result["metrics"].items()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced and "
                        "print every metric")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required without --report")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": host_fingerprint(), "errors": out["errors"][:20],
            **out["meta"]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": out["result"], "meta": meta}, indent=1)
    )
    print(f"{args.workload} seed {args.seed} trace {args.trace}:")
    print("\n".join(format_rows(out["result"])))
    for err in out["errors"][:20]:
        print(f"  CHECK FAILED: {err}")
    print("meta " + json.dumps(meta))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


def report(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced; one row per workload.

    Each run is its own process, so peak-RSS accounting of one workload
    never sees another's children.
    """
    results = {}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            for line in lines:
                if "CHECK FAILED" in line:
                    print(f"{workload}: {line.strip()}")
            if proc.returncode not in (0, 1) or not lines:
                print(f"{workload} trace {trace}: exited {proc.returncode}\n"
                      f"{proc.stderr}")
                return 1
            results[(workload, trace)] = json.loads(lines[-1])
            ok &= results[(workload, trace)]["correct"]
    e2e = list(E2E_UNITS)
    print("\nend-to-end (untraced), one row per workload")
    print(f"{'workload':<16}" + "".join(f"{f'{k} [{E2E_UNITS[k]}]':>20}" for k in e2e)
          + f"{'correct':>9}")
    for workload in WORKLOADS:
        r = results[(workload, 0)]
        print(f"{workload:<16}" + "".join(
            f"{r['metrics'][k]['value']:>20.6g}" for k in e2e)
            + f"{str(r['correct']):>9}")
    first = results[(WORKLOADS[0], 1)]["metrics"]
    print("\nper-layer (traced run), one column per workload")
    print(f"{'metric':<40}{'unit':>7}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name, item in first.items():
        print(f"{name:<40}{item['unit']:>7}" + "".join(
            f"{results[(w, 1)]['metrics'][name]['value']:>16.6g}"
            for w in WORKLOADS))
    print(f"\nall correctness checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
