"""``paper_workflow``: the warm half of one pass of the paper's workflow.

A pass is one cold ``repro-experiments all`` process (run by ``run.py``)
plus, in a warm worker, the Graph500 per-level placement searches of
§V-A (the 8-node KNL exhaustive search and top-k searches on KNL and
Xeon, all with ``workers=nproc``) at every scale of :data:`SCALES`, and
:data:`GUIDANCE_PER_PASS` online-guidance runs on each of the two
phase-changing workloads.  The counts are chosen so that the three parts
take comparable time, so a slowdown of any one of them moves the pass.

Every answer is compared with the value recorded in ``expected.json``.
Regenerate that file only when the program's answers are meant to change::

    PYTHONPATH=src python3 perfbench/paper.py --record
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import statistics
import time

EXPECTED = pathlib.Path(__file__).with_name("expected.json")
KNL, XEON = "knl-snc4-flat", "xeon-cascadelake-1lm"
KNL_PUS = tuple(range(64))
XEON_PUS = tuple(range(40))
SCALES = (18, 19, 20, 21)
GUIDANCE_SEEDS = 32
GUIDANCE_PER_PASS = 18
PERIOD = 32768
WORKERS = os.cpu_count() or 1

# (name, platform, candidate nodes, pus, top_k)
SEARCHES = (
    ("knl_exhaustive", KNL, tuple(range(8)), KNL_PUS, None),
    ("knl_top8", KNL, tuple(range(8)), KNL_PUS, 8),
    ("xeon_top8", XEON, (0, 2), XEON_PUS, 8),
)


def pass_inputs(seed: int, index: int) -> dict:
    """The seeded choices of one pass: the order of the Graph500 scales and
    the guidance seeds."""
    rng = random.Random(f"paper:{seed}:{index}")
    return {
        "scales": rng.sample(SCALES, len(SCALES)),
        "guidance_seeds": rng.sample(range(GUIDANCE_SEEDS), GUIDANCE_PER_PASS),
    }


def run_search(setups: dict, name: str, scale: int) -> dict:
    from repro.apps.graph500 import Graph500Config, TrafficModel
    from repro.sensitivity import search_placements

    _, platform, nodes, pus, top_k = next(s for s in SEARCHES if s[0] == name)
    model = TrafficModel.analytic(scale)
    phases = model.phases(Graph500Config(scale=scale, nroots=1, threads=16),
                          per_level=True)
    result = search_placements(
        setups[platform].engine,
        phases,
        model.buffer_sizes(),
        nodes,
        default_node=nodes[0],
        pus=pus,
        top_k=top_k,
        workers=WORKERS,
    )
    return {
        "assignment": [list(p) for p in result.best.assignment],
        "seconds": result.best.seconds,
        "leaves": result.stats.leaves_priced,
    }


def _workloads():
    from repro.apps import phased_graph500, rotating_triad
    from repro.units import GB

    return {
        "rotating_triad": rotating_triad(
            buffers=4, buffer_bytes=2 * GB, intervals=16, rotate_every=4,
            hot_sweeps=24,
        ),
        "phased_graph500": phased_graph500(
            intervals=16, rotate_every=4, hot_sweeps=24
        ),
    }


def run_guidance(setups: dict, workload, seed: int) -> dict:
    """One sampled guidance run on KNL's MCDRAM/DRAM tier, 2 MiB pages."""
    from repro.kernel.autotier import AutoTierDaemon, TierConfig
    from repro.kernel.pagealloc import KernelMemoryManager
    from repro.kernel.policy import bind_policy
    from repro.profiler import GuidanceLoop, PebsSampler
    from repro.units import GB, MiB

    setup = setups[KNL]
    km = KernelMemoryManager(setup.machine, page_size=2 * MiB)
    daemon = AutoTierDaemon(
        km,
        TierConfig(
            fast_nodes=(4,), slow_nodes=(0,), migration_budget_bytes=8 * GB,
            demotion_threshold=0.5, decay=0.25,
        ),
    )
    for name in workload.buffers:
        daemon.track(name, km.allocate(workload.buffer_bytes[name], bind_policy(0)))
    loop = GuidanceLoop(
        daemon,
        sampler=PebsSampler(period=PERIOD, seed=seed),
        engine=setup.engine,
        pus=KNL_PUS,
    )
    report = loop.run(workload)
    return {
        "total_seconds": report.total_seconds,
        "replacements": report.replacements,
        "bytes_moved": report.bytes_moved,
        "intervals": len(report.intervals),
    }


class Worker:
    """Runs the warm jobs of each pass and checks every answer."""

    def __init__(self, setups: dict) -> None:
        self.setups = setups
        self.expected = json.loads(EXPECTED.read_text())
        self.workloads = _workloads()

    def run_pass(self, seed: int, index: int) -> dict:
        """The warm jobs of one pass; each half is scaled by the median host
        speed of ``calib.tick`` samples taken before and after every job."""
        import calib

        inputs = pass_inputs(seed, index)
        errors: list[str] = []
        search_s: list[float] = []
        jobs = 0
        search_speeds = [calib.tick()]
        for scale in inputs["scales"]:
            for name, *_ in SEARCHES:
                t = time.perf_counter()
                got = run_search(self.setups, name, scale)
                search_s.append(time.perf_counter() - t)
                search_speeds.append(calib.tick())
                jobs += 1
                want = self.expected["searches"][f"{name}@{scale}"]
                if [got["assignment"], got["seconds"]] != [
                    want["assignment"], want["seconds"]
                ]:
                    errors.append(f"search {name}@{scale}: {got} != {want}")
        intervals = 0
        guidance_s = 0.0
        guidance_speeds = [calib.tick()]
        for gseed in inputs["guidance_seeds"]:
            for wname, workload in self.workloads.items():
                t = time.perf_counter()
                got = run_guidance(self.setups, workload, gseed)
                guidance_s += time.perf_counter() - t
                guidance_speeds.append(calib.tick())
                jobs += 1
                intervals += got["intervals"]
                want = self.expected["guidance"][f"{wname}@{gseed}"]
                got.pop("intervals")
                if got != want:
                    errors.append(f"guidance {wname}@{gseed}: {got} != {want}")
        search_speed = statistics.median(search_speeds)
        guidance_speed = statistics.median(guidance_speeds)
        return {
            "warm_s": sum(search_s) + guidance_s,
            "scaled_s": sum(search_s) * search_speed + guidance_s * guidance_speed,
            "speeds": [search_speed, guidance_speed],
            "search_s": search_s,
            "guidance_s": guidance_s,
            "intervals": intervals,
            "jobs": jobs,
            "errors": errors,
        }


def record(setups: dict, experiments_digest: str) -> dict:
    """Every answer any seed can ask for, as the program gives it now."""
    out: dict = {"experiments_sha256": experiments_digest, "searches": {},
                 "guidance": {}}
    for name, *_ in SEARCHES:
        for scale in SCALES:
            got = run_search(setups, name, scale)
            out["searches"][f"{name}@{scale}"] = {
                "assignment": got["assignment"], "seconds": got["seconds"]
            }
    for wname, workload in _workloads().items():
        for gseed in range(GUIDANCE_SEEDS):
            got = run_guidance(setups, workload, gseed)
            got.pop("intervals")
            out["guidance"][f"{wname}@{gseed}"] = got
    return out


if __name__ == "__main__":
    import hashlib
    import subprocess
    import sys

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/paper.py --record")
    import repro

    cold = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "all"],
        check=True, capture_output=True,
    )
    digest = hashlib.sha256(cold.stdout).hexdigest()
    setups = {p: repro.quick_setup(p) for p in (KNL, XEON)}
    EXPECTED.write_text(json.dumps(record(setups, digest), indent=1) + "\n")
    print(f"wrote {EXPECTED}")
