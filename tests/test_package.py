"""The top-level package: lazy ``import repro`` and ``quick_setup``'s
one benchmark sweep per machine."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

import repro
from repro.bench import characterize_machine, feed_attributes
from repro.core import MemAttrs
from repro.hw import get_platform
from repro.sim import SimEngine
from repro.topology import build_topology

SRC = Path(repro.__file__).resolve().parent.parent

FORMER_REEXPORTS = (
    "HeterogeneousAllocator", "characterize_machine", "feed_attributes",
    "MemAttrs", "native_discovery", "MachineSpec", "get_platform",
    "KernelMemoryManager", "SimEngine", "Topology", "build_topology",
)
HEAVY = ("repro.serve", "repro.resilience", "asyncio")


def _run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return out.stdout


class TestLazyImport:
    def test_import_loads_no_subpackage(self):
        loaded = json.loads(_run_python(
            "import json, sys, repro\n"
            "print(json.dumps(sorted(sys.modules)))"
        ))
        assert not [m for m in loaded if m.startswith("repro.")]
        assert not set(HEAVY) & set(loaded)

    def test_experiments_all_skips_serve_and_resilience(self):
        loaded = json.loads(_run_python(
            "import contextlib, io, json, runpy, sys\n"
            "sys.argv = ['repro-experiments', 'all']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        runpy.run_module('repro.experiments', run_name='__main__')\n"
            "    except SystemExit as exc:\n"
            "        assert not exc.code, exc.code\n"
            "print(json.dumps(sorted(sys.modules)))"
        ))
        assert "repro.sensitivity.search" in loaded   # the run got going
        assert not set(HEAVY) & set(loaded)

    def test_every_public_name_resolves(self):
        report = json.loads(_run_python(
            "import json, repro\n"
            f"names = list(repro.__all__) + {list(FORMER_REEXPORTS)!r}\n"
            "resolved = {n: type(getattr(repro, n)).__name__ for n in names}\n"
            "from repro import serve\n"
            "try:\n"
            "    repro.nope\n"
            "    missing = None\n"
            "except AttributeError as exc:\n"
            "    missing = str(exc)\n"
            "print(json.dumps({'resolved': resolved, 'serve': serve.__name__,\n"
            "                  'missing': missing}))"
        ))
        assert set(report["resolved"]) == set(repro.__all__) | set(
            FORMER_REEXPORTS
        )
        assert report["serve"] == "repro.serve"
        assert report["missing"] == "module 'repro' has no attribute 'nope'"

    def test_reexports_are_the_defining_objects(self):
        from repro import alloc, bench, core, hw, kernel, sim, topology

        homes = (alloc, bench, bench, core, core, hw, hw, kernel, sim,
                 topology, topology)
        for name, home in zip(FORMER_REEXPORTS, homes):
            assert getattr(repro, name) is getattr(home, name)


def _values(memattrs: MemAttrs) -> dict:
    """Every stored (attribute, target, initiator) value."""
    return {
        (attr, target, None if ini is None else ini.to_list_syntax()): value
        for attr, by_target in memattrs._store.values.items()
        for target, by_ini in by_target.items()
        for ini, value in by_ini.items()
    }


def _oracle(platform: str, **kwargs) -> dict:
    """Attributes fed from a direct, unshared sweep."""
    machine = get_platform(platform, **kwargs)
    topo = build_topology(machine)
    memattrs = MemAttrs(topo)
    feed_attributes(memattrs, characterize_machine(SimEngine(machine, topo)))
    return _values(memattrs)


@pytest.fixture()
def empty_memo(monkeypatch):
    memo = OrderedDict()
    monkeypatch.setattr(repro, "_sweep_reports", memo)
    return memo


class TestSweepMemo:
    def test_knl_setups_equal_direct_sweep(self, empty_memo):
        first = repro.quick_setup("knl-snc4-flat")
        second = repro.quick_setup("knl-snc4-flat")
        assert len(empty_memo) == 1
        oracle = _oracle("knl-snc4-flat")
        assert _values(first.memattrs) == oracle
        assert _values(second.memattrs) == oracle
        # Only the report is shared.
        for field in dataclasses.fields(first):
            if field.name != "machine":
                assert getattr(first, field.name) is not getattr(
                    second, field.name
                )

    def test_sweep_runs_once_per_machine(self, empty_memo, monkeypatch):
        import repro.bench

        calls = []

        def counting(engine, **kwargs):
            calls.append(engine.machine.name)
            return characterize_machine(engine, **kwargs)

        monkeypatch.setattr(repro.bench, "characterize_machine", counting)
        for _ in range(3):
            repro.quick_setup("knl-snc4-flat")
        assert calls == ["knl-snc4-flat"]

    def test_mutating_one_setup_leaves_others(self, empty_memo):
        oracle = _oracle("knl-snc4-flat")
        first = repro.quick_setup("knl-snc4-flat")
        second = repro.quick_setup("knl-snc4-flat")
        node = first.topology.numanodes()[0]
        pu0 = first.topology.pus()[0].cpuset
        first.memattrs.set_value("Bandwidth", node, pu0, 1.0)
        first.memattrs.degrade_target("Latency", node, 4.0)
        assert _values(first.memattrs) != oracle
        assert _values(second.memattrs) == oracle
        assert _values(repro.quick_setup("knl-snc4-flat").memattrs) == oracle

    def test_snc_variant_memoised_separately(self, empty_memo):
        flat = repro.quick_setup("xeon-cascadelake-1lm", benchmark=True)
        snc2 = repro.quick_setup(
            "xeon-cascadelake-1lm", snc=2, benchmark=True
        )
        assert list(empty_memo) == [flat.machine, snc2.machine]
        assert flat.machine != snc2.machine
        assert _values(flat.memattrs) == _oracle("xeon-cascadelake-1lm")
        assert _values(snc2.memattrs) == _oracle(
            "xeon-cascadelake-1lm", snc=2
        )
        # Native discovery on an HMAT machine never runs the sweep.
        repro.quick_setup("xeon-cascadelake-1lm")
        assert len(empty_memo) == 2

    def test_memo_holds_at_most_the_cap(self, empty_memo, monkeypatch):
        import repro.bench

        monkeypatch.setattr(
            repro.bench, "characterize_machine", lambda engine: object()
        )
        base = get_platform("xeon-cascadelake-1lm")
        rng = random.Random(14)
        machines = []
        while len(machines) < repro._SWEEP_MEMO_MACHINES + 5:
            machine = dataclasses.replace(
                base,
                name=f"rand{rng.randrange(10**6)}",
                core_ops_per_second=rng.uniform(1e9, 4e9),
            )
            if machine not in machines:
                machines.append(machine)
        first = repro._sweep_report(machines[0], None)
        for machine in machines[1:]:
            # Touching the first machine keeps it the most recent.
            assert repro._sweep_report(machines[0], None) is first
            repro._sweep_report(machine, None)
            assert len(empty_memo) <= repro._SWEEP_MEMO_MACHINES
        assert len(empty_memo) == repro._SWEEP_MEMO_MACHINES
        assert machines[0] in empty_memo
        assert machines[1] not in empty_memo
