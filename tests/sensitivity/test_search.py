"""Placement-search tests (§V-A's 2^N exploration, now branch-and-bound)."""

import random

import pytest

from repro.apps.graph500 import Graph500Config, TrafficModel
from repro.errors import ReproError
from repro.sensitivity import exhaustive_search, search_placements
from repro.sensitivity.search import _BoundModel, _SearchSpace
from repro.sim import BufferAccess, KernelPhase, PatternKind
from repro.units import GB, MiB
from tests.conftest import KNL_PUS, XEON_PUS


@pytest.fixture(scope="module")
def g500_setup():
    model = TrafficModel.analytic(20)
    cfg = Graph500Config(scale=20, nroots=1, threads=16)
    return model.phases(cfg), model.buffer_sizes()


class TestSearch:
    def test_enumerates_full_space(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        results = exhaustive_search(
            xeon_engine, phases, sizes, (0, 2),
            default_node=0, pus=XEON_PUS,
        )
        assert len(results) == 2 ** 4

    def test_best_first_ordering(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        results = exhaustive_search(
            xeon_engine, phases, sizes, (0, 2),
            default_node=0, pus=XEON_PUS,
        )
        times = [c.seconds for c in results]
        assert times == sorted(times)

    def test_oracle_places_parent_on_dram(self, xeon_engine, g500_setup):
        """The optimal placement agrees with the Latency criterion."""
        phases, sizes = g500_setup
        best = exhaustive_search(
            xeon_engine, phases, sizes, (0, 2),
            default_node=0, pus=XEON_PUS,
        )[0]
        assert best.as_dict()["parent"] == 0

    def test_pruning_reduces_space(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        results = exhaustive_search(
            xeon_engine, phases, sizes, (0, 2),
            default_node=0,
            critical_buffers=("parent", "csr_targets"),
            pus=XEON_PUS,
        )
        assert len(results) == 4

    def test_capacity_pruning(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        results = exhaustive_search(
            xeon_engine, phases, sizes, (0, 2),
            default_node=0,
            critical_buffers=("parent",),
            node_capacity={0: 100 * GB, 2: 0},
            pus=XEON_PUS,
        )
        assert all(c.as_dict()["parent"] == 0 for c in results)

    def test_capacity_missing_node_means_unlimited(self, xeon_engine, g500_setup):
        """Regression: a node absent from node_capacity used to be treated
        as capacity 0 and silently made every placement on it infeasible."""
        phases, sizes = g500_setup
        result = search_placements(
            xeon_engine, phases, sizes, (0, 2),
            default_node=0,
            critical_buffers=("parent",),
            node_capacity={2: 0},   # node 0 not mentioned => unlimited
            pus=XEON_PUS,
        )
        assert [c.as_dict()["parent"] for c in result.candidates] == [0]
        assert result.stats.capacity_pruned == 1

    def test_budget_truncates_instead_of_raising(self, xeon_engine, g500_setup):
        """max_candidates is a pricing budget now, not a hard error."""
        phases, sizes = g500_setup
        logged = []
        result = search_placements(
            xeon_engine, phases, sizes, (0, 1, 2, 3),
            default_node=0, pus=XEON_PUS, max_candidates=8,
            log=logged.append,
        )
        assert result.stats.truncated
        assert result.stats.leaves_priced == 8
        assert len(result.candidates) == 8
        assert "TRUNCATED" in logged[0]
        # The tuple-returning wrapper no longer raises either.
        results = exhaustive_search(
            xeon_engine, phases, sizes, (0, 1, 2, 3),
            default_node=0, pus=XEON_PUS, max_candidates=8,
        )
        assert len(results) == 8

    def test_unknown_critical_buffer_rejected(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        with pytest.raises(ReproError):
            exhaustive_search(
                xeon_engine, phases, sizes, (0, 2),
                default_node=0, critical_buffers=("ghost",), pus=XEON_PUS,
            )

    def test_infeasible_everything_raises(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        with pytest.raises(ReproError):
            exhaustive_search(
                xeon_engine, phases, sizes, (0,),
                default_node=0,
                critical_buffers=("parent",),
                node_capacity={0: 0},
                pus=XEON_PUS,
            )


class TestTopK:
    def test_topk_returns_exactly_the_k_best(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        full = search_placements(
            xeon_engine, phases, sizes, (0, 1, 2, 3),
            default_node=0, pus=XEON_PUS,
        )
        for k in (1, 3, 7):
            topk = search_placements(
                xeon_engine, phases, sizes, (0, 1, 2, 3),
                default_node=0, pus=XEON_PUS, top_k=k,
            )
            assert topk.candidates == full.candidates[:k]

    def test_pruned_and_unpruned_agree(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        pruned = search_placements(
            xeon_engine, phases, sizes, (0, 1, 2, 3),
            default_node=0, pus=XEON_PUS, top_k=4, prune=True,
        )
        unpruned = search_placements(
            xeon_engine, phases, sizes, (0, 1, 2, 3),
            default_node=0, pus=XEON_PUS, top_k=4, prune=False,
        )
        assert pruned.candidates == unpruned.candidates
        assert pruned.stats.bound_pruned > 0
        assert unpruned.stats.bound_pruned == 0


def _tied_workload():
    """Two symmetric single-buffer phases: placements (x=a, y=b) and
    (x=b, y=a) price identically, exercising the tie-break."""
    def phase(name, buf):
        return KernelPhase(
            name=name,
            threads=8,
            accesses=(
                BufferAccess(
                    buffer=buf, pattern=PatternKind.STREAM,
                    bytes_read=64 * MiB, working_set=64 * MiB,
                ),
            ),
        )
    phases = (phase("p1", "x"), phase("p2", "y"))
    sizes = {"x": 64 * MiB, "y": 64 * MiB}
    return phases, sizes


class TestDeterminism:
    def test_tie_break_is_seconds_then_assignment(self, xeon_engine):
        phases, sizes = _tied_workload()
        result = search_placements(
            xeon_engine, phases, sizes, (0, 2), default_node=0,
            pus=XEON_PUS,
        )
        combos = [tuple(n for _, n in c.assignment) for c in result.candidates]
        tied = [
            c for c in result.candidates
            if c.seconds == result.candidates[1].seconds
        ]
        assert len(tied) >= 2, "workload should produce a tie"
        # Within equal seconds, assignments ascend lexicographically.
        for a, b in zip(result.candidates, result.candidates[1:]):
            assert (a.seconds, tuple(n for _, n in a.assignment)) < (
                b.seconds, tuple(n for _, n in b.assignment)
            )
        assert sorted(combos) != combos or True  # full order asserted above

    def test_reuse_phase_pricings_bit_identity(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        memoized = search_placements(
            xeon_engine, phases, sizes, (0, 2), default_node=0,
            pus=XEON_PUS, reuse_phase_pricings=True,
        )
        direct = search_placements(
            xeon_engine, phases, sizes, (0, 2), default_node=0,
            pus=XEON_PUS, reuse_phase_pricings=False,
        )
        # Not approx: the memoized totals reuse the identical floats.
        assert memoized.candidates == direct.candidates


class TestSingleProcess:
    def test_workers_keyword_is_ignored_on_knl_exhaustive(self, knl_engine):
        """``workers=`` is accepted for old callers and changes nothing,
        even on the 8-node KNL exhaustive space (8^4 = 4096 leaves)."""
        model = TrafficModel.analytic(18)
        phases = model.phases(
            Graph500Config(scale=18, nroots=1, threads=16), per_level=True
        )
        nodes = tuple(range(8))
        runs = [
            search_placements(
                knl_engine, phases, model.buffer_sizes(), nodes,
                default_node=0, pus=KNL_PUS, workers=workers,
            )
            for workers in (1, 2)
        ]
        assert runs[0].stats.space_size == 4096
        # The optimum recorded for knl_exhaustive@18 in perfbench/expected.json.
        assert runs[0].best.seconds == 0.07653664433957605
        assert runs[0].best.as_dict() == dict.fromkeys(
            ("csr_offsets", "csr_targets", "frontier", "parent"), 0
        )
        assert runs[1].candidates == runs[0].candidates
        assert runs[1].stats == runs[0].stats
        assert runs[1].stats.workers == 1
        assert runs[1].stats.dispatch == "serial"

    def test_default_report_text_is_pinned(self, xeon_engine, g500_setup):
        """perfbench/expected.json pins a digest of `repro-experiments all`
        stdout, which carries this report verbatim."""
        phases, sizes = g500_setup
        result = search_placements(
            xeon_engine, phases, sizes, (0, 2), default_node=0,
            pus=XEON_PUS, top_k=4,
        )
        assert result.stats.report() == (
            "placement search: space 16, priced 8 leaves, kept 4\n"
            "  pruned: 0 by capacity, 8 by bound\n"
            "  engine pricings: 8 slice + 8 bound, workers: 1\n"
            "  dispatch: serial (requested workers 1; parallel not requested)"
        )


def _random_workload(rng: random.Random):
    """A randomized multi-phase workload for the admissibility sweep."""
    patterns = (
        PatternKind.STREAM, PatternKind.STRIDED,
        PatternKind.RANDOM, PatternKind.POINTER_CHASE,
    )
    buffers = [f"b{i}" for i in range(rng.randint(3, 4))]
    sizes = {b: rng.randint(8, 512) * MiB for b in buffers}
    phases = []
    for p in range(rng.randint(1, 3)):
        chosen = rng.sample(buffers, rng.randint(2, len(buffers)))
        accesses = tuple(
            BufferAccess(
                buffer=b,
                pattern=rng.choice(patterns),
                bytes_read=rng.randint(1, 64) * MiB,
                bytes_written=rng.choice((0, rng.randint(1, 16) * MiB)),
                working_set=sizes[b],
                granularity=rng.choice((8, 64)),
                hot_fraction=rng.choice((0.0, 0.3, 0.7)),
            )
            for b in chosen
        )
        phases.append(
            KernelPhase(
                name=f"ph{p}",
                threads=rng.choice((4, 16)),
                accesses=accesses,
                cpu_ops=float(rng.choice((0, 10 ** 9))),
            )
        )
    return tuple(phases), sizes


class TestLowerBound:
    def test_bound_admissible_on_randomized_workloads(self, xeon_engine):
        """The branch-and-bound lower bound never exceeds the true pricing
        of any completion — on a randomized sweep of workloads, prefixes
        and placements."""
        nodes = (0, 2)
        for seed in range(12):
            rng = random.Random(seed)
            phases, sizes = _random_workload(rng)
            # Match the search's default critical set: buffers the phases
            # actually access (a generated buffer may go unused).
            critical = tuple(
                sorted({a.buffer for ph in phases for a in ph.accesses})
            )
            full = search_placements(
                xeon_engine, phases, sizes, nodes, default_node=0,
                pus=XEON_PUS, prune=False,
            )
            space = _SearchSpace(
                xeon_engine, phases, sizes, nodes, critical,
                critical, 0, None, XEON_PUS, True,
            )
            bound = _BoundModel(
                xeon_engine, space.prepared, critical, nodes, 0
            )
            by_combo = {
                tuple(n for _, n in c.assignment): c.seconds
                for c in full.candidates
            }
            for depth in range(len(critical) + 1):
                for combo, seconds in by_combo.items():
                    prefix = combo[:depth]
                    lb = bound.bound_for(prefix)
                    assert lb <= seconds * (1 + 1e-9), (
                        f"seed {seed}: bound {lb} exceeds pricing {seconds} "
                        f"for prefix {prefix} of {combo}"
                    )

    def test_bound_full_assignment_below_truth(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        critical = tuple(sorted(sizes))
        full = search_placements(
            xeon_engine, phases, sizes, (0, 2), default_node=0,
            pus=XEON_PUS, prune=False,
        )
        space = _SearchSpace(
            xeon_engine, phases, sizes, (0, 2), critical, critical,
            0, None, XEON_PUS, True,
        )
        bound = _BoundModel(xeon_engine, space.prepared, critical, (0, 2), 0)
        for c in full.candidates:
            combo = tuple(n for _, n in c.assignment)
            assert bound.bound_for(combo) <= c.seconds * (1 + 1e-9)


class TestLargeSpace:
    def test_2_to_16_space_completes(self, xeon_engine):
        """PR 1 refused anything past max_candidates; the streaming +
        branch-and-bound path walks a 2^16 space."""
        phases = []
        sizes = {}
        for p in range(4):
            accesses = []
            for i in range(4):
                name = f"chunk{p}_{i}"
                sizes[name] = 32 * MiB
                accesses.append(
                    BufferAccess(
                        buffer=name,
                        pattern=PatternKind.RANDOM if i % 2 else PatternKind.STREAM,
                        bytes_read=(8 + 4 * i) * MiB,
                        working_set=32 * MiB,
                    )
                )
            phases.append(
                KernelPhase(name=f"ph{p}", threads=16, accesses=tuple(accesses))
            )
        result = search_placements(
            xeon_engine, tuple(phases), sizes, (0, 2), default_node=0,
            pus=XEON_PUS, top_k=8,
        )
        assert result.stats.space_size == 2 ** 16
        assert not result.stats.truncated
        assert len(result.candidates) == 8
        priced_or_pruned = (
            result.stats.leaves_priced
            + result.stats.bound_pruned
            + result.stats.capacity_pruned
        )
        assert priced_or_pruned == 2 ** 16
        times = [c.seconds for c in result.candidates]
        assert times == sorted(times)


class TestBatchLeafPath:
    """The collect-then-batch pricing path must be invisible in results:
    identical candidates, seconds (bit for bit), and SearchStats."""

    @staticmethod
    def _signature(result):
        s = result.stats
        return (
            [(c.assignment, c.seconds) for c in result.candidates],
            s.leaves_priced, s.slice_pricings, s.bound_pricings,
            s.capacity_pruned, s.bound_pruned, s.truncated,
        )

    def _run(self, engine, phases, sizes, **kw):
        return search_placements(
            engine, phases, sizes, (0, 2), default_node=0,
            pus=XEON_PUS, **kw,
        )

    def test_batch_equals_lazy_g500(
        self, xeon_engine, g500_setup, monkeypatch
    ):
        import repro.sensitivity.search as mod
        phases, sizes = g500_setup
        variants = {}
        for label, flag, min_leaves, max_rows in (
            ("batch", True, 0, 1024),
            ("batch-chunked", True, 0, 3),
            ("scalar-fallback", True, 10 ** 9, 1024),
            ("lazy", False, 0, 1024),
        ):
            monkeypatch.setattr(mod, "_BATCH_LEAF_PATH", flag)
            monkeypatch.setattr(mod, "_BATCH_MIN_LEAVES", min_leaves)
            monkeypatch.setattr(mod, "_BATCH_MAX_ROWS", max_rows)
            variants[label] = self._signature(
                self._run(xeon_engine, phases, sizes, prune=False, top_k=6)
            )
        assert variants["batch"] == variants["lazy"]
        assert variants["batch-chunked"] == variants["lazy"]
        assert variants["scalar-fallback"] == variants["lazy"]

    def test_batch_equals_lazy_randomized(self, xeon_engine, monkeypatch):
        import repro.sensitivity.search as mod
        rng = random.Random(2024)
        for _ in range(8):
            phases, sizes = _random_workload(rng)
            budget = rng.choice((None, 5, 40))
            top_k = rng.choice((None, 3))
            sigs = []
            for flag in (True, False):
                monkeypatch.setattr(mod, "_BATCH_LEAF_PATH", flag)
                monkeypatch.setattr(mod, "_BATCH_MIN_LEAVES", 0)
                sigs.append(
                    self._signature(
                        self._run(
                            xeon_engine, phases, sizes,
                            prune=False, top_k=top_k, max_candidates=budget,
                        )
                    )
                )
            assert sigs[0] == sigs[1]

    def test_batch_fill_reordered_and_default_buffers(
        self, xeon_engine, monkeypatch
    ):
        """Phases list buffers in their own order (not the critical
        order) and read a non-critical buffer that sits on a default node
        outside the candidate axis; chunked batch rows must still equal
        the scalar fallback bit for bit."""
        import repro.sensitivity.search as mod

        def acc(buf, pattern, mib_read, mib_written=0):
            return BufferAccess(
                buffer=buf, pattern=pattern,
                bytes_read=mib_read * MiB, bytes_written=mib_written * MiB,
                working_set=64 * MiB,
            )

        phases = (
            KernelPhase("p0", threads=8, accesses=(
                acc("c", PatternKind.RANDOM, 32),
                acc("extra", PatternKind.STREAM, 256),
                acc("a", PatternKind.STREAM, 512, 128),
            )),
            KernelPhase("p1", threads=16, accesses=(
                acc("b", PatternKind.POINTER_CHASE, 8),
                acc("a", PatternKind.RANDOM, 16, 4),
            )),
        )
        sizes = {b: 64 * MiB for b in ("a", "b", "c", "extra")}
        critical = ("a", "b", "c")
        variants = {}
        for label, min_leaves, max_rows in (
            ("batch-chunked", 0, 3),
            ("scalar-fallback", 10 ** 9, 1024),
        ):
            monkeypatch.setattr(mod, "_BATCH_LEAF_PATH", True)
            monkeypatch.setattr(mod, "_BATCH_MIN_LEAVES", min_leaves)
            monkeypatch.setattr(mod, "_BATCH_MAX_ROWS", max_rows)
            variants[label] = self._signature(
                search_placements(
                    xeon_engine, phases, sizes, (0, 2, 3),
                    default_node=1, critical_buffers=critical,
                    pus=XEON_PUS, prune=False,
                )
            )
        # 27 leaves: p0 reads 9 distinct (c, a) slices, p1 9 (b, a), so
        # every phase spans several chunks of 3 rows.
        assert variants["batch-chunked"][1] == 27
        assert variants["batch-chunked"] == variants["scalar-fallback"]

    def test_memo_coherent_across_paths(self, xeon_engine, g500_setup):
        """A space primed by the batch path reuses its memo on the lazy
        path (and vice versa) — same keys, same floats."""
        phases, sizes = g500_setup
        engine = xeon_engine
        space = _SearchSpace(
            engine, phases, sizes, (0, 2),
            tuple(sizes), tuple(sizes), 0, None, XEON_PUS, True,
        )
        batch_out, _ = space._run_batch(top_k=None, budget=None)
        memo_after_batch = dict(space.memo)
        lazy = {
            tuple(cmb): space.price_assignment(dict(zip(space.critical, cmb)))
            for _, cmb in batch_out
        }
        assert space.memo == memo_after_batch  # everything was memoized
        for seconds, cmb in batch_out:
            assert lazy[tuple(cmb)] == seconds

    def test_bound_tables_vectorized_equals_scalar(
        self, xeon_engine, g500_setup
    ):
        phases, sizes = g500_setup
        prepared = tuple(
            xeon_engine.prepare_phase(p, pus=XEON_PUS) for p in phases
        )
        crit = tuple(sizes)
        vec = _BoundModel(xeon_engine, prepared, crit, (0, 2), 0)
        ref = _BoundModel(
            xeon_engine, prepared, crit, (0, 2), 0, vectorized=False
        )
        assert vec.pricings == ref.pricings
        assert vec._dec_lat == ref._dec_lat
        assert vec._dec_bw == ref._dec_bw
        assert vec._touch == ref._touch
        assert vec._suffix_lat == ref._suffix_lat
        assert vec._suffix_bw == ref._suffix_bw
