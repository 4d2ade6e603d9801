"""CLI tests for repro-lstopo and repro-search."""

import pytest

from repro.cli import build_parser, build_search_parser, main, search_main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.platform == "xeon-cascadelake-1lm"
        assert not args.memattrs

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--platform", "pdp11"])


class TestMain:
    def test_topology_only(self, capsys):
        assert main(["--platform", "knl-snc4-flat"]) == 0
        out = capsys.readouterr().out
        assert "Machine (" in out
        assert "MCDRAM" in out

    def test_memattrs_hmat_source(self, capsys):
        main(["--platform", "xeon-cascadelake-1lm", "--snc", "2", "--memattrs"])
        out = capsys.readouterr().out
        assert "ACPI HMAT via sysfs" in out
        assert "131072 from Group0 L#0" in out

    def test_memattrs_benchmark_source_on_knl(self, capsys):
        main(["--platform", "knl-snc4-flat", "--memattrs"])
        out = capsys.readouterr().out
        assert "benchmarks" in out
        assert "including remote accesses" in out

    def test_forced_benchmark(self, capsys):
        main(["--platform", "uniform-dram", "--memattrs", "--benchmark"])
        out = capsys.readouterr().out
        assert "benchmarks" in out

    def test_distances(self, capsys):
        main(["--platform", "xeon-cascadelake-1lm", "--distances"])
        out = capsys.readouterr().out
        assert "NUMA distances" in out

    def test_sysfs_dump(self, capsys):
        main(["--platform", "xeon-cascadelake-1lm", "--sysfs"])
        out = capsys.readouterr().out
        assert "/sys/devices/system/node" in out


class TestSearchCli:
    def test_parser_defaults(self):
        args = build_search_parser().parse_args([])
        assert args.platform == "xeon-cascadelake-1lm"
        assert args.nodes == "0,2"
        assert args.top_k == 8
        assert args.budget is None
        assert not args.no_prune

    def test_search_smoke(self, capsys):
        assert search_main(["--top-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "Graph500 scale 20" in out
        assert "csr_offsets" in out
        assert "placement search: space 16" in out

    def test_search_four_nodes_per_level(self, capsys):
        assert search_main(
            ["--nodes", "0,1,2,3", "--per-level", "--top-k", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "placement search: space 256" in out
        assert "by bound" in out

    def test_search_critical_subset(self, capsys):
        assert search_main(["--critical", "parent,frontier", "--top-k", "0"]) == 0
        out = capsys.readouterr().out
        assert "placement search: space 4" in out

    def test_search_unknown_critical_fails(self, capsys):
        assert search_main(["--critical", "nonesuch"]) == 1
        assert "critical buffers not in phases" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--nodes", "0,,2"], "--nodes must be comma-separated"),
            (["--nodes", "x"], "--nodes must be comma-separated"),
            (["--scale", "0"], "scale, nroots and threads must be >= 1"),
            (["--threads", "0"], "scale, nroots and threads must be >= 1"),
            (["--nodes", "0,0,4"], "--nodes lists a node twice"),
        ],
    )
    def test_search_malformed_input_fails_cleanly(self, capsys, argv, message):
        assert search_main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--search-nodes", "0,,2"], "--search-nodes must be comma-separated"),
            (["--search-scale", "0"], "scale, nroots and threads must be >= 1"),
            (["--search-nodes", "0,2,0"], "--search-nodes lists a node twice"),
        ],
    )
    def test_experiments_search_malformed_input_fails_cleanly(
        self, capsys, argv, message
    ):
        from repro.experiments import main as experiments_main

        assert experiments_main(["search", *argv]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_workers_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_search_parser().parse_args(["--workers", "2"])

    def test_search_no_prune(self, capsys):
        assert search_main(["--no-prune", "--top-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 by bound" in out
