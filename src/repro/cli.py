"""``repro-lstopo`` and ``repro-search`` — the command-line tools.

``repro-lstopo`` renders any preset platform's topology (Figs. 1-3), its
memory attributes (``--memattrs``, Fig. 5), NUMA distances
(``--distances``) and the virtual sysfs tree (``--sysfs``).  Attributes
come from native HMAT discovery when the platform has one, otherwise from
the benchmark sweep — announced in the output, since that distinction is
the point of §IV-A.

``repro-search`` runs the §V-A placement search oracle over a Graph500
workload on any preset platform, exposing the search engine's knobs:
``--top-k`` (bounded best-k heap), ``--budget`` (pricing budget with
truncation report), ``--no-prune`` (disable branch-and-bound).

``repro-analyze`` exposes the quantitative static analyzer: symbolic
per-buffer footprints of the registered app kernels, evaluated traffic
shares at the registry's problem scales (``--bind`` overrides any
symbol), and the static-vs-measured parity gate
(``--verify-parity``, exit 1 on drift) CI runs on every push.
"""

from __future__ import annotations

import argparse
import sys

from .bench import characterize_machine, feed_attributes
from .core import MemAttrs, discover_from_sysfs, render_cache_stats, render_memattrs
from .core.ranking import rank_targets
from .errors import ReproError, ValidationError
from .firmware import build_sysfs
from .hw import PLATFORM_REGISTRY, get_platform
from .obs.cli import add_obs_arguments, finish_obs, start_obs
from .sim import SimEngine
from .topology import build_topology, render_lstopo

__all__ = [
    "main",
    "build_parser",
    "search_main",
    "build_search_parser",
    "lint_main",
    "build_lint_parser",
    "analyze_main",
    "build_analyze_parser",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lstopo",
        description="Show the topology and memory attributes of a modeled platform",
    )
    parser.add_argument(
        "--platform",
        default="xeon-cascadelake-1lm",
        choices=sorted(PLATFORM_REGISTRY),
        help="preset platform to display",
    )
    parser.add_argument(
        "--snc",
        type=int,
        default=None,
        help="SubNUMA clusters per package (platforms that support it)",
    )
    parser.add_argument(
        "--memattrs",
        action="store_true",
        help="also print memory attributes (Fig. 5 format)",
    )
    parser.add_argument(
        "--benchmark",
        action="store_true",
        help="characterize with benchmarks even when an HMAT exists",
    )
    parser.add_argument(
        "--distances", action="store_true", help="print the SLIT distance matrix"
    )
    parser.add_argument(
        "--sysfs", action="store_true", help="dump the virtual sysfs tree"
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="exercise the attribute-query hot path and print the "
        "memoization counters (implies --memattrs discovery)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    kwargs = {}
    if args.snc is not None:
        kwargs["snc"] = args.snc
    machine = get_platform(args.platform, **kwargs)
    topology = build_topology(machine)

    print(render_lstopo(topology))

    if args.distances:
        print("\nNUMA distances (SLIT):")
        print(topology.slit.render())

    if args.sysfs:
        print("\nVirtual sysfs:")
        print(build_sysfs(machine).render_tree())

    if args.memattrs or args.cache_stats:
        memattrs = MemAttrs(topology)
        if machine.has_hmat and not args.benchmark:
            recorded = discover_from_sysfs(memattrs, build_sysfs(machine))
            source = f"ACPI HMAT via sysfs ({recorded} values, local accesses only)"
        else:
            engine = SimEngine(machine, topology)
            recorded = feed_attributes(memattrs, characterize_machine(engine))
            source = f"benchmarks ({recorded} values, including remote accesses)"
        if args.memattrs:
            print(f"\nMemory attributes — source: {source}")
            print(render_memattrs(memattrs))
        if args.cache_stats:
            # Run each attribute's local ranking twice from PU 0: the first
            # pass fills the cache, the second demonstrates the hits.
            for _ in range(2):
                for attr in memattrs.attributes():
                    try:
                        rank_targets(memattrs, attr.name, 0)
                    except ReproError:
                        continue
            print("\nQuery-cache statistics:")
            print(render_cache_stats(memattrs.cache_stats()))
            print(f"generation: {memattrs.generation}")
    return 0


def parse_nodes(text: str, flag: str) -> tuple[int, ...]:
    """Parse a comma-separated list of distinct NUMA nodes given to ``flag``."""
    try:
        nodes = tuple(int(n) for n in text.split(","))
    except ValueError:
        raise ValidationError(
            f"{flag} must be comma-separated node numbers, got {text!r}"
        ) from None
    if len(set(nodes)) != len(nodes):
        raise ValidationError(f"{flag} lists a node twice: {text!r}")
    return nodes


def build_search_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-search",
        description="Branch-and-bound placement search (§V-A oracle) "
        "over a Graph500 workload",
    )
    parser.add_argument(
        "--platform",
        default="xeon-cascadelake-1lm",
        choices=sorted(PLATFORM_REGISTRY),
        help="preset platform to search on",
    )
    parser.add_argument(
        "--scale", type=int, default=20, help="Graph500 scale (2^scale vertices)"
    )
    parser.add_argument(
        "--nodes",
        default="0,2",
        help="comma-separated candidate NUMA nodes (first is the default node)",
    )
    parser.add_argument(
        "--critical",
        default=None,
        help="comma-separated critical buffers (default: all buffers)",
    )
    parser.add_argument(
        "--top-k",
        type=int,
        default=8,
        help="keep only the k best placements; 0 keeps every candidate",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="pricing budget: max placements priced before truncating",
    )
    parser.add_argument(
        "--no-prune",
        action="store_true",
        help="disable branch-and-bound pruning (for comparison runs)",
    )
    parser.add_argument(
        "--per-level",
        action="store_true",
        help="search per-BFS-level phases instead of the folded phase",
    )
    parser.add_argument(
        "--threads", type=int, default=16, help="threads of the workload"
    )
    add_obs_arguments(parser)
    return parser


def search_main(argv: list[str] | None = None) -> int:
    from .apps.graph500 import Graph500Config, TrafficModel
    from .sensitivity import search_placements

    args = build_search_parser().parse_args(argv)
    start_obs(args)
    machine = get_platform(args.platform)
    engine = SimEngine(machine)
    critical = (
        tuple(args.critical.split(",")) if args.critical is not None else None
    )
    try:
        nodes = parse_nodes(args.nodes, "--nodes")
        model = TrafficModel.analytic(args.scale)
        cfg = Graph500Config(scale=args.scale, nroots=1, threads=args.threads)
        phases = model.phases(cfg, per_level=args.per_level)
        result = search_placements(
            engine,
            phases,
            model.buffer_sizes(),
            nodes,
            default_node=nodes[0],
            critical_buffers=critical,
            top_k=args.top_k or None,
            max_candidates=args.budget,
            prune=not args.no_prune,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    buffers = [b for b, _ in result.candidates[0].assignment]
    print(f"Graph500 scale {args.scale} on {args.platform}, nodes {list(nodes)}")
    print(" | ".join(f"{b:>12}" for b in buffers) + f" | {'time':>10}")
    for c in result.candidates:
        row = " | ".join(f"{node:>12}" for _, node in c.assignment)
        print(f"{row} | {c.seconds * 1e3:>8.2f}ms")
    print()
    print(result.stats.report())
    finish_obs(args)
    return 0


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static validation: diff app kernels against their "
        "declared descriptors, lint placement-plan JSON files, and check "
        "attribute literals at mem_alloc call sites — without simulating",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (.json as plans, .py for "
        "allocation sites); default: the bundled app kernels only",
    )
    parser.add_argument(
        "--apps",
        action="store_true",
        help="lint the bundled app kernels (inference vs declaration)",
    )
    parser.add_argument(
        "--platform",
        default="xeon-cascadelake-1lm",
        choices=sorted(PLATFORM_REGISTRY),
        help="platform to validate attribute names and plans against "
        "(plans naming their own platform keep it)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--no-footprints",
        action="store_true",
        help="skip the quantitative footprint rules (F...) when linting "
        "the bundled app kernels",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON (issues, severities, stats)",
    )
    return parser


def lint_main(argv: list[str] | None = None) -> int:
    from .analysis.lint import (
        LintReport,
        lint_app_kernels,
        lint_kernel_footprints,
        lint_paths,
        rule_catalog,
    )

    args = build_lint_parser().parse_args(argv)
    if args.list_rules:
        print(rule_catalog())
        return 0
    report = LintReport()
    if args.apps or not args.paths:
        report.extend(lint_app_kernels())
        if not args.no_footprints:
            report.extend(lint_kernel_footprints(platform=args.platform))
    if args.paths:
        report.extend(lint_paths(args.paths, platform=args.platform))
    print(report.to_json() if args.json else report.render())
    return 0 if report.ok else 1


def build_analyze_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Quantitative static analysis of the bundled app "
        "kernels: symbolic per-buffer footprints, traffic shares at the "
        "registry scales, and the static-vs-measured parity gate",
    )
    parser.add_argument(
        "--app",
        action="append",
        dest="apps",
        metavar="NAME",
        help="registered kernel to analyze (repeatable; default: all)",
    )
    parser.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="SYMBOL=VALUE",
        help="bind a footprint symbol (e.g. n=4096 or 'seg(offsets)=1e6'); "
        "overrides the registry value (repeatable)",
    )
    parser.add_argument(
        "--verify-parity",
        action="store_true",
        help="differentially check static shares against instrumented "
        "kernel runs; exit 1 on drift (the CI gate)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative drift tolerance for --verify-parity (default 0.10)",
    )
    parser.add_argument(
        "--list-apps",
        action="store_true",
        help="list the registered kernels and exit",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    return parser


def _parse_bindings(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        symbol, sep, value = pair.partition("=")
        if not sep or not symbol:
            raise ReproError(f"--bind expects SYMBOL=VALUE, got {pair!r}")
        try:
            out[symbol.strip()] = float(value)
        except ValueError:
            raise ReproError(
                f"--bind {symbol.strip()!r}: {value!r} is not a number"
            ) from None
    return out


def analyze_main(argv: list[str] | None = None) -> int:
    import json

    from .analysis.footprint import traffic_shares
    from .analysis.kernels import app_kernels

    args = build_analyze_parser().parse_args(argv)

    if args.verify_parity:
        from .analysis.parity import DEFAULT_TOLERANCE, PARITY_APPS, run_parity

        tolerance = (
            args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        )
        selected = tuple(args.apps) if args.apps else None
        if selected and (unknown := set(selected) - set(PARITY_APPS)):
            print(
                f"error: unknown parity app(s) {sorted(unknown)} "
                f"(known: {sorted(PARITY_APPS)})",
                file=sys.stderr,
            )
            return 2
        report = run_parity(selected, tolerance=tolerance)
        print(
            json.dumps(report.to_dict(), indent=2)
            if args.json
            else report.describe()
        )
        return 0 if report.ok else 1

    kernels = app_kernels()
    if args.list_apps:
        if args.json:
            print(json.dumps([k.name for k in kernels]))
        else:
            for spec in kernels:
                print(f"{spec.name}  ({spec.module})")
        return 0
    if args.apps:
        known = {k.name for k in kernels}
        if unknown := set(args.apps) - known:
            print(
                f"error: unknown app(s) {sorted(unknown)} "
                f"(known: {sorted(known)})",
                file=sys.stderr,
            )
            return 2
        kernels = tuple(k for k in kernels if k.name in set(args.apps))
    try:
        overrides = _parse_bindings(args.bind)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    entries = []
    for spec in kernels:
        footprint = spec.footprint()
        bindings = spec.footprint_bindings(footprint)
        bindings.update(overrides)
        try:
            shares = traffic_shares(
                footprint,
                bindings,
                param_buffers=spec.param_buffers,
                buffer_sizes=spec.buffer_sizes,
            )
        except ReproError:
            shares = None  # symbols left unbound: footprint stays symbolic
        entries.append((spec, footprint, bindings, shares))

    if args.json:
        payload = [
            {
                "app": spec.name,
                "kernel": footprint.kernel,
                "symbols": sorted(footprint.symbols()),
                "bindings": bindings,
                "nests": [
                    {
                        "name": nest.name,
                        "line": nest.line,
                        "buffers": {
                            param: {
                                "pattern": bf.pattern.value
                                if bf.pattern
                                else None,
                                "reads": str(bf.reads),
                                "writes": str(bf.writes),
                                "whole_buffer": bf.whole_buffer,
                                "unknown_sites": bf.unknown_sites,
                            }
                            for param, bf in sorted(nest.buffers.items())
                        },
                    }
                    for nest in footprint.nests
                ],
                "traffic_shares": shares,
                "declared_shares": spec.declared_shares(),
            }
            for spec, footprint, bindings, shares in entries
        ]
        print(json.dumps(payload, indent=2))
        return 0

    for spec, footprint, bindings, shares in entries:
        print(f"== {spec.name} ==")
        print(footprint.describe())
        if shares is not None:
            declared = spec.declared_shares()
            rendered = "  ".join(
                f"{buffer}={share:.4f}"
                + (
                    f" (declared {declared[buffer]:.4f})"
                    if buffer in declared
                    else ""
                )
                for buffer, share in sorted(shares.items())
            )
            print(f"  traffic shares: {rendered}")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
