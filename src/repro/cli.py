"""Command-line interface: generate, link, analyse and evaluate.

Usage (after ``pip install -e .``)::

    python -m repro.cli generate --out data/ --households 300 --snapshots 2
    python -m repro.cli link data/census_1871.csv data/census_1881.csv \
        --records links_records.csv --groups links_groups.csv \
        --workers 4 --profile
    python -m repro.cli link data/census_*.csv \
        --incremental --series-state state/   # rolling-series mode
    python -m repro.cli evaluate links_records.csv data/truth_records_1871_1881.csv
    python -m repro.cli evolve data/census_*.csv
    python -m repro.cli golden --check          # replay committed goldens

Every subcommand works on the CSV formats of :mod:`repro.model.io`, so
real census extracts in the same shape plug straight in.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core.backends import available_backends
from .core.config import LinkageConfig
from .core.pipeline import link_datasets
from .datagen.generator import GeneratorConfig, generate_series
from .evaluation.metrics import evaluate_mapping
from .evolution.analysis import analyse_series
from .model import io as model_io


def _cmd_generate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.regions:
        from .datagen.country import CountryConfig, generate_country

        series = generate_country(CountryConfig(
            seed=args.seed,
            start_year=args.start_year,
            num_snapshots=args.snapshots,
            regions=args.regions,
            households_per_region=args.households_per_region,
        ))
    else:
        config = GeneratorConfig(
            seed=args.seed,
            start_year=args.start_year,
            num_snapshots=args.snapshots,
            initial_households=args.households,
        )
        series = generate_series(config)
    if args.store:
        from .sharding import ShardStore

        store = ShardStore(args.store)
        store.write_datasets(series.datasets)
        print(
            f"wrote shard store {args.store} "
            f"({store.format} format, years "
            f"{', '.join(str(year) for year in store.years())})"
        )
    for dataset in series.datasets:
        path = out_dir / f"census_{dataset.year}.csv"
        model_io.write_dataset(dataset, path)
        print(f"wrote {path} ({len(dataset)} records)")
    for old, new in series.successive_pairs():
        truth = series.ground_truth.record_mapping(old.year, new.year)
        groups = series.ground_truth.group_mapping(old.year, new.year)
        record_path = out_dir / f"truth_records_{old.year}_{new.year}.csv"
        group_path = out_dir / f"truth_groups_{old.year}_{new.year}.csv"
        model_io.write_record_mapping(truth, record_path)
        model_io.write_group_mapping(groups, group_path)
        print(f"wrote {record_path} ({len(truth)} true links)")
    return 0


def _add_linkage_flags(parser: argparse.ArgumentParser) -> None:
    """The LinkageConfig flags shared by every linking subcommand.

    ``link`` and ``evolve`` must accept the same knobs: the series path
    of ``link`` and the whole of ``evolve`` used to silently run a
    default ``LinkageConfig()``, dropping backend/worker flags — now
    both thread one parsed config through :func:`analyse_series`.
    """
    parser.add_argument("--delta-high", type=float, default=0.7)
    parser.add_argument("--delta-low", type=float, default=0.5)
    parser.add_argument("--alpha", type=float, default=0.2)
    parser.add_argument("--beta", type=float, default=0.7)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for pair scoring (1 = serial, 0 = all cores); "
        "output is identical for any value",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print per-stage timers, event counters and per-round "
        "cache statistics after linking",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="enforce the structural invariants of Alg. 1/2 inline "
        "(record-disjoint subgraphs, 1:1 links, witnessed group links); "
        "violations abort with a structured report",
    )
    parser.add_argument(
        "--no-filtering", action="store_true",
        help="disable the lossless candidate-pruning engine "
        "(repro.core.filtering); mappings are identical either way, "
        "pruning only avoids full similarity computations",
    )
    parser.add_argument(
        "--scoring-backend", choices=("vectorized", "python"),
        default="vectorized",
        help="bulk pair-scoring backend: 'vectorized' batches candidate "
        "chunks through the numpy kernel (repro.core.kernel; silently "
        "falls back to 'python' without numpy), 'python' forces the "
        "per-pair reference path; outcomes are bit-identical either way",
    )
    parser.add_argument(
        "--blocking",
        choices=("standard", "region", "standard+qgram", "cross"),
        default="standard",
        help="candidate blocking scheme: 'standard' is the paper's "
        "multi-pass phonetic blocker, 'region' wraps it region-locally "
        "for country-scale data (repro.blocking.region), "
        "'standard+qgram' adds the q-gram recall net, 'cross' is the "
        "exact quadratic cross product",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="run the linkage shard-by-shard over N blocking-closed "
        "work units (repro.sharding): only one shard's records and "
        "scores stay in memory at a time, and the decisions are "
        "identical to the in-RAM run; 0 (default) keeps the in-RAM "
        "pipeline",
    )
    parser.add_argument(
        "--group-backend", choices=available_backends(), default="default",
        help="group-matching backend for the §3.3–§3.4 slot "
        "(repro.core.backends): 'default' is the paper's common-subgraph "
        "engine, 'rgl' the two-stage CORE-refinement matcher (Robust "
        "Group Linkage), 'hausdorff' the min-max set-distance household "
        "matcher; backends produce different results by design — see the "
        "scenario matrix in EXPERIMENTS.md",
    )


def _add_series_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--series-state", metavar="DIR",
        help="series-state directory for incremental re-linkage "
        "(repro.checkpoint.series): settled pair mappings and similarity "
        "knowledge are persisted here and reused on the next run, so only "
        "the pairs a new or revised snapshot dirtied are re-linked — the "
        "output is identical to a from-scratch run",
    )
    parser.add_argument(
        "--incremental", action="store_true",
        help="require incremental mode (must be combined with "
        "--series-state; on its own --series-state already implies it)",
    )


def _linkage_config(args: argparse.Namespace, year_gap: int) -> LinkageConfig:
    """One LinkageConfig from the shared flags (plus link-only extras)."""
    return LinkageConfig(
        delta_high=args.delta_high,
        delta_low=args.delta_low,
        alpha=args.alpha,
        beta=args.beta,
        year_gap=year_gap,
        n_workers=args.workers,
        validate=args.validate,
        filtering=not args.no_filtering,
        scoring_backend=args.scoring_backend,
        group_backend=args.group_backend,
        blocking=args.blocking,
        shards=args.shards,
        checkpoint_every=getattr(args, "checkpoint_every", 1),
    )


def _mapping_path(base: str, old_year: int, new_year: int) -> Path:
    path = Path(base)
    return path.with_name(f"{path.stem}_{old_year}_{new_year}{path.suffix}")


def _run_series(args: argparse.Namespace, datasets) -> int:
    """Analyse a series (incremental when --series-state is given) and
    print per-pair links plus the evolution summary."""
    config = _linkage_config(args, datasets[1].year - datasets[0].year)
    analysis = analyse_series(
        datasets, config=config, series_state=args.series_state
    )
    for linkage in analysis.pair_linkages:
        print(
            f"{linkage.old_year}-{linkage.new_year}: "
            f"{len(linkage.record_mapping)} record links, "
            f"{len(linkage.group_mapping)} group links"
        )
        records_base = getattr(args, "records", None)
        if records_base:
            path = _mapping_path(records_base, linkage.old_year, linkage.new_year)
            model_io.write_record_mapping(linkage.record_mapping, path)
            print(f"wrote {path}")
        groups_base = getattr(args, "groups", None)
        if groups_base:
            path = _mapping_path(groups_base, linkage.old_year, linkage.new_year)
            model_io.write_group_mapping(linkage.group_mapping, path)
            print(f"wrote {path}")
    print("Group evolution patterns per pair:")
    for pair, counts in sorted(analysis.pattern_frequency_table().items()):
        ordered = ", ".join(
            f"{name}={counts.get(name, 0)}"
            for name in ("preserve_G", "move", "split", "merge", "add_G",
                         "remove_G")
        )
        print(f"  {pair[0]}-{pair[1]}: {ordered}")
    print("Preserved households per interval:",
          analysis.preserve_interval_table())
    share = analysis.largest_component_share()
    print(f"Largest connected component: {share * 100:.1f}% of households")
    if args.profile and analysis.profile is not None:
        print()
        print(analysis.profile.report())
    return 0


def _cmd_link_store(args: argparse.Namespace) -> int:
    """Out-of-core pair linkage over an on-disk shard store."""
    from .sharding import ShardStore, ShardedRecordSource, link_datasets_sharded

    store = ShardStore(args.store)
    years = store.years()
    if args.datasets:
        try:
            years = sorted(int(year) for year in args.datasets)
        except ValueError:
            print(
                "link: with --store the positional arguments are census "
                "years, not CSV paths",
                file=sys.stderr,
            )
            return 2
    if len(years) != 2:
        print(
            f"link: --store needs exactly two snapshot years, store has "
            f"{', '.join(str(year) for year in years) or 'none'} "
            f"(pass two years as positional arguments to choose)",
            file=sys.stderr,
        )
        return 2
    old_year, new_year = years
    config = _linkage_config(args, new_year - old_year)
    result = link_datasets_sharded(
        ShardedRecordSource.from_store(store, old_year),
        ShardedRecordSource.from_store(store, new_year),
        config,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    _report_link_result(args, result)
    return 0


def _report_link_result(args: argparse.Namespace, result) -> None:
    print(
        f"{result.num_record_links} record links, "
        f"{result.num_group_links} group links "
        f"({len(result.iterations)} iterations)"
    )
    if args.profile and result.profile is not None:
        print()
        print(result.profile.report())
        print()
        print("round  delta  scored  cache_hits  seconds")
        for stats in result.iterations:
            print(
                f"{stats.iteration:>5d}  {stats.delta:>5.2f}  "
                f"{stats.pairs_scored:>6d}  {stats.cache_hits:>10d}  "
                f"{stats.seconds:>7.3f}"
            )
    if args.records:
        model_io.write_record_mapping(result.record_mapping, args.records)
        print(f"wrote {args.records}")
    if args.groups:
        model_io.write_group_mapping(result.group_mapping, args.groups)
        print(f"wrote {args.groups}")


def _cmd_link(args: argparse.Namespace) -> int:
    if args.incremental and not args.series_state:
        print("link: --incremental requires --series-state", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("link: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.shards and args.series_state:
        print(
            "link: --shards applies to single-pair runs; series mode "
            "re-links pair by pair via --series-state",
            file=sys.stderr,
        )
        return 2
    if args.store:
        if args.series_state:
            print(
                "link: --store is a pair-mode input; it cannot be "
                "combined with --series-state",
                file=sys.stderr,
            )
            return 2
        return _cmd_link_store(args)
    if len(args.datasets) < 2:
        print("link: need at least two census CSVs", file=sys.stderr)
        return 2
    datasets = sorted(
        (model_io.read_dataset(path) for path in args.datasets),
        key=lambda dataset: dataset.year,
    )
    if len(datasets) > 2 or args.series_state:
        if args.checkpoint_dir:
            print(
                "link: --checkpoint-dir applies to single-pair runs; "
                "series runs persist state via --series-state",
                file=sys.stderr,
            )
            return 2
        return _run_series(args, datasets)
    old_dataset, new_dataset = datasets
    config = _linkage_config(args, new_dataset.year - old_dataset.year)
    result = link_datasets(
        old_dataset,
        new_dataset,
        config,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    _report_link_result(args, result)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    predicted = model_io.read_record_mapping(args.predicted)
    reference = model_io.read_record_mapping(args.reference)
    print(evaluate_mapping(predicted, reference))
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    if args.incremental and not args.series_state:
        print("evolve: --incremental requires --series-state", file=sys.stderr)
        return 2
    datasets = sorted(
        (model_io.read_dataset(path) for path in args.datasets),
        key=lambda dataset: dataset.year,
    )
    return _run_series(args, datasets)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Publish into and serve from a persistent evolution-graph store."""
    from .service import EvolutionQueryService, EvolutionStore, StoreMissing
    from .service.http import serve as serve_http

    if args.incremental and not args.series_state:
        print("serve: --incremental requires --series-state", file=sys.stderr)
        return 2
    store = EvolutionStore(args.store)
    if args.refresh:
        if len(args.refresh) < 2:
            print("serve: --refresh needs at least two census CSVs",
                  file=sys.stderr)
            return 2
        datasets = sorted(
            (model_io.read_dataset(path) for path in args.refresh),
            key=lambda dataset: dataset.year,
        )
        config = _linkage_config(args, datasets[1].year - datasets[0].year)
        analysis = analyse_series(
            datasets, config=config, series_state=args.series_state
        )
        report = store.publish(analysis)
        verb = "published (no byte changed)" if report.is_noop else "published"
        print(
            f"{verb} graph {report.graph_version}: "
            f"{len(report.segments_written)} segment(s) written, "
            f"{len(report.segments_unchanged)} unchanged"
        )
        swept = store.sweep()
        if swept:
            print(f"swept {len(swept)} orphan segment file(s)")
    try:
        version = store.graph_version()
    except Exception as error:  # corrupt store: report, don't trace
        print(f"serve: store unusable: {error}", file=sys.stderr)
        return 1
    if version is None:
        print(
            f"serve: {args.store} holds no published graph — pass "
            f"--refresh census_*.csv to build one",
            file=sys.stderr,
        )
        return 2
    if args.refresh_only:
        return 0
    try:
        service = EvolutionQueryService(
            store,
            cache_size=args.cache_size,
            cache_enabled=not args.no_cache,
        )
    except StoreMissing as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    if args.uvicorn:
        from .service.asgi import run_uvicorn

        run_uvicorn(service, host=args.host, port=args.port)
    else:
        serve_http(service, host=args.host, port=args.port)
    return 0


def _cmd_checkpoints(args: argparse.Namespace) -> int:
    from .checkpoint import CheckpointStore

    store = CheckpointStore(args.dir)
    rows = store.describe()
    if not rows:
        print(f"no checkpoints in {args.dir}")
        return 0
    header = (
        f"{'file':<26} {'status':<8} {'phase':<6} {'round':>5} "
        f"{'shards':>6} {'delta':>5} {'done':>4} {'records':>7} "
        f"{'groups':>6} {'cache':>5}  config/data"
    )
    print(header)
    for row in rows:
        if row["status"] != "ok":
            print(f"{row['file']:<26} {row['status']}")
            continue
        delta = "-" if row["delta"] is None else f"{row['delta']:.2f}"
        print(
            f"{row['file']:<26} {row['status']:<8} {row['phase']:<6} "
            f"{row['round']:>5d} {row['shards']:>6} {delta:>5} "
            f"{'yes' if row['rounds_finished'] else 'no':>4} "
            f"{row['record_links']:>7d} {row['group_links']:>6d} "
            f"{'yes' if row['has_cache'] else 'no':>5}  "
            f"{row['config_fingerprint']}/{row['data_fingerprint']}"
        )
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    from .validation import golden as golden_mod

    if args.record == args.check:
        print("golden: choose exactly one of --record / --check",
              file=sys.stderr)
        return 2
    try:
        specs = golden_mod.specs_by_name(args.names)
    except KeyError as error:
        print(f"golden: {error}", file=sys.stderr)
        return 2
    failures = 0
    for spec in specs:
        if args.record:
            path = golden_mod.record_golden(spec, args.dir)
            print(f"recorded {path}")
        else:
            check = golden_mod.check_golden(spec, args.dir)
            print(check.report())
            if not check.ok:
                failures += 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Temporal group linkage and evolution analysis "
        "(EDBT 2017 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic census series with ground truth"
    )
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--households", type=int, default=300)
    generate.add_argument("--snapshots", type=int, default=2)
    generate.add_argument("--start-year", type=int, default=1871)
    generate.add_argument(
        "--regions", type=int, default=0, metavar="N",
        help="generate a country-scale series of N regions "
        "(repro.datagen.country) instead of a single-town series; "
        "record/household ids are namespaced '<region>::' and each "
        "region evolves under an independent RNG stream",
    )
    generate.add_argument(
        "--households-per-region", type=int, default=300, metavar="N",
        help="initial households per region in --regions mode "
        "(default 300)",
    )
    generate.add_argument(
        "--store", metavar="DIR",
        help="additionally persist the snapshots as an on-disk columnar "
        "shard store (repro.sharding.store) for out-of-core linkage "
        "via link --store",
    )
    generate.set_defaults(func=_cmd_generate)

    link = commands.add_parser(
        "link", help="link census CSVs: a pair, or a whole rolling series "
        "with --series-state incremental re-linkage"
    )
    link.add_argument(
        "datasets", nargs="*", metavar="census.csv",
        help="census CSVs (two for a pair run; more, or --series-state, "
        "switch to series mode); with --store, two census *years* "
        "selecting the store snapshots instead",
    )
    link.add_argument(
        "--store", metavar="DIR",
        help="link straight from an on-disk columnar shard store "
        "(written by generate --store) instead of CSVs: records stream "
        "shard by shard and the full snapshots are never resident "
        "(pair mode only; combine with --shards and --blocking region)",
    )
    link.add_argument(
        "--records",
        help="output CSV for the record mapping (series mode writes one "
        "file per pair, years appended to the name)",
    )
    link.add_argument(
        "--groups",
        help="output CSV for the group mapping (series mode writes one "
        "file per pair, years appended to the name)",
    )
    _add_linkage_flags(link)
    _add_series_flags(link)
    link.add_argument(
        "--checkpoint-dir",
        help="persist a resumable run-state snapshot here after every "
        "checkpointed δ round (with --shards, also after each shard merge "
        "of it) and after the final pass (pair runs only)",
    )
    link.add_argument(
        "--resume", action="store_true",
        help="continue from the newest loadable checkpoint in "
        "--checkpoint-dir; the resumed result is byte-identical to an "
        "uninterrupted run",
    )
    link.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint every N-th round (default 1; stopping rounds "
        "and the final pass are always checkpointed)",
    )
    link.set_defaults(func=_cmd_link)

    checkpoints = commands.add_parser(
        "checkpoints",
        help="inspect the snapshots in a checkpoint directory",
    )
    checkpoints.add_argument(
        "dir", help="checkpoint directory written by link --checkpoint-dir"
    )
    checkpoints.set_defaults(func=_cmd_checkpoints)

    evaluate = commands.add_parser(
        "evaluate", help="score a predicted mapping against a reference"
    )
    evaluate.add_argument("predicted", help="predicted record-mapping CSV")
    evaluate.add_argument("reference", help="reference record-mapping CSV")
    evaluate.set_defaults(func=_cmd_evaluate)

    evolve = commands.add_parser(
        "evolve", help="link a whole series and report evolution patterns"
    )
    evolve.add_argument("datasets", nargs="+", help="census CSVs (>=2 years)")
    _add_linkage_flags(evolve)
    _add_series_flags(evolve)
    evolve.set_defaults(func=_cmd_evolve)

    golden = commands.add_parser(
        "golden",
        help="record or check the golden-run regression fixtures",
    )
    golden.add_argument(
        "--record", action="store_true",
        help="re-run every golden spec and overwrite its fixture",
    )
    golden.add_argument(
        "--check", action="store_true",
        help="replay every golden spec and diff against its fixture",
    )
    golden.add_argument(
        "--dir", default="tests/goldens",
        help="fixture directory (default: tests/goldens)",
    )
    golden.add_argument(
        "--names", nargs="*",
        help="subset of golden spec names (default: all)",
    )
    golden.set_defaults(func=_cmd_golden)

    serve = commands.add_parser(
        "serve",
        help="serve evolution-graph queries over HTTP from a "
        "persistent store (docs/SERVICE.md)",
    )
    serve.add_argument(
        "store", help="EvolutionStore directory (created on first --refresh)"
    )
    serve.add_argument(
        "--refresh", nargs="+", metavar="CSV",
        help="re-run the series analysis over these census CSVs and "
        "publish the result into the store before serving",
    )
    serve.add_argument(
        "--refresh-only", action="store_true",
        help="publish (with --refresh) and exit without serving",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 picks a free one; default: 8080)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the (graph_version, query) LRU result cache",
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="LRU result-cache capacity in entries (default: 1024)",
    )
    serve.add_argument(
        "--uvicorn", action="store_true",
        help="serve through uvicorn/ASGI instead of the stdlib "
        "asyncio server (requires the repro[service] extra)",
    )
    _add_linkage_flags(serve)
    _add_series_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except model_io.IngestError as error:
        print(f"{args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
