"""One batch operation in a fresh process.

    python perfbench/child.py WORKLOAD INPUT_DIR RUN_DIR OUT_JSON [--trace]

The parent (``perfbench/batch.py``) notes the time just before it spawns
this process.  Everything up to ``t_setup`` is set-up: interpreter
start, imports and ingest through the program's own readers.  The timed
operation runs from ``t_ready`` to ``t_end``, between two runs of the
host-speed probe (:mod:`hostspeed`).  The reload timing, the output
checks and the result file come after it.  Timestamps are
``time.perf_counter()``, a system-wide monotonic clock on Linux, so the
parent can subtract its own readings from them.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import hostspeed
from stats import median

SRC = Path(__file__).resolve().parent.parent / "src"
RELOADS = 7


def country_config():
    """The ``country`` workload's configuration: region blocking, 4 shards."""
    from repro.core.config import LinkageConfig

    return LinkageConfig(blocking="region", shards=4)


def peak_rss_kb(pid="self") -> int:
    """``VmHWM`` of a process: the peak RSS of the memory map ``exec``
    gave it, so it does not include the spawning process's peak (as
    ``ru_maxrss`` does, which Linux carries across ``exec``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _reload_s(action) -> float:
    """Median wall clock of ``RELOADS`` repeats of ``action``, in s."""
    times = []
    for _ in range(RELOADS):
        start = time.perf_counter()
        action()
        times.append(time.perf_counter() - start)
    return median(times)


def main(argv) -> int:
    workload, input_dir, run_dir, out_path = argv[:4]
    traced = "--trace" in argv[4:]
    input_dir, run_dir = Path(input_dir), Path(run_dir)
    sys.path.insert(0, str(SRC))
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer(run=run_dir.name)
        tracing.install_batch(tracer)
        setup_span = tracer.begin("setup")

    import repro
    import repro.model.io as model_io
    from repro.core.config import LinkageConfig

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    manifest = json.loads((input_dir / "inputs.json").read_text())
    datasets = [model_io.read_dataset(input_dir / name)
                for name in manifest["csv"]]
    if workload == "link":
        import repro.core.pipeline as pipeline
    elif workload == "evolve":
        import repro.evolution.analysis as analysis_mod
        from repro.service.store import EvolutionStore
    elif workload == "country":
        import repro.sharding.pipeline as sharded
        from repro.sharding.store import ShardStore

        store = ShardStore(run_dir / "shards")
        store.write_datasets(datasets)
        years = [dataset.year for dataset in datasets]
        del datasets
    else:
        raise SystemExit(f"unknown batch workload {workload!r}")
    if tracer is not None:
        tracer.end(setup_span)
    t_setup = time.perf_counter()
    probes = [hostspeed.probe_s()]
    if tracer is not None:
        root = tracer.begin("run")

    t_ready = time.perf_counter()
    if workload == "link":
        config = LinkageConfig()
        outcome = pipeline.link_datasets(datasets[0], datasets[1], config)
    elif workload == "evolve":
        config = LinkageConfig()
        outcome = analysis_mod.analyse_series(
            datasets, config=config, series_state=run_dir / "series_state"
        )
        report = EvolutionStore(run_dir / "evolution_store").publish(outcome)
    else:
        outcome = sharded.link_datasets_sharded(
            sharded.ShardedRecordSource.from_store(store, years[0]),
            sharded.ShardedRecordSource.from_store(store, years[1]),
            country_config(),
        )
    t_end = time.perf_counter()
    peak_kb = peak_rss_kb()
    if tracer is not None:
        tracer.end(root)
        tracer.uninstall()
    probes.append(hostspeed.probe_s())

    # -- outside the timed region --------------------------------------------
    if workload == "link":
        reload_s = _reload_s(lambda: [model_io.read_dataset(input_dir / name)
                                      for name in manifest["csv"]])
    elif workload == "evolve":
        published = EvolutionStore(run_dir / "evolution_store")
        reload_s = _reload_s(published.load_graph)
    else:
        reload_s = _reload_s(lambda: [store.read_dataset(year)
                                      for year in years])
    probes.append(hostspeed.probe_s())

    from repro.checkpoint import analysis_ledger_hash, decision_ledger_hash

    result = {
        "t_setup": t_setup,
        "t_ready": t_ready,
        "t_end": t_end,
        "reload_s": reload_s,
        "probes": probes,
        "peak_rss_kb": peak_kb,
        "counters": dict(outcome.profile.counters),
    }
    if workload == "link":
        from repro.validation.invariants import validate_result

        result.update(
            decision_ledger_hash=decision_ledger_hash(outcome),
            validated=validate_result(
                outcome, datasets[0], datasets[1], config
            ).ok,
        )
    elif workload == "evolve":
        result.update(
            analysis_ledger_hash=analysis_ledger_hash(outcome),
            graph_version=report.graph_version,
            segments_written=len(report.segments_written),
        )
    else:
        result["decision_ledger_hash"] = decision_ledger_hash(outcome)
    if tracer is not None:
        result["trace"] = tracer.dump()
    temporary = Path(out_path + ".tmp")
    temporary.write_text(json.dumps(result))
    os.replace(temporary, out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
