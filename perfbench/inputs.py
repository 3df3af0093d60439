"""Seeded workload inputs and their references, built once per
``(workload, scale, seed)`` and cached under ``.perfbench/cache``.

Everything here is harness work: it runs before any timed region and
its cost is never reported.  The program under test only ever sees the
files this module writes.

**What the seed varies.**  Each workload links one *fixed* synthetic
population (generator seed :data:`POPULATION_SEED`).  ``--seed`` draws a
bijection over the record ids and one over the household ids of every
snapshot, and shuffles the row order of every CSV.  The same strings are
reassigned to other people, so ties break differently and ``serve``
gets a different hot set, while the amount of work stays the same.
``evolve`` revises the same person on every seed (the middle record
before relabelling).
Drawing the population itself from the seed would make ``wall_s`` of
``link`` range 1.5-3.3 s between generator seeds (README.md,
"Why the population is fixed").
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import random
import shutil
from pathlib import Path
from typing import Dict, List, Sequence

from repro import LinkageConfig, link_datasets
from repro.checkpoint import analysis_ledger_hash, decision_ledger_hash
from repro.datagen import generate_pair, revise_middle_record
from repro.datagen.country import generate_country
from repro.datagen.generator import GeneratorConfig, generate_series
from repro.evolution.analysis import analyse_series
from repro.model.dataset import CensusDataset
from repro.model.io import RECORD_FIELDS
from repro.service import EvolutionQueryService, EvolutionStore
from repro.service.store import graph_version_of
from repro.sharding.store import ShardStore

from child import country_config

#: Generator seed of every workload's population (the repository's
#: benchmark seed, ``benchmarks/benchlib.py``).
POPULATION_SEED = 20170321

#: Input sizes.  ``default`` is what the benchmark measures; ``tiny``
#: is for the benchmark's own tests.
SCALES: Dict[str, Dict[str, int]] = {
    "default": {"link_households": 200, "series_households": 100,
                "snapshots": 4, "regions": 4, "region_households": 100},
    "tiny": {"link_households": 12, "series_households": 10,
             "snapshots": 3, "regions": 2, "region_households": 6},
}

# -- seeded relabelling --------------------------------------------------------


def _permuted(ids: Sequence[str], rng: random.Random) -> Dict[str, str]:
    """A seeded bijection of ``ids`` onto itself that keeps the
    ``region::`` namespace of country ids (shards are cut by it)."""
    groups: Dict[str, List[str]] = {}
    for identifier in sorted(ids):
        prefix = identifier.split("::", 1)[0] if "::" in identifier else ""
        groups.setdefault(prefix, []).append(identifier)
    mapping: Dict[str, str] = {}
    for prefix in sorted(groups):
        members = groups[prefix]
        targets = list(members)
        rng.shuffle(targets)
        mapping.update(zip(members, targets))
    return mapping


def relabel(dataset: CensusDataset, rng: random.Random) -> CensusDataset:
    """Reassign the dataset's record and household ids among themselves."""
    records = _permuted(dataset.record_ids, rng)
    households = _permuted(dataset.household_ids, rng)
    return CensusDataset.from_records(
        dataset.year,
        [
            dataclasses.replace(
                record,
                record_id=records[record.record_id],
                household_id=households[record.household_id],
            )
            for record in dataset.iter_records()
        ],
    )


def write_shuffled_csv(
    dataset: CensusDataset, path: Path, rng: random.Random
) -> None:
    """The CSV format of :func:`repro.model.io.write_dataset`, rows in a
    seeded order."""
    rows = [
        [dataset.year]
        + ["" if getattr(record, name) is None else str(getattr(record, name))
           for name in RECORD_FIELDS]
        for record in dataset.iter_records()
    ]
    rng.shuffle(rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("year",) + RECORD_FIELDS)
        writer.writerows(rows)


def _seeded_datasets(datasets, seed: int) -> List[CensusDataset]:
    rng = random.Random(f"perfbench-relabel-{seed}")
    return [relabel(dataset, rng) for dataset in datasets]


def _write_csvs(datasets, directory: Path, seed: int, stem: str) -> List[str]:
    rng = random.Random(f"perfbench-rows-{seed}")
    names = []
    for dataset in datasets:
        name = f"{stem}_{dataset.year}.csv"
        write_shuffled_csv(dataset, directory / name, rng)
        names.append(name)
    return names


# -- per-workload builders -----------------------------------------------------


def _build_link(directory: Path, seed: int, scale: Dict[str, int]) -> dict:
    series = generate_pair(
        seed=POPULATION_SEED, initial_households=scale["link_households"]
    )
    old, new = _seeded_datasets(series.datasets, seed)
    files = _write_csvs([old, new], directory, seed, "census")
    reference = link_datasets(
        old, new, LinkageConfig(scoring_backend="python")
    )
    return {
        "csv": files,
        "records": len(old) + len(new),
        "decision_ledger_hash": decision_ledger_hash(reference),
    }


def _series(seed: int, scale: Dict[str, int]):
    """The series unrevised and revised, both relabelled by ``seed``.  The
    revision lands before the relabelling, so every seed revises the same
    person and the arrival re-links the same amount of work."""
    series = generate_series(GeneratorConfig(
        seed=POPULATION_SEED,
        initial_households=scale["series_households"],
        num_snapshots=scale["snapshots"],
    ))
    revised = list(series.datasets)
    middle = len(revised) // 2
    revised[middle] = revise_middle_record(revised[middle])
    return (_seeded_datasets(series.datasets, seed),
            _seeded_datasets(revised, seed))


def _build_evolve(directory: Path, seed: int, scale: Dict[str, int]) -> dict:
    unrevised, revised = _series(seed, scale)
    files = _write_csvs(revised, directory, seed, "census")
    config = LinkageConfig()
    # The warm state the arrival lands on: series state and published
    # graph of the unrevised series, copied pristine into every run.
    warm = analyse_series(
        unrevised, config=config, series_state=directory / "series_state"
    )
    EvolutionStore(directory / "evolution_store").publish(warm)
    scratch = analyse_series(revised, config=config)
    return {
        "csv": files,
        "records": sum(len(dataset) for dataset in revised),
        "analysis_ledger_hash": analysis_ledger_hash(scratch),
        "graph_version": graph_version_of(scratch.graph),
    }


def _build_country(directory: Path, seed: int, scale: Dict[str, int]) -> dict:
    country = generate_country(
        seed=POPULATION_SEED,
        regions=scale["regions"],
        households_per_region=scale["region_households"],
    )
    old, new = _seeded_datasets(country.datasets, seed)
    files = _write_csvs([old, new], directory, seed, "country")
    # Reference: the in-RAM pipeline (IterativeGroupLinkage, shards=0)
    # over the same store contents.
    store = ShardStore(directory / "reference_store")
    store.write_datasets([old, new])
    reference = link_datasets(
        store.read_dataset(old.year),
        store.read_dataset(new.year),
        dataclasses.replace(country_config(), shards=0),
    )
    shutil.rmtree(directory / "reference_store")
    return {
        "csv": files,
        "records": len(old) + len(new),
        "decision_ledger_hash": decision_ledger_hash(reference),
    }


def serve_targets(graph) -> List[str]:
    """Every distinct entity target of the graph plus the aggregates."""
    targets = []
    for kind, year, identifier in sorted(graph.vertices):
        if kind == "group":
            targets.append(f"/households/{year}/{identifier}/lineage")
            targets.append(f"/households/{year}/{identifier}/neighborhood")
        else:
            targets.append(f"/persons/{year}/{identifier}/timeline")
    targets += ["/graph", "/chains/preserve", "/patterns/frequencies",
                "/patterns/sequences"]
    return targets


def _build_serve(directory: Path, seed: int, scale: Dict[str, int]) -> dict:
    _, revised = _series(seed, scale)
    served = analyse_series(revised, config=LinkageConfig())
    EvolutionStore(directory / "store_served").publish(served)
    # A second graph version for the refresh phase: the same decisions
    # over the series without its last snapshot.
    mappings = {
        (pair.old_year, pair.new_year): (pair.record_mapping,
                                         pair.group_mapping)
        for pair in served.pair_linkages
    }
    shorter = analyse_series(
        revised[:-1],
        pair_linker=lambda old, new: mappings[(old.year, new.year)],
    )
    EvolutionStore(directory / "store_other").publish(shorter)
    oracle = EvolutionQueryService(served.graph, cache_enabled=False)
    bodies = {}
    for target in serve_targets(served.graph):
        status, body = oracle.handle_request("GET", target)
        if status != 200:
            raise RuntimeError(f"reference query {target} answered {status}")
        bodies[target] = body.decode("utf-8")
    (directory / "bodies.json").write_text(
        json.dumps(bodies, sort_keys=True), encoding="utf-8"
    )
    return {
        "graph_version": graph_version_of(served.graph),
        "other_version": graph_version_of(shorter.graph),
        "vertices": len(served.graph.vertices),
        "targets": len(bodies),
    }


BUILDERS = {
    "link": _build_link,
    "evolve": _build_evolve,
    "country": _build_country,
    "serve": _build_serve,
}


def prepare(root: Path, workload: str, seed: int, scale: str) -> Path:
    """Build (or reuse) the cached inputs; return their directory.

    ``inputs.json`` is written last, so a directory without it is a
    torn build and is rebuilt from scratch.
    """
    directory = root / "cache" / f"{workload}-{scale}-{seed}"
    if (directory / "inputs.json").exists():
        return directory
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    manifest = BUILDERS[workload](directory, seed, SCALES[scale])
    manifest.update({"workload": workload, "seed": seed, "scale": scale})
    temporary = directory / "inputs.json.tmp"
    temporary.write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
    os.replace(temporary, directory / "inputs.json")
    return directory


def load_manifest(directory: Path) -> dict:
    return json.loads((directory / "inputs.json").read_text(encoding="utf-8"))
