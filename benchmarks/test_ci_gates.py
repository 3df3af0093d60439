"""Gates on timings and memory: CI-only, outside tier-1.

Shared CI runners make wall clock and resident memory too noisy for the
tier-1 suite, so these three checks run in their own CI job (numpy
installed):

* **kernel floor** — the batch kernel (:mod:`repro.core.kernel`), handed
  row arrays as the pipeline's pair table hands them, beats the per-pair
  path per evaluated pair by :data:`KERNEL_MIN_SPEEDUP`, with
  bit-identical outcomes;
* **service under load** — concurrent keep-alive clients against the
  asyncio query server: every response 200, ``/graph`` echoes the
  published version, p50/p99 latency and the cache hit rate in bounds;
* **sharded RSS** — a sharded country run peaks below the in-RAM run of
  the same country, with identical decisions.

Decisions and effort counters are pinned exactly in ``tests/``;
end-to-end speed is measured by ``perfbench/``.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_ci_gates.py -q
"""

import asyncio
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchlib import BENCH_SEED

from repro.checkpoint import decision_ledger_hash
from repro.core.config import LinkageConfig
from repro.core.filtering import KIND_CODES
from repro.core.kernel import kernel_available
from repro.core.pairtable import PairTable
from repro.core.pipeline import link_datasets
from repro.datagen.country import CountryConfig, generate_country
from repro.datagen.generator import (
    GeneratorConfig,
    generate_pair,
    generate_series,
)
from repro.evolution.analysis import analyse_series
from repro.service import EvolutionQueryService, EvolutionStore
from repro.service.http import start_service_server
from repro.sharding import (
    ShardStore,
    ShardedRecordSource,
    link_datasets_sharded,
)

#: Kernel floor: µs per pair of the per-pair path over the batch kernel,
#: on the blocked pairs of the 50-household pair at δ_high.
KERNEL_HOUSEHOLDS = 50
KERNEL_MIN_SPEEDUP = 10.0

#: Service load: 100 clients × 20 requests over 48 real targets of the
#: graph of a 4-snapshot, 80-household series.  The latency ceilings are
#: ~10x the medians recorded when they were set: loose enough for shared
#: runners, tight enough to catch a handler gone quadratic.
SERVICE_SNAPSHOTS = 4
SERVICE_HOUSEHOLDS = 80
SERVICE_TARGETS = 48
SERVICE_CLIENTS = 100
SERVICE_REQUESTS = 20
SERVICE_GRAPH_VERSION = "8109610caf6c63c8"
SERVICE_P50_MS = 37.9
SERVICE_P99_MS = 226.1
SERVICE_MIN_HIT_RATE = 0.9

#: Sharded RSS: 600 households in 4 regions, linked in 4 shards.
COUNTRY_HOUSEHOLDS = 600
COUNTRY_REGIONS = 4
COUNTRY_SHARDS = 4
COUNTRY_DECISION_HASH = (
    "d83e24a28276193a60d04e9a072ef89b94400ab65240dab6b53a0be111db81ea"
)


# -- kernel floor ------------------------------------------------------------


@pytest.mark.skipif(not kernel_available(), reason="numpy unavailable")
def test_kernel_speedup_floor():
    old, new = generate_pair(
        seed=BENCH_SEED, initial_households=KERNEL_HOUSEHOLDS
    ).datasets
    old_records = list(old.iter_records())
    new_records = list(new.iter_records())
    config = LinkageConfig(n_workers=1)
    sim_func = config.build_sim_func()
    engine = config.build_candidate_filter(sim_func)
    kernel = config.build_scoring_kernel(
        sim_func, old_records, new_records, candidate_filter=engine
    )
    # The blocked pairs interned and their rows gathered once, outside
    # the timed region, as the pipeline does at a shard's first visit.
    table = PairTable(
        old.record_ids,
        new.record_ids,
        config.build_blocker().candidate_pairs(old_records, new_records),
    )
    every_pair = table.select(old.record_ids, new.record_ids)
    old_rows, new_rows = table.rows(every_pair)
    pairs = table.pairs(every_pair)
    old_index = {r.record_id: r for r in old_records}
    new_index = {r.record_id: r for r in new_records}
    delta = config.delta_high

    # Interleaved best-of, so a transient slowdown hits both sides; the
    # kernel side is ~10x cheaper and gets three timings per round.
    python_best = vectorized_best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference = [
            engine.evaluate(old_index[old_id], new_index[new_id], delta)
            for old_id, new_id in pairs
        ]
        python_best = min(python_best, time.perf_counter() - start)
        for _ in range(3):
            start = time.perf_counter()
            values, kinds = kernel.evaluate_chunk(old_rows, new_rows, delta)
            vectorized_best = min(
                vectorized_best, time.perf_counter() - start
            )
        assert values.tolist() == [outcome.value for outcome in reference]
        assert kinds.tolist() == [
            KIND_CODES[outcome.kind] for outcome in reference
        ]
    speedup = python_best / vectorized_best
    assert speedup >= KERNEL_MIN_SPEEDUP, (
        f"kernel {vectorized_best / len(pairs) * 1e6:.2f} µs/pair vs "
        f"per-pair {python_best / len(pairs) * 1e6:.2f} µs/pair over "
        f"{len(pairs)} pairs: {speedup:.1f}x, floor {KERNEL_MIN_SPEEDUP}x"
    )


# -- service under load ------------------------------------------------------


def _target_pool(graph):
    """A deterministic pool of real query targets over the served graph."""
    rng = random.Random(BENCH_SEED)
    targets = [
        "/graph",
        "/patterns/frequencies",
        "/patterns/sequences?length=2",
        "/patterns/sequences?length=3",
        "/chains/preserve",
        "/chains/preserve?min_length=2",
        "/chains/preserve?limit=10",
    ]
    groups = sorted(v for v in graph.vertices if v[0] == "group")
    records = sorted(v for v in graph.vertices if v[0] == "record")
    for _, year, household_id in rng.sample(groups, min(len(groups), 20)):
        targets.append(f"/households/{year}/{household_id}/lineage")
        targets.append(
            f"/households/{year}/{household_id}/neighborhood?radius=2"
        )
    for _, year, record_id in rng.sample(records, min(len(records), 20)):
        targets.append(f"/persons/{year}/{record_id}/timeline")
    rng.shuffle(targets)
    return targets[:SERVICE_TARGETS]


async def _read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


async def _client(index, address, targets, latencies, statuses):
    rng = random.Random(BENCH_SEED + index)
    reader, writer = await asyncio.open_connection(*address)
    try:
        for _ in range(SERVICE_REQUESTS):
            target = rng.choice(targets)
            start = time.perf_counter()
            writer.write(
                f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
            )
            await writer.drain()
            status, _ = await _read_response(reader)
            latencies.append(time.perf_counter() - start)
            statuses.append(status)
    finally:
        writer.close()


async def _serve_under_load(service, targets):
    server = await start_service_server(service, port=0)
    address = server.sockets[0].getsockname()[:2]
    latencies, statuses = [], []
    await asyncio.gather(*(
        _client(i, address, targets, latencies, statuses)
        for i in range(SERVICE_CLIENTS)
    ))
    # One last connection reads the service's own view of the run.
    reader, writer = await asyncio.open_connection(*address)
    writer.write(b"GET /graph HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n")
    await writer.drain()
    _, graph_body = await _read_response(reader)
    _, stats_body = await _read_response(reader)
    writer.close()
    server.close()
    await server.wait_closed()
    return latencies, statuses, json.loads(graph_body), json.loads(stats_body)


def test_service_under_load(tmp_path):
    datasets = generate_series(GeneratorConfig(
        seed=BENCH_SEED,
        num_snapshots=SERVICE_SNAPSHOTS,
        initial_households=SERVICE_HOUSEHOLDS,
    )).datasets
    store = EvolutionStore(tmp_path)
    store.publish(analyse_series(datasets, config=LinkageConfig()))
    service = EvolutionQueryService(store)
    latencies, statuses, graph, stats = asyncio.run(
        _serve_under_load(service, _target_pool(service.graph))
    )

    assert len(statuses) == SERVICE_CLIENTS * SERVICE_REQUESTS
    assert set(statuses) == {200}
    assert graph["graph_version"] == service.graph_version
    assert service.graph_version == SERVICE_GRAPH_VERSION
    ordered = sorted(latencies)
    p50_ms = 1000 * statistics.median(ordered)
    p99_ms = 1000 * ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
    hits, misses = stats["cache_hits"], stats["cache_misses"]
    assert p50_ms <= SERVICE_P50_MS
    assert p99_ms <= SERVICE_P99_MS
    assert hits / (hits + misses) >= SERVICE_MIN_HIT_RATE


# -- sharded RSS -------------------------------------------------------------


def _child(step, store_dir):
    """Subprocess entry point: generate the country into ``store_dir``,
    or link it ``inram`` or ``sharded`` and print the decision hash and
    this process's peak RSS as JSON."""
    store = ShardStore(store_dir)
    if step == "generate":
        store.write_datasets(generate_country(CountryConfig(
            seed=BENCH_SEED,
            regions=COUNTRY_REGIONS,
            households_per_region=COUNTRY_HOUSEHOLDS // COUNTRY_REGIONS,
        )).datasets)
        return
    old_year, new_year = store.years()[:2]
    if step == "inram":
        result = link_datasets(
            store.read_dataset(old_year),
            store.read_dataset(new_year),
            LinkageConfig(blocking="region"),
        )
    else:
        result = link_datasets_sharded(
            ShardedRecordSource.from_store(store, old_year),
            ShardedRecordSource.from_store(store, new_year),
            LinkageConfig(blocking="region", shards=COUNTRY_SHARDS),
        )
    print(json.dumps({
        "decision_hash": decision_ledger_hash(result),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }))


def _run_child(step, store_dir):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.run(
        [sys.executable, __file__, step, str(store_dir)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert process.returncode == 0, process.stderr
    lines = process.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def test_sharded_peak_rss_below_in_ram(tmp_path):
    # Each step in its own process, so ru_maxrss (monotone within a
    # process) measures exactly one run.
    _run_child("generate", tmp_path)
    inram = _run_child("inram", tmp_path)
    sharded = _run_child("sharded", tmp_path)
    assert sharded["decision_hash"] == inram["decision_hash"]
    assert inram["decision_hash"] == COUNTRY_DECISION_HASH
    assert sharded["peak_rss_mb"] < inram["peak_rss_mb"], (
        f"sharded peak {sharded['peak_rss_mb']:.0f} MB not below in-RAM "
        f"{inram['peak_rss_mb']:.0f} MB"
    )


if __name__ == "__main__":
    _child(*sys.argv[1:])
