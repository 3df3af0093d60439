"""The benchmark's own tests: tiny-scale runs of every workload, a
tampered reference, the span-tree arithmetic, the processes a run
leaves behind and the exit status of a checkout without the program.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("link", "evolve", "country", "serve")


def bench(*arguments, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *arguments],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def tiny(workload: str, seed: int, trace: int = 0) -> dict:
    return result_of(bench("--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace),
                           "--scale", "tiny"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = tiny(workload, seed=1)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert [(name, value["unit"]) for name, value
            in result["metrics"].items()] == run.END_TO_END
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload):
    result = tiny(workload, seed=2, trace=1)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert [(name, value["unit"]) for name, value
            in metrics.items()] == layers.PER_LAYER
    assert abs(metrics["trace.unaccounted_s"]["value"]) < 1e-6
    assert metrics["trace.spans"]["value"] > 0


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    serve_why = next(w["why"] for w in spec["workloads"]
                     if w["name"] == "serve")
    assert f"open loop at {serve.OPEN_LOOP_RATE:.0f} req/s" in serve_why


def test_country_reference_runs_the_in_ram_pipeline(tmp_path, monkeypatch):
    """The ``country`` reference goes through ``IterativeGroupLinkage``:
    with the sharded driver broken it still builds, and it agrees with
    the workload's sharded run."""
    from repro.core import pipeline
    from repro.sharding import pipeline as sharded

    unbroken = sharded.link_datasets_sharded
    in_ram_links = []
    original_link = pipeline.IterativeGroupLinkage.link

    def counting_link(self, *args, **kwargs):
        in_ram_links.append(self.config.shards)
        return original_link(self, *args, **kwargs)

    def broken(*args, **kwargs):
        raise AssertionError("the reference must not use the sharded driver")

    monkeypatch.setattr(pipeline.IterativeGroupLinkage, "link", counting_link)
    monkeypatch.setattr(sharded, "link_datasets_sharded", broken)
    manifest = inputs._build_country(tmp_path, 5, inputs.SCALES["tiny"])
    assert in_ram_links == [0]

    monkeypatch.setattr(sharded, "link_datasets_sharded", unbroken)
    from repro.checkpoint import decision_ledger_hash
    from repro.model.io import read_dataset
    from repro.sharding.store import ShardStore

    store = ShardStore(tmp_path / "shards")
    store.write_datasets([read_dataset(tmp_path / name)
                          for name in manifest["csv"]])
    years = store.years()
    outcome = sharded.link_datasets_sharded(
        sharded.ShardedRecordSource.from_store(store, years[0]),
        sharded.ShardedRecordSource.from_store(store, years[1]),
        child.country_config(),
    )
    assert in_ram_links == [0]
    assert decision_ledger_hash(outcome) == manifest["decision_ledger_hash"]


def test_peak_rss_is_the_spawned_programs_own():
    """A process spawned by a large one reports its own peak, not the
    spawner's (``ru_maxrss`` would report at least the spawner's)."""
    ballast = b"x" * (128 << 20)
    completed = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import child; "
         "print(child.peak_rss_kb())", str(BENCH)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert len(ballast) == 128 << 20
    assert int(completed.stdout) < 80 << 10


@pytest.mark.parametrize("workload", ("link", "evolve", "country", "serve"))
def test_tampered_reference_makes_the_run_fail(workload):
    seed = 9000 + WORKLOADS.index(workload)
    directory = inputs.prepare(ROOT / ".perfbench", workload, seed, "tiny")
    manifest_path = directory / "inputs.json"
    pristine = manifest_path.read_text()
    bodies_path = directory / "bodies.json"
    pristine_bodies = bodies_path.read_text() if bodies_path.exists() else None
    try:
        manifest = json.loads(pristine)
        if workload == "serve":
            bodies = json.loads(pristine_bodies)
            target = sorted(bodies)[0]
            bodies[target] = bodies[target].replace("{", "{ ", 1)
            bodies_path.write_text(json.dumps(bodies))
        else:
            key = ("analysis_ledger_hash" if workload == "evolve"
                   else "decision_ledger_hash")
            manifest[key] = "0" * 64
            manifest_path.write_text(json.dumps(manifest))
        result = tiny(workload, seed)
    finally:
        manifest_path.write_text(pristine)
        if pristine_bodies is not None:
            bodies_path.write_text(pristine_bodies)
    assert result["correct"] is False
    assert result["failed"] >= 1
    if workload != "serve":
        assert result["failed"] == result["attempted"]


def test_self_times_add_up_to_the_root():
    spans = [
        {"id": 0, "parent": None, "name": "run", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "a", "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "name": "b", "start": 1.5, "end": 2.5},
        {"id": 3, "parent": 1, "name": "b", "start": 3.0, "end": 3.5},
        {"id": 4, "parent": 0, "name": "c", "start": 5.0, "end": 9.0},
        {"id": 5, "parent": 4, "name": "a", "start": 5.0, "end": 9.0},
    ]
    own = tracing.self_times(spans)
    assert own == {0: 3.0, 1: 1.5, 2: 1.0, 3: 0.5, 4: 0.0, 5: 4.0}
    assert sum(own.values()) == 10.0
    assert tracing.layer_self_times(spans) == {
        "run": 3.0, "a": 5.5, "b": 1.5, "c": 0.0}


def test_traced_operation_never_sums_stage_timers(tmp_path):
    """Per-layer self times of a real traced operation add up to its root
    span, which they would overshoot if a nested program timer (such as
    ``filtering`` inside ``prematching``) were added in."""
    directory = inputs.prepare(ROOT / ".perfbench", "link", 1, "tiny")
    out = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "link", str(directory),
         str(tmp_path), str(out), "--trace"],
        cwd=ROOT, check=True, timeout=120, env=run.child_environment(),
    )
    operation = json.loads(out.read_text())
    assert "stages" not in operation
    spans = operation["trace"]["spans"]
    totals, root_s, summed = layers.tree_totals(spans, "run")
    assert summed == pytest.approx(root_s, abs=1e-9)
    assert sum(totals.values()) == pytest.approx(root_s, abs=1e-9)
    metrics = layers.operation_metrics(operation)
    self_metrics = sum(metrics[name] for name in layers.SELF_TIME_OF)
    assert self_metrics == pytest.approx(root_s, abs=1e-9)
    names = {span["name"] for span in spans}
    assert {"core.prematching", "core.filtering", "core.kernel.score",
            "core.subgraph", "blocking"} <= names
    prematching = [s for s in spans if s["name"] == "core.prematching"]
    assert [s["tags"]["round"] for s in prematching] == list(
        range(1, len(prematching) + 1))


def session_members(session: int):
    """Command lines of the live processes in session ``session``."""
    members = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(cmdline.replace(b"\0", b" ").decode())
    return members


@pytest.mark.parametrize("workload,stop_after", [
    ("serve", None), ("serve", 2.0), ("link", 2.0)])
def test_run_leaves_no_process_behind(workload, stop_after):
    """Every process a run starts (servers, CPU spinners, operations) has
    ended by the time the run exits, also when it is stopped by SIGTERM."""
    process = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "6", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    if stop_after is not None:
        time.sleep(stop_after)
        process.send_signal(signal.SIGTERM)
    returncode = process.wait(timeout=300)
    assert returncode == (0 if stop_after is None else 128 + signal.SIGTERM)
    assert session_members(process.pid) == []


def test_checkout_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "link", "--seed", "1", "--seconds", "1",
                      "--trace", "0", root=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
