"""The batch workloads (``link``, ``evolve``, ``country``): one fresh
process per operation, operations repeated until ``--seconds`` is spent.

Untraced runs report the end-to-end metrics as medians over the
operations, each time scaled to the reference host speed by the probes
the operation's process ran beside it (:mod:`hostspeed`).  Traced runs
alternate untraced and traced operations, so the tracing overhead is
the traced median minus the untraced median of the same run; the traced
operations' spans are written to ``trace_path``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import hostspeed
import layers
from stats import median

CHILD = Path(__file__).resolve().parent / "child.py"
#: Fewest operations a run makes, whatever ``--seconds`` says.
MIN_OPERATIONS = 3
#: A single operation that takes longer than this has hung (a run ends
#: at its first hung operation).
OPERATION_TIMEOUT_S = 60.0
#: Pristine warm state copied into every ``evolve`` operation.
WARM_STATE = ("series_state", "evolution_store")


def _check(workload: str, manifest: dict, result: dict) -> List[str]:
    """Why the operation's outputs disagree with the reference (if so)."""
    problems = []
    if workload in ("link", "country"):
        if result["decision_ledger_hash"] != manifest["decision_ledger_hash"]:
            problems.append("decision_ledger_hash differs from the reference")
        if workload == "link" and not result["validated"]:
            problems.append("validate_result reported violations")
    else:
        if result["analysis_ledger_hash"] != manifest["analysis_ledger_hash"]:
            problems.append("analysis_ledger_hash differs from scratch run")
        if result["graph_version"] != manifest["graph_version"]:
            problems.append("published graph_version differs from scratch run")
    return problems


def _spawn_and_wait(command: List[str], root: Path, env: Dict[str, str]):
    """Run ``command``; return its exit status (``"timeout"`` if it
    hung) and the time just before it was spawned."""
    spawned = time.perf_counter()
    process = subprocess.Popen(command, cwd=root, env=env,
                               stdin=subprocess.DEVNULL, stdout=sys.stderr)
    try:
        return process.wait(timeout=OPERATION_TIMEOUT_S), spawned
    except subprocess.TimeoutExpired:
        return "timeout", spawned
    finally:
        # Hung, or the benchmark itself is being stopped: never leave
        # the operation running.
        if process.poll() is None:
            process.kill()
            process.wait()


def _operation(root: Path, workload: str, inputs: Path, run_dir: Path,
               index: int, traced: bool, env: Dict[str, str]) -> dict:
    op_dir = run_dir / f"op{index}"
    op_dir.mkdir()
    if workload == "evolve":
        for name in WARM_STATE:
            shutil.copytree(inputs / name, op_dir / name)
    out = op_dir / "result.json"
    command = [sys.executable, str(CHILD), workload, str(inputs),
               str(op_dir), str(out)] + (["--trace"] if traced else [])
    returncode, spawned = _spawn_and_wait(command, root, env)
    result = (json.loads(out.read_text())
              if returncode == 0 and out.exists() else None)
    shutil.rmtree(op_dir)
    if result is None:
        return {"traced": traced, "ok": False,
                "problems": [f"operation exited with {returncode}"]}
    slowdown = hostspeed.slowdown(result["probes"])
    result.update(
        traced=traced, slowdown=slowdown,
        raw_setup_s=result["t_setup"] - spawned,
        raw_wall_s=result["t_end"] - result["t_ready"],
    )
    result.update(setup_s=result["raw_setup_s"] / slowdown,
                  wall_s=result["raw_wall_s"] / slowdown,
                  refresh_s=result["reload_s"] / slowdown)
    return result


def run(root: Path, workload: str, inputs: Path, manifest: dict,
        seconds: float, traced: bool, run_dir: Path,
        env: Dict[str, str], trace_path: Path) -> dict:
    operations = []
    deadline = time.perf_counter() + seconds
    while len(operations) < MIN_OPERATIONS or time.perf_counter() < deadline:
        # Traced runs go untraced, traced, untraced, ...
        op_traced = traced and len(operations) % 2 == 1
        outcome = _operation(root, workload, inputs, run_dir,
                             len(operations), op_traced, env)
        if "problems" not in outcome:
            outcome["problems"] = _check(workload, manifest, outcome)
            outcome["ok"] = not outcome["problems"]
        operations.append(outcome)
        if "operation exited with timeout" in outcome["problems"]:
            break
    failed = [op for op in operations if not op["ok"]]
    report = {
        "attempted": len(operations),
        "failed": len(failed),
        "problems": sorted({p for op in failed for p in op["problems"]}),
        "phases": {"operations": [
            {key: op[key] for key in ("traced", "raw_setup_s", "raw_wall_s",
                                      "slowdown") if key in op}
            for op in operations]},
    }
    good = [op for op in operations if op["ok"]]
    plain = [op for op in good if not op["traced"]]
    if not traced:
        report["metrics"] = _end_to_end(plain, manifest) if plain else {}
        return report
    spans = [op for op in good if op["traced"]]
    trace_path.write_text(json.dumps([op["trace"] for op in spans]))
    report["metrics"] = (layers.batch_metrics(spans, plain)
                         if spans and plain else {})
    return report


def _end_to_end(operations: List[dict], manifest: dict) -> Dict[str, tuple]:
    walls = [op["wall_s"] for op in operations]
    return {
        "setup_s": (median([op["setup_s"] for op in operations]), "s"),
        "wall_s": (median(walls), "s"),
        "peak_rss_mb": (median([op["peak_rss_kb"] for op in operations])
                        / 1024.0, "MB"),
        "throughput_per_s": (manifest["records"] / median(walls), "1/s"),
        "refresh_ms": (median([op["refresh_s"] for op in operations])
                       * 1000.0, "ms"),
    }
