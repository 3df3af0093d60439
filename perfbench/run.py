"""Repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {link,evolve,country,serve} \\
        --seed N --seconds S --trace {0,1} [--scale {default,tiny}]

Run from anywhere inside a full checkout; the program is imported from
the checkout's ``src/``.  Inputs and references are built once per
``(workload, scale, seed)`` under ``.perfbench/cache``; every operation
runs in a fresh process on pristine copies.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer metrics
with ``--trace 1``).  Lines before it describe the run.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("link", "evolve", "country", "serve")

#: (metric, unit) of every end-to-end metric, reported by every workload.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("refresh_ms", "ms"),
]


def child_environment() -> dict:
    """Environment of every program process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # A fixed hash seed keeps set and dict iteration, and so the work
    # done, the same from process to process; outputs do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    # Set-up is measured against compiled bytecode, as for an installed
    # package, not against compiling the sources on every start.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("default", "tiny"),
                        default="default")
    return parser.parse_args(argv)


def _exit_on_sigterm(signum, frame) -> None:
    # Unwind through every ``finally``: they stop and reap each process
    # the run started.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}; run it "
              f"from a full checkout", file=sys.stderr)
        return 2
    # Bytecode for every program module up front, so no measured process
    # compiles sources (which would also inflate its peak RSS).
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    import batch
    import inputs
    import layers
    import serve

    work = ROOT / ".perfbench"
    input_dir = inputs.prepare(work, args.workload, args.seed, args.scale)
    manifest = inputs.load_manifest(input_dir)
    run_dir = work / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_environment()
    trace_path = work / "traces" / (
        f"{args.workload}-{args.scale}-{args.seed}.json")
    trace_path.parent.mkdir(exist_ok=True)
    try:
        if args.workload == "serve":
            report = serve.run(ROOT, input_dir, manifest, args.seed,
                               args.seconds, bool(args.trace), run_dir, env,
                               trace_path)
        else:
            report = batch.run(ROOT, args.workload, input_dir, manifest,
                               args.seconds, bool(args.trace), run_dir, env,
                               trace_path)
    except (OSError, RuntimeError, ValueError) as error:
        # A server that died or hung is a failed run, reported as such.
        report = {"attempted": 1, "failed": 1, "metrics": {},
                  "problems": [f"{type(error).__name__}: {error}"]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    names = layers.PER_LAYER if args.trace else END_TO_END
    metrics = report["metrics"]
    missing = [name for name, _ in names if name not in metrics]
    if missing:
        report["problems"].append(f"no value for {', '.join(missing)}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "cores": os.cpu_count(),
        "python": platform.python_version(),
        "inputs": {key: value for key, value in manifest.items()
                   if key in ("records", "vertices", "targets")},
        "phases": report.get("phases", {}),
        "spans": str(trace_path) if args.trace else None,
        "problems": report["problems"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in names if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
