"""Scenario matrix — every group-matching backend on every adversarial
generator scenario.

The robustness bake-off of PR 7: the named scenarios of
:mod:`repro.datagen.scenarios` each stress one failure mode of temporal
group linkage (attribute noise, member churn, name-skew ambiguity,
missing group structure), and the grid runs every registered
:class:`~repro.core.backends.GroupMatcherBackend` on every scenario,
reporting record-linkage precision/recall/F plus the deterministic
effort counters.  The ``baseline`` scenario column doubles as the
reference: a backend's robustness is how little its F-measure drops
from there under each attack.

``--quick`` is the CI smoke entry point (smallest workload, fixed
seed); with ``--check-baseline`` the quick run gates each cell's
P/R/F against the committed ``results/baseline_scenarios_quick.json``
and fails on drift beyond :data:`SCENARIO_TOLERANCE`.
``--record-baseline`` refreshes that file after an intentional change.
"""

import json
import time

from benchlib import BENCH_SEED, RESULTS_DIR, once, write_result

from repro.core.backends import available_backends
from repro.core.config import LinkageConfig
from repro.core.pipeline import link_datasets
from repro.datagen.scenarios import (
    ADVERSARIAL_SCENARIOS,
    generate_scenario_pair,
    measure_distortions,
    scenario_names,
)
from repro.evaluation.metrics import evaluate_mapping
from repro.evaluation.reporting import format_table
from repro.instrumentation import (
    FULL_AGG_SIM_CALLS,
    GROUP_PAIRS_CANDIDATES,
    PAIRS_SCORED,
)

#: Matrix columns, baseline first.
MATRIX_SCENARIOS = ("baseline",) + ADVERSARIAL_SCENARIOS

QUICK_HOUSEHOLDS = 60
FULL_HOUSEHOLDS = 150

#: Relative tolerance of the quality-regression gate on quick-run P/R/F.
SCENARIO_TOLERANCE = 0.10
#: Effort counters recorded per cell (informational, not gated — they
#: differ across backends by design).
EFFORT_COUNTERS = (PAIRS_SCORED, FULL_AGG_SIM_CALLS, GROUP_PAIRS_CANDIDATES)
BASELINE_PATH = RESULTS_DIR / "baseline_scenarios_quick.json"


def run_matrix(households=FULL_HOUSEHOLDS, scenarios=MATRIX_SCENARIOS,
               seed=BENCH_SEED):
    """Run every backend on every scenario; return per-cell rows.

    Each cell row is a dict with the scenario, backend, record-linkage
    P/R/F (percent), link/round counts, effort counters and wall-clock
    seconds.  The generated workload (and therefore the ground truth) is
    identical for every backend within a scenario column, so the quality
    numbers are directly comparable down the column.
    """
    cells = []
    distortions = {}
    for scenario in scenarios:
        series = generate_scenario_pair(
            scenario, seed=seed, initial_households=households
        )
        distortions[scenario] = measure_distortions(series).as_dict()
        old, new = series.datasets
        truth = series.ground_truth.record_mapping(old.year, new.year)
        for backend in available_backends():
            config = LinkageConfig(n_workers=1, group_backend=backend)
            start = time.perf_counter()
            result = link_datasets(old, new, config)
            elapsed = time.perf_counter() - start
            quality = evaluate_mapping(result.record_mapping, truth)
            precision, recall, f_measure = quality.as_percentages()
            cells.append(
                {
                    "scenario": scenario,
                    "backend": backend,
                    "precision": round(precision, 2),
                    "recall": round(recall, 2),
                    "f_measure": round(f_measure, 2),
                    "record_links": len(result.record_mapping),
                    "group_links": len(result.group_mapping),
                    "rounds": len(result.iterations),
                    "effort": {
                        name: result.profile.value(name)
                        for name in EFFORT_COUNTERS
                    },
                    "seconds": round(elapsed, 3),
                }
            )
    return cells, distortions


def format_matrix_table(cells):
    rows = [
        [
            cell["scenario"], cell["backend"],
            f"{cell['precision']:.1f}", f"{cell['recall']:.1f}",
            f"{cell['f_measure']:.1f}", str(cell["record_links"]),
            str(cell["rounds"]),
            str(cell["effort"][PAIRS_SCORED]),
            f"{cell['seconds']:.2f}",
        ]
        for cell in cells
    ]
    return format_table(
        ["scenario", "backend", "P%", "R%", "F%", "links", "rounds",
         "scored", "seconds"],
        rows,
        title="Scenario matrix: backend quality under adversarial "
              "generators",
    )


def format_distortion_table(distortions):
    rows = [
        [
            name,
            f"{stats['missing_cell_rate']:.4f}",
            f"{stats['migration_fraction']:.4f}",
            f"{stats['surname_gini']:.4f}",
            f"{stats['mean_household_size']:.2f}",
        ]
        for name, stats in distortions.items()
    ]
    return format_table(
        ["scenario", "missing cells", "migration", "surname gini",
         "household size"],
        rows,
        title="Measured scenario distortions",
    )


def format_markdown_matrix(cells):
    """The backend x scenario F-measure grid as a markdown table (the
    EXPERIMENTS.md rendering), with P/R in parentheses per cell."""
    backends = available_backends()
    by_key = {(cell["scenario"], cell["backend"]): cell for cell in cells}
    scenarios = []
    for cell in cells:
        if cell["scenario"] not in scenarios:
            scenarios.append(cell["scenario"])
    lines = [
        "| backend | " + " | ".join(scenarios) + " |",
        "|---" * (len(scenarios) + 1) + "|",
    ]
    for backend in backends:
        row = [f"`{backend}`"]
        for scenario in scenarios:
            cell = by_key[(scenario, backend)]
            row.append(
                f"F {cell['f_measure']:.1f} "
                f"(P {cell['precision']:.1f} / R {cell['recall']:.1f})"
            )
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def quality_baseline(cells):
    """The gated quick-run quality numbers, keyed ``scenario/backend``."""
    return {
        f"{cell['scenario']}/{cell['backend']}": {
            "precision": cell["precision"],
            "recall": cell["recall"],
            "f_measure": cell["f_measure"],
        }
        for cell in cells
    }


def check_baseline(current, baseline):
    """Drift of quick-run P/R/F against the committed baseline.

    Returns human-readable failure lines (empty = gate green).  Every
    metric is gated in *both* directions — an unexplained improvement is
    as suspicious as a regression in a determinism gate — with
    :data:`SCENARIO_TOLERANCE` of relative slack.  Cells missing from
    the baseline fail loudly; re-record instead of silently ungating.
    """
    failures = []
    for key, metrics in sorted(current.items()):
        expected = baseline.get(key)
        if expected is None:
            failures.append(f"{key}: missing from baseline (re-record)")
            continue
        for metric, value in metrics.items():
            want = expected.get(metric)
            if want is None:
                failures.append(
                    f"{key}: {metric} missing from baseline (re-record)"
                )
                continue
            slack = abs(want) * SCENARIO_TOLERANCE
            if abs(value - want) > slack:
                failures.append(
                    f"{key}: {metric} drifted, {value:.2f} vs baseline "
                    f"{want:.2f} (±{SCENARIO_TOLERANCE:.0%})"
                )
    return failures


def test_scenario_matrix(benchmark):
    """Bench-suite entry: the full matrix with basic sanity floors."""
    cells, distortions = once(benchmark, run_matrix)
    write_result(
        "scenario_matrix.txt",
        format_matrix_table(cells) + "\n" + format_distortion_table(
            distortions
        ),
    )
    (RESULTS_DIR / "scenario_matrix.json").write_text(
        json.dumps({"cells": cells, "distortions": distortions},
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    for cell in cells:
        # Every backend must complete and link a non-trivial share on
        # every scenario — robustness differences show up in the
        # numbers, not as crashes or empty mappings.
        assert cell["record_links"] > 0, (
            f"{cell['backend']} linked nothing on {cell['scenario']}"
        )
        assert cell["f_measure"] > 30.0, (
            f"{cell['backend']} collapsed on {cell['scenario']}: "
            f"F={cell['f_measure']:.1f}%"
        )


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help=f"smoke run on {QUICK_HOUSEHOLDS} households instead of "
             f"{FULL_HOUSEHOLDS}",
    )
    parser.add_argument(
        "--check-baseline", action="store_true",
        help="fail when quick-run P/R/F drifts beyond "
             f"{SCENARIO_TOLERANCE:.0%} of "
             "results/baseline_scenarios_quick.json",
    )
    parser.add_argument(
        "--record-baseline", action="store_true",
        help="rewrite results/baseline_scenarios_quick.json from this "
             "quick run",
    )
    parser.add_argument(
        "--scenarios", nargs="*", default=None,
        help="subset of scenarios (default: baseline + all adversarial)",
    )
    args = parser.parse_args(argv)

    scenarios = tuple(args.scenarios) if args.scenarios else MATRIX_SCENARIOS
    unknown = set(scenarios) - set(scenario_names())
    if unknown:
        parser.error(f"unknown scenarios: {', '.join(sorted(unknown))}")

    households = QUICK_HOUSEHOLDS if args.quick else FULL_HOUSEHOLDS
    cells, distortions = run_matrix(
        households=households, scenarios=scenarios
    )
    suffix = "_quick" if args.quick else ""
    write_result(
        f"scenario_matrix{suffix}.txt",
        format_matrix_table(cells) + "\n" + format_distortion_table(
            distortions
        ),
    )
    (RESULTS_DIR / f"scenario_matrix{suffix}.json").write_text(
        json.dumps({"cells": cells, "distortions": distortions},
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    for cell in cells:
        assert cell["record_links"] > 0, (
            f"{cell['backend']} linked nothing on {cell['scenario']}"
        )

    if args.record_baseline:
        BASELINE_PATH.parent.mkdir(exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps(quality_baseline(cells), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"baseline recorded: {BASELINE_PATH}")
    elif args.check_baseline:
        baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        failures = check_baseline(quality_baseline(cells), baseline)
        if failures:
            for line in failures:
                print(f"scenario-baseline drift: {line}")
            return 1
        cell_count = len(cells)
        print(f"scenario gate green ({cell_count} cells within "
              f"±{SCENARIO_TOLERANCE:.0%} of {BASELINE_PATH.name})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
