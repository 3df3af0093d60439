"""Every layer the repository benchmark traces is still reached.

``perfbench/tracing.py`` wraps program names where their callers look
them up (``prematching._filtered_bulk_scores``,
``sharding.pipeline._shard_round``, ...).  A wrapped name that is
renamed away fails the benchmark's own tests, but one that stays defined
and is no longer called would silently drop its layer out of the trace.
This links one pair resident and sharded under the batch tracer and
requires a span of every layer.
"""

import sys
from pathlib import Path

from repro.core.config import LinkageConfig
from repro.core.kernel import kernel_available
from repro.core.pipeline import link_datasets
from repro.datagen import generate_pair

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Span names a resident plus a sharded ``link`` must produce.
LAYERS = {
    "core.pipeline",
    "sharding.pipeline",
    "sharding.planner",
    "blocking",
    "core.enrichment",
    "core.kernel.encode",
    "core.filtering",
    "core.prematching",
    "core.clustering",
    "core.subgraph",
    "core.scoring",
    "core.selection",
    "core.remaining",
}


def _traced_links():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = tracing.Tracer()
    try:
        # Inside the try: a binding that fails to install must not leave
        # the ones before it wrapped for later tests.
        tracing.install_batch(tracer)
        old, new = generate_pair(seed=7, initial_households=12).datasets
        link_datasets(old, new, LinkageConfig())
        link_datasets(old, new, LinkageConfig(shards=2))
    finally:
        tracer.uninstall()
    return tracer


def test_every_traced_layer_is_reached():
    tracer = _traced_links()
    names = {span["name"] for span in tracer.spans}
    expected = LAYERS | ({"core.kernel.score"} if kernel_available() else set())
    assert expected <= names, sorted(expected - names)
    # The remaining pass resolves its pairs through the traced resolver.
    by_id = {span["id"]: span for span in tracer.spans}
    assert any(
        span["name"] == "core.filtering"
        and span["parent"] is not None
        and by_id[span["parent"]]["name"] == "core.remaining"
        for span in tracer.spans
    )
    assert tracer.counts["sharding.visits"] > 0
