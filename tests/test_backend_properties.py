"""Property battery for the group-matching backend protocol (PR 7).

Every registered backend — not just the paper's default engine — must
honour the structural contract of the iterative loop on generated towns:

* **record-disjoint selections**: the final record mapping is strictly
  1:1 (no old or new record linked twice), and the per-round invariant
  registry (``validate=True``) passes for every backend, so disjointness
  also holds round by round;
* **schedule monotonicity**: the δ rounds walk the schedule strictly
  downward, the unlinked-record counts never increase, and links only
  accumulate — a backend cannot unlink, relink or resurrect records in
  a later round;
* the Hausdorff group score is a pure function of the two member *sets*:
  permutation-invariant in member order and independent of duplicated
  entries;
* the scoring effort a backend reports does not depend on the scoring
  backend: a pair the batch kernel scores counts as scored and as a full
  ``agg_sim`` call, as the per-pair path counts it.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backends import available_backends, hausdorff_similarity
from repro.core.config import LinkageConfig
from repro.core.kernel import kernel_available
from repro.core.pipeline import link_datasets
from repro.datagen import generate_pair
from repro.instrumentation import FULL_AGG_SIM_CALLS, KERNEL_PAIRS, PAIRS_SCORED

from tests.strategies import census_dataset_pairs

#: The shipped backends of the bake-off.  Derived from the registry so a
#: newly registered backend is pulled into the battery automatically.
BACKENDS = available_backends()

RELAXED = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def test_battery_covers_all_shipped_backends():
    assert set(BACKENDS) >= {"default", "rgl", "hausdorff"}


@pytest.mark.parametrize("backend", BACKENDS)
def test_scoring_effort_independent_of_scoring_backend(backend):
    old_dataset, new_dataset = generate_pair(
        seed=7, initial_households=30
    ).datasets
    effort = {}
    for scoring in ("python", "vectorized"):
        profile = link_datasets(
            old_dataset, new_dataset,
            LinkageConfig(group_backend=backend, scoring_backend=scoring),
        ).profile
        effort[scoring] = (
            profile.value(PAIRS_SCORED), profile.value(FULL_AGG_SIM_CALLS)
        )
        if scoring == "vectorized" and kernel_available():
            assert profile.value(KERNEL_PAIRS) > 0
    assert effort["python"] == effort["vectorized"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendContract:
    @given(pair=census_dataset_pairs(min_households=4, max_households=9))
    @RELAXED
    def test_selection_record_disjoint(self, backend, pair):
        """The final mapping is 1:1 and every round passed the invariant
        registry (which checks selection disjointness inline)."""
        old_dataset, new_dataset, _ = pair
        config = LinkageConfig(group_backend=backend, validate=True)
        result = link_datasets(old_dataset, new_dataset, config)
        pairs = sorted(result.record_mapping.pairs())
        old_ids = [old_id for old_id, _ in pairs]
        new_ids = [new_id for _, new_id in pairs]
        assert len(set(old_ids)) == len(old_ids), (
            f"{backend}: an old record was linked twice"
        )
        assert len(set(new_ids)) == len(new_ids), (
            f"{backend}: a new record was linked twice"
        )
        # Linked ids actually exist in their datasets.
        assert set(old_ids) <= set(old_dataset.record_ids)
        assert set(new_ids) <= set(new_dataset.record_ids)

    @given(pair=census_dataset_pairs(min_households=4, max_households=9))
    @RELAXED
    def test_schedule_monotone(self, backend, pair):
        """δ strictly decreases, remaining counts never increase, and
        links only accumulate across rounds."""
        old_dataset, new_dataset, _ = pair
        config = LinkageConfig(group_backend=backend)
        result = link_datasets(old_dataset, new_dataset, config)
        iterations = result.iterations
        assert iterations, f"{backend}: no δ rounds ran"

        deltas = [stats.delta for stats in iterations]
        assert all(
            earlier > later
            for earlier, later in zip(deltas, deltas[1:])
        ), f"{backend}: δ schedule not strictly decreasing: {deltas}"
        assert deltas[0] == pytest.approx(config.delta_high)
        assert deltas[-1] >= config.delta_low - 1e-9

        for earlier, later in zip(iterations, iterations[1:]):
            assert later.remaining_old <= earlier.remaining_old, (
                f"{backend}: remaining old records grew between rounds"
            )
            assert later.remaining_new <= earlier.remaining_new, (
                f"{backend}: remaining new records grew between rounds"
            )

        for stats in iterations:
            assert stats.new_record_links >= 0
            assert stats.accepted_group_links >= 0
        # Every per-round link is reflected in the final mapping (the
        # remaining pass can only add on top).
        round_links = sum(stats.new_record_links for stats in iterations)
        assert round_links + result.remaining_record_links == len(
            result.record_mapping
        ), f"{backend}: per-round link counts do not add up"


# -- Hausdorff score purity ---------------------------------------------------


@st.composite
def member_sets_with_sims(draw):
    """Two member-id lists plus a complete pairwise similarity table."""
    old_ids = draw(
        st.lists(
            st.sampled_from([f"o{i}" for i in range(6)]),
            min_size=1, max_size=5, unique=True,
        )
    )
    new_ids = draw(
        st.lists(
            st.sampled_from([f"n{i}" for i in range(6)]),
            min_size=1, max_size=5, unique=True,
        )
    )
    sims = {
        pair: draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        )
        for pair in itertools.product(old_ids, new_ids)
    }
    return old_ids, new_ids, sims


class TestHausdorffSimilarity:
    @given(
        data=member_sets_with_sims(),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, data, rng):
        old_ids, new_ids, sims = data
        score = hausdorff_similarity(old_ids, new_ids, lambda a, b: sims[a, b])
        shuffled_old = list(old_ids)
        shuffled_new = list(new_ids)
        rng.shuffle(shuffled_old)
        rng.shuffle(shuffled_new)
        assert hausdorff_similarity(
            shuffled_old, shuffled_new, lambda a, b: sims[a, b]
        ) == score

    @given(data=member_sets_with_sims())
    @settings(max_examples=50, deadline=None)
    def test_duplicates_do_not_change_the_score(self, data):
        """A true set function: repeating a member is a no-op."""
        old_ids, new_ids, sims = data
        score = hausdorff_similarity(old_ids, new_ids, lambda a, b: sims[a, b])
        assert hausdorff_similarity(
            old_ids + [old_ids[0]], new_ids + [new_ids[-1]],
            lambda a, b: sims[a, b],
        ) == score

    @given(data=member_sets_with_sims())
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_best_and_worst_pair(self, data):
        """The score sits inside the pairwise-similarity envelope."""
        old_ids, new_ids, sims = data
        score = hausdorff_similarity(old_ids, new_ids, lambda a, b: sims[a, b])
        assert min(sims.values()) - 1e-12 <= score <= max(sims.values()) + 1e-12

    def test_empty_side_scores_zero(self):
        assert hausdorff_similarity([], ["n0"], lambda a, b: 1.0) == 0.0
        assert hausdorff_similarity(["o0"], [], lambda a, b: 1.0) == 0.0
