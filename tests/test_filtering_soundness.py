"""Filter-soundness battery for the candidate-pruning engine.

The engine (:mod:`repro.core.filtering`) may reject a candidate pair
only from an *upper bound* on its similarity — so the load-bearing
property, checked here exhaustively with hypothesis, is that every bound
dominates the true value:

* length bound ≥ Levenshtein (and Damerau) similarity,
* q-gram count bound ≥ q-gram Dice similarity,
* the composed weighted bound ≥ ``agg_sim`` for every missing policy,
* every pruning decision of ``evaluate`` is lossless: a pruned pair's
  true ``agg_sim`` is below the δ it was pruned against, and a surviving
  pair's score is **bit-identical** to ``SimilarityFunction.agg_sim``.

These properties gate the tentpole: if any of them fails, the pruning
engine is not lossless and must not ship.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LinkageConfig
from repro.core.filtering import (
    KIND_EXACT,
    MARGIN,
    PRUNED_EARLY_EXIT,
    PRUNED_LENGTH,
    PRUNED_QGRAM,
    CandidateFilter,
    length_similarity_bound,
    normalised_length,
    qgram_count,
    qgram_count_bound,
)
from repro.similarity.levenshtein import damerau_similarity, levenshtein_similarity
from repro.similarity.qgram import qgram_similarity, qgrams
from repro.similarity.vector import (
    MISSING_IGNORE,
    MISSING_NEUTRAL,
    MISSING_ZERO,
    build_similarity_function,
)
from tests.strategies import names, record_pairs

#: Weight specs exercising every comparator class the engine knows.
WEIGHT_SPECS = {
    "omega2-qgram": (
        ("first_name", "qgram", 0.4),
        ("sex", "exact", 0.2),
        ("surname", "qgram", 0.2),
        ("address", "qgram", 0.1),
        ("occupation", "qgram", 0.1),
    ),
    "levenshtein-mix": (
        ("first_name", "levenshtein", 0.3),
        ("surname", "levenshtein", 0.3),
        ("sex", "exact", 0.2),
        ("address", "qgram", 0.2),
    ),
    "trigram-opaque-mix": (
        ("first_name", "trigram", 0.4),
        ("surname", "jaro_winkler", 0.4),  # no cheap bound: opaque
        ("sex", "exact", 0.2),
    ),
}

deltas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
policies = st.sampled_from((MISSING_ZERO, MISSING_NEUTRAL, MISSING_IGNORE))
spec_keys = st.sampled_from(sorted(WEIGHT_SPECS))


# -- scalar bounds vs true comparators ---------------------------------------


class TestScalarBounds:
    @given(names, names)
    def test_length_bound_dominates_levenshtein(self, left, right):
        assert length_similarity_bound(left, right) >= \
            levenshtein_similarity(left, right)

    @given(names, names)
    def test_length_bound_dominates_damerau(self, left, right):
        """The bound only uses |len(a)-len(b)|, which lower-bounds the
        Damerau distance too (transpositions preserve length)."""
        assert length_similarity_bound(left, right) >= \
            damerau_similarity(left, right)

    @given(names, names)
    def test_length_bound_in_unit_interval(self, left, right):
        assert 0.0 <= length_similarity_bound(left, right) <= 1.0

    @given(
        names,
        st.integers(min_value=1, max_value=4),
        st.booleans(),
    )
    def test_qgram_count_matches_materialised_grams(self, text, q, padded):
        """The closed-form count equals what qgrams() actually emits —
        the premise of the whole count filter."""
        assert qgram_count(text, q, padded) == len(qgrams(text, q, padded))

    @given(names, names, st.integers(min_value=1, max_value=4), st.booleans())
    def test_qgram_count_bound_dominates_dice(self, left, right, q, padded):
        bound = qgram_count_bound(left, right, q, padded)
        assert 0.0 <= bound <= 1.0
        assert bound >= qgram_similarity(left, right, q, padded, mode="dice")

    @given(names)
    def test_normalised_length_matches_comparator_normalisation(self, text):
        assert normalised_length(text) == len(" ".join(text.lower().split()))


# -- composed pair bound vs agg_sim ------------------------------------------


class TestUpperBound:
    @given(record_pairs(), spec_keys, policies)
    @settings(max_examples=200)
    def test_upper_bound_dominates_agg_sim(self, pair, spec_key, policy):
        old, new = pair
        sim_func = build_similarity_function(
            list(WEIGHT_SPECS[spec_key]), 0.7, policy
        )
        engine = CandidateFilter(sim_func)
        assert engine.upper_bound(old, new) + MARGIN >= \
            sim_func.agg_sim(old, new)


# -- evaluate(): the actual pruning decision ---------------------------------


class TestEvaluateLossless:
    @given(record_pairs(), spec_keys, policies, deltas)
    @settings(max_examples=300)
    def test_exact_outcomes_are_bit_identical(
        self, pair, spec_key, policy, delta
    ):
        """A surviving pair's score must equal agg_sim to the last bit —
        that is what makes filtered mappings byte-identical."""
        old, new = pair
        sim_func = build_similarity_function(
            list(WEIGHT_SPECS[spec_key]), delta, policy
        )
        outcome = CandidateFilter(sim_func).evaluate(old, new, delta)
        if outcome.is_exact:
            assert outcome.value == sim_func.agg_sim(old, new)

    @given(record_pairs(), spec_keys, policies, deltas)
    @settings(max_examples=300)
    def test_pruned_outcomes_are_lossless(
        self, pair, spec_key, policy, delta
    ):
        """A pruned pair could never have matched: its bound dominates
        the true similarity and sits below δ by more than the margin."""
        old, new = pair
        sim_func = build_similarity_function(
            list(WEIGHT_SPECS[spec_key]), delta, policy
        )
        engine = CandidateFilter(sim_func)
        outcome = engine.evaluate(old, new, delta)
        if outcome.is_exact:
            return
        true_value = sim_func.agg_sim(old, new)
        assert outcome.kind in (PRUNED_LENGTH, PRUNED_QGRAM, PRUNED_EARLY_EXIT)
        assert outcome.value < delta - MARGIN
        assert outcome.value + MARGIN >= true_value
        assert true_value < delta  # the pair would have been rejected anyway

    @given(record_pairs(), spec_keys, policies)
    @settings(max_examples=100)
    def test_delta_zero_never_prunes(self, pair, spec_key, policy):
        """At δ=0 everything matches, so nothing may be pruned."""
        old, new = pair
        sim_func = build_similarity_function(
            list(WEIGHT_SPECS[spec_key]), 0.0, policy
        )
        outcome = CandidateFilter(sim_func).evaluate(old, new, 0.0)
        assert outcome.kind == KIND_EXACT


# -- configuration -----------------------------------------------------------


class TestFilteringConfig:
    """Pruning is configured by one bool, ``LinkageConfig.filtering``;
    the engine itself is shaped by its similarity function alone."""

    def test_filtering_accepts_only_a_bool(self):
        """The candidate filter exists exactly when ``filtering`` is
        True; the strings "on" and "off" are refused, naming the field."""
        sim_func = LinkageConfig().build_sim_func()
        assert LinkageConfig().build_candidate_filter(sim_func) is not None
        assert LinkageConfig(filtering=False).build_candidate_filter(
            sim_func
        ) is None
        for value in ("on", "off"):
            with pytest.raises(ValueError, match="filtering"):
                LinkageConfig(filtering=value)

    def test_filtering_rejects_garbage(self):
        """Every other value that is not a bool is refused too, the
        ints 1 and 0 and None included."""
        for value in ("sometimes", 3, None, 1, 0, 1.0):
            with pytest.raises(ValueError, match="filtering"):
                LinkageConfig(filtering=value)

    def test_pickled_engine_keeps_config_drops_memos(self):
        sim_func = build_similarity_function(
            list(WEIGHT_SPECS["omega2-qgram"]), 0.7
        )
        engine = CandidateFilter(sim_func)
        engine._norm_length(0, "warm-up value")
        clone = pickle.loads(pickle.dumps(engine))
        assert clone._tags == engine._tags
        assert clone.sim_func.comparators == sim_func.comparators
        assert all(not memo for memo in clone._length_memo)
