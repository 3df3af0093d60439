"""Bit-identity battery for the vectorized batch scoring kernel.

The kernel (:mod:`repro.core.kernel`) may replace the per-pair reference
path only because its outcomes are *bit-identical* — same float64 bits,
same pruning kinds, same effort accounting.  This module proves that
claim from the bottom up:

* the columnar encoding preserves every per-string fact the reference
  comparators derive (q-gram multisets via occurrence expansion, stored
  as bitsets, normalised lengths, exact-match keys, missing flags);
* ``agg_sim_chunk`` and ``evaluate_chunk`` equal the same calls on
  :class:`PairScorer`, the per-pair scorer the pipeline runs without
  the kernel, bit for bit — value *and* pruning kind — for every missing
  policy, filter-stage subset and δ, given the same row arrays;
* the popcount of multi-word bitsets counts common grams exactly: words
  0, 1 and 2, the word boundary at bits 63/64, repeated grams and more
  than 255 common grams;
* :class:`PairScorer` itself is :meth:`SimilarityFunction.agg_sim` and
  :meth:`CandidateFilter.evaluate`, pair by pair;
* the fallback without numpy, or with a numpy older than 2.0, degrades
  to the reference path losslessly;
* the kernel pickles (it is shipped to worker pools via initializer).

These properties gate the tentpole: if any fails, the vectorized
backend is not a drop-in replacement and must not ship as the default.
"""

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LinkageConfig
from repro.core.filtering import (
    CMP_EXACT,
    CMP_QGRAM2,
    CMP_QGRAM3,
    KINDS,
    CandidateFilter,
    PairScorer,
    normalised_length,
    qgram_count,
)
from repro.core.kernel import (
    BACKEND_PYTHON,
    BACKEND_VECTORIZED,
    SCORING_BACKENDS,
    BatchScoringKernel,
    ColumnEncoder,
    build_scoring_kernel,
    encode_columns,
    kernel_available,
)
from repro.core.pipeline import link_datasets
from repro.core.prematching import prematching
from repro.datagen import generate_pair
from repro.instrumentation import KERNEL_BATCHES, KERNEL_PAIRS
from repro.similarity.qgram import qgrams
from repro.similarity.vector import (
    MISSING_IGNORE,
    MISSING_NEUTRAL,
    MISSING_ZERO,
    _is_missing,
    build_similarity_function,
)
from tests.strategies import names, person_records

#: Weight specs exercising every comparator class the kernel encodes:
#: pure q-gram+exact, a length-boundable scalar mix, and an opaque
#: comparator with no cheap bound (mirrors test_filtering_soundness).
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
        ("surname", "jaro_winkler", 0.4),
        ("sex", "exact", 0.2),
    ),
}

deltas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
policies = st.sampled_from((MISSING_ZERO, MISSING_NEUTRAL, MISSING_IGNORE))
spec_keys = st.sampled_from(sorted(WEIGHT_SPECS))

#: The encoder/kernel batteries need the real vectorized backend; the
#: no-numpy CI lane runs only the plumbing + fallback tests below.
needs_numpy = pytest.mark.skipif(
    not kernel_available(),
    reason="numpy unavailable: vectorized backend cannot run",
)


@st.composite
def record_chunks(draw, max_old=4, max_new=4):
    """Two small record lists with unique ids — one candidate chunk."""
    old = [
        draw(person_records(record_id=f"o{i}", household_id="h1"))
        for i in range(draw(st.integers(1, max_old)))
    ]
    new = [
        draw(person_records(record_id=f"n{i}", household_id="h2"))
        for i in range(draw(st.integers(1, max_new)))
    ]
    return old, new


def cross_rows(old, new):
    """Row arrays of every (old, new) pair of two record lists."""
    return (
        [row for row in range(len(old)) for _ in new],
        [row for _ in old for row in range(len(new))],
    )


def outcomes(result):
    """``evaluate_chunk`` arrays as ``(value, kind)`` tuples."""
    values, kinds = result
    return list(zip(values.tolist(), [KINDS[code] for code in kinds.tolist()]))


def token_set(column, code):
    """The token ids whose bits are set in ``code``'s bitset."""
    return {
        word * 64 + bit
        for word in range(len(column.bits))
        for bit in range(64)
        if int(column.bits[word][code]) >> bit & 1
    }


def code_of(column, value):
    """The distinct-value code ``column`` gave ``value``."""
    return column.values.index(value, 1)


# -- encoder: every per-string fact survives the packing ---------------------


@needs_numpy
class TestColumnEncoder:
    @given(st.lists(person_records(), min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_qgram_tokens_roundtrip_the_multiset(self, records):
        """Occurrence expansion is lossless: each distinct value's bitset
        has exactly one set bit per padded q-gram occurrence, and its set
        bits are its tokens — multiset overlap becomes set intersection,
        a popcount of the AND."""
        encoder = ColumnEncoder("first_name", CMP_QGRAM2)
        column = encoder.encode(records)
        assert column.bits.dtype == "uint64"
        assert column.bits.shape == (
            (encoder.n_tokens + 63) // 64, column.n_distinct
        )
        assert token_set(column, 0) == set()  # the missing rows' dummy
        for record in records:
            value = record.first_name
            if _is_missing(value):
                continue
            code = code_of(column, value)
            tokens = token_set(column, code)
            grams = qgrams(value, 2, padded=True)
            assert len(tokens) == len(grams)
            assert tokens == set(encoder._tokens_of(value))
            assert column.gram_count[code] == len(grams)
            assert column.gram_count[code] == qgram_count(str(value), 2, True)
            assert column.norm_len[code] == normalised_length(str(value))

    @given(names, names)
    @settings(max_examples=200)
    def test_token_intersection_equals_multiset_overlap(self, left, right):
        """The premise of chunked Dice: |tokens(a) ∩ tokens(b)| equals
        the Counter Σ min overlap the reference q-gram comparator uses."""
        encoder = ColumnEncoder("first_name", CMP_QGRAM2)
        left_tokens = set(encoder._tokens_of(left))
        right_tokens = set(encoder._tokens_of(right))
        reference = sum(
            (Counter(qgrams(left, 2, padded=True))
             & Counter(qgrams(right, 2, padded=True))).values()
        )
        assert len(left_tokens & right_tokens) == reference

    @given(st.lists(names, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_exact_codes_agree_iff_normalised_equal(self, values):
        records = [
            person_record_with(first_name=value, record_id=f"r{i}")
            for i, value in enumerate(values)
        ]
        encoder = ColumnEncoder("first_name", CMP_EXACT)
        column = encoder.encode(records)
        for i, left in enumerate(records):
            for j, right in enumerate(records):
                if column.missing[i] or column.missing[j]:
                    continue
                same_code = (
                    column.eq_codes[column.codes[i]]
                    == column.eq_codes[column.codes[j]]
                )
                same_norm = (
                    " ".join(str(left.first_name).lower().split())
                    == " ".join(str(right.first_name).lower().split())
                )
                assert same_code == same_norm

    @given(st.lists(person_records(), min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_missing_flags_match_reference_predicate(self, records):
        column = ColumnEncoder("occupation", CMP_QGRAM2).encode(records)
        for row, record in enumerate(records):
            assert bool(column.missing[row]) == _is_missing(record.occupation)
            if column.missing[row]:
                assert column.codes[row] == 0  # parked on the dummy

    def test_vocabularies_shared_across_datasets(self):
        old = [person_record_with(first_name="mary", record_id="o0")]
        new = [person_record_with(first_name="mary", record_id="n0")]
        sim_func = build_similarity_function(
            [("first_name", "qgram", 1.0)], 0.7
        )
        old_cols, new_cols = encode_columns(sim_func, old, new)
        old_tokens = token_set(old_cols[0], code_of(old_cols[0], "mary"))
        new_tokens = token_set(new_cols[0], code_of(new_cols[0], "mary"))
        assert old_tokens == new_tokens  # same value -> same token ids
        assert old_tokens == set(range(len(qgrams("mary", 2, padded=True))))


def person_record_with(**overrides):
    from repro.model.records import PersonRecord

    defaults = dict(
        record_id="r0", household_id="h0", first_name="john",
        surname="smith", sex="m", age=30, occupation=None, address=None,
        role="head",
    )
    defaults.update(overrides)
    return PersonRecord(**defaults)


# -- chunk scoring: bit-identical to the reference path ----------------------


@needs_numpy
class TestChunkBitIdentity:
    @given(record_chunks(), spec_keys, policies)
    @settings(max_examples=150, deadline=None)
    def test_agg_sim_chunk_bit_identical(self, chunk, spec_key, policy):
        old, new = chunk
        sim_func = build_similarity_function(
            list(WEIGHT_SPECS[spec_key]), 0.7, policy
        )
        kernel = BatchScoringKernel(sim_func, old, new)
        rows = cross_rows(old, new)
        batch = kernel.agg_sim_chunk(*rows).tolist()
        reference = PairScorer(sim_func, old, new).agg_sim_chunk(*rows)
        assert len(batch) == len(reference)
        for pair, got, want in zip(zip(*rows), batch, reference):
            assert got == want, (pair, got, want)

    @given(record_chunks(), spec_keys, policies, deltas)
    @settings(max_examples=150, deadline=None)
    def test_evaluate_chunk_bit_identical(
        self, chunk, spec_key, policy, delta
    ):
        """Value AND pruning kind match the per-pair scorer — the
        masked-pruning pipeline is a faithful translation, not an
        approximation."""
        old, new = chunk
        sim_func = build_similarity_function(
            list(WEIGHT_SPECS[spec_key]), delta, policy
        )
        kernel = BatchScoringKernel(sim_func, old, new)
        rows = cross_rows(old, new)
        batch = outcomes(kernel.evaluate_chunk(*rows, delta))
        reference = outcomes(
            PairScorer(sim_func, old, new).evaluate_chunk(*rows, delta)
        )
        assert len(batch) == len(reference)
        for pair, got, want in zip(zip(*rows), batch, reference):
            assert got == want, (pair, got, want)

    def test_chunk_results_are_plain_floats(self):
        """The kernel answers in numpy arrays; what leaves the score
        store for clustering, the group stage and ledgers must be plain
        Python floats, never numpy scalars."""
        old, new = generate_pair(seed=7, initial_households=5).datasets
        old_records = list(old.iter_records())
        new_records = list(new.iter_records())
        config = LinkageConfig()
        sim_func = config.build_sim_func(0.7)
        candidate_filter = config.build_candidate_filter(sim_func)
        result = prematching(
            old_records, new_records, sim_func, config.build_blocker(),
            candidate_filter=candidate_filter,
            scorer=BatchScoringKernel(sim_func, old_records, new_records),
        )
        cache = result.scores
        assert result.matched_pairs and cache.num_bounds
        sims = result.pair_sims(
            [(o.record_id, n.record_id)
             for o in old_records[:5] for n in new_records[:5]]
        )
        assert cache.num_lazy
        leaving = list(result.pair_sims(result.matched_pairs).values())
        leaving += list(cache._lazy.values())
        leaving += list(sims.values())
        assert {type(score) for score in leaving} == {float}

    def test_kernel_pickles_for_worker_shipping(self):
        series = generate_pair(seed=7, initial_households=5)
        old, new = series.datasets
        old_records = list(old.records.values())
        new_records = list(new.records.values())
        sim_func = build_similarity_function(
            list(WEIGHT_SPECS["omega2-qgram"]), 0.7
        )
        kernel = BatchScoringKernel(sim_func, old_records, new_records)
        clone = pickle.loads(pickle.dumps(kernel))
        rows = cross_rows(old_records[:4], new_records[:4])
        assert (
            clone.agg_sim_chunk(*rows).tolist()
            == kernel.agg_sim_chunk(*rows).tolist()
        )
        assert outcomes(clone.evaluate_chunk(*rows, 0.7)) == outcomes(
            kernel.evaluate_chunk(*rows, 0.7)
        )


# -- multi-word bitsets: the popcount against the per-pair scorer ------------

#: 200 distinct characters: each of their grams is a new token, so the
#: first value encoded owns token ids 0, 1, 2, ... in gram order.
WIDE = "".join(chr(0x4E00 + offset) for offset in range(200))

#: Old and new first names.  ``WIDE`` comes first, so its grams span
#: words 0-3 of the bitsets; the new values share its grams in words 0
#: and 1 (a prefix), across the word boundary at bits 63 and 64 (a
#: slice), in word 2 (a later slice) and almost everywhere (one changed
#: character).  The other values repeat grams, and ``"a" * 300`` shares
#: 281 bigrams with ``"a" * 280``, more than a uint8 holds.
WIDE_OLD = (WIDE, "a" * 300, "hannah annah", "abcabcabc", None)
WIDE_NEW = (
    WIDE[:70],
    WIDE[61:65],
    WIDE[130:140],
    WIDE[:100] + "x" + WIDE[101:],
    "a" * 280,
    "annah hannah",
    "cabcab",
    None,
)


def wide_records():
    """Records over ``WIDE_OLD`` / ``WIDE_NEW``, with an all-missing
    q-gram column (``address``)."""
    old = [
        person_record_with(
            record_id=f"o{row}", first_name=name, surname=name,
            sex="m" if row % 2 else "f",
        )
        for row, name in enumerate(WIDE_OLD)
    ]
    new = [
        person_record_with(
            record_id=f"n{row}", first_name=name,
            surname=WIDE_OLD[row % len(WIDE_OLD)],
            sex="f" if row % 3 else "m",
        )
        for row, name in enumerate(WIDE_NEW)
    ]
    return old, new


@needs_numpy
class TestMultiWordBitsets:
    @pytest.mark.parametrize("tag, q", [(CMP_QGRAM2, 2), (CMP_QGRAM3, 3)])
    def test_wide_vocabularies_cover_every_word_case(self, tag, q):
        """The data reaches what the popcount must get right: more than
        128 tokens, common tokens in words 0, 1 and 2 and at bits 63 and
        64, and a pair with more than 255 common grams."""
        old, new = wide_records()
        encoder = ColumnEncoder("first_name", tag)
        old_col = encoder.encode(old)
        new_col = encoder.encode(new)
        assert encoder.n_tokens > 128 and len(new_col.bits) >= 3
        common = set()
        for old_value in WIDE_OLD[:-1]:
            for new_value in WIDE_NEW[:-1]:
                common |= token_set(old_col, code_of(old_col, old_value)) & (
                    token_set(new_col, code_of(new_col, new_value))
                )
        assert {63, 64} <= common
        assert {token // 64 for token in common} >= {0, 1, 2}
        overlap = Counter(qgrams("a" * 300, q)) & Counter(qgrams("a" * 280, q))
        assert sum(overlap.values()) > 255

    @pytest.mark.parametrize(
        "policy", (MISSING_ZERO, MISSING_NEUTRAL, MISSING_IGNORE)
    )
    @pytest.mark.parametrize("comparator", ("qgram", "trigram"))
    def test_popcount_bit_identical(self, comparator, policy):
        old, new = wide_records()
        sim_func = build_similarity_function(
            [
                ("first_name", comparator, 0.5),
                ("surname", comparator, 0.2),
                ("sex", "exact", 0.2),
                ("address", comparator, 0.1),
            ],
            0.7,
            policy,
        )
        rows = cross_rows(old, new)
        kernel = BatchScoringKernel(sim_func, old, new)
        scorer = PairScorer(sim_func, old, new)
        assert kernel.agg_sim_chunk(*rows).tolist() == (
            scorer.agg_sim_chunk(*rows).tolist()
        )
        for delta in (0.0, 0.5, 0.7, 0.95):
            assert outcomes(kernel.evaluate_chunk(*rows, delta)) == outcomes(
                scorer.evaluate_chunk(*rows, delta)
            )


# -- the per-pair scorer: the reference, pair by pair ------------------------


class TestPairScorer:
    """The per-pair scorer is ``agg_sim`` and the pruning engine, one
    call per pair — the claim that makes it the kernel's reference (and
    the only scorer without numpy)."""

    @given(record_chunks(), spec_keys, policies, deltas)
    @settings(max_examples=60, deadline=None)
    def test_chunks_equal_per_pair_calls(
        self, chunk, spec_key, policy, delta
    ):
        old, new = chunk
        sim_func = build_similarity_function(
            list(WEIGHT_SPECS[spec_key]), delta, policy
        )
        scorer = PairScorer(sim_func, old, new)
        engine = CandidateFilter(sim_func)
        rows = cross_rows(old, new)
        assert scorer.agg_sim_chunk(*rows).tolist() == [
            sim_func.agg_sim(old[o], new[n]) for o, n in zip(*rows)
        ]
        assert outcomes(scorer.evaluate_chunk(*rows, delta)) == [
            engine.evaluate(old[o], new[n], delta) for o, n in zip(*rows)
        ]

    def test_scorer_pickles_for_worker_shipping(self):
        old, new = generate_pair(seed=7, initial_households=5).datasets
        old_records = list(old.records.values())
        new_records = list(new.records.values())
        sim_func = build_similarity_function(
            list(WEIGHT_SPECS["omega2-qgram"]), 0.7
        )
        scorer = PairScorer(sim_func, old_records, new_records)
        clone = pickle.loads(pickle.dumps(scorer))
        rows = cross_rows(old_records[:4], new_records[:4])
        assert clone.agg_sim_chunk(*rows) == scorer.agg_sim_chunk(*rows)
        assert clone.evaluate_chunk(*rows, 0.7) == scorer.evaluate_chunk(
            *rows, 0.7
        )


# -- configuration plumbing and the no-numpy fallback ------------------------


class TestBackendPlumbing:
    def test_backend_constants_cover_config_choices(self):
        assert SCORING_BACKENDS == (BACKEND_PYTHON, BACKEND_VECTORIZED)
        assert LinkageConfig().scoring_backend == BACKEND_VECTORIZED

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="scoring_backend"):
            LinkageConfig(scoring_backend="fortran")

    def test_python_backend_builds_no_kernel(self):
        config = LinkageConfig(scoring_backend="python")
        sim_func = config.build_sim_func()
        scorer = config.build_scoring_kernel(sim_func, [], [])
        assert isinstance(scorer, PairScorer)
        assert not scorer.vectorized

    @needs_numpy
    def test_vectorized_backend_builds_kernel(self):
        config = LinkageConfig(scoring_backend="vectorized")
        sim_func = config.build_sim_func()
        kernel = config.build_scoring_kernel(sim_func, [], [])
        assert isinstance(kernel, BatchScoringKernel)

    def test_no_numpy_falls_back_to_reference_path(self, monkeypatch):
        """Without numpy, or with a numpy older than 2.0 (no
        ``np.bitwise_count``), scoring_backend='vectorized' silently
        takes the per-pair path: the probe says so, build returns None
        and the config a PairScorer, the pipeline still links, and the
        result matches the explicit python backend exactly."""
        import repro.core.kernel as kernel_mod

        series = generate_pair(seed=7, initial_households=10)
        old, new = series.datasets
        reference = link_datasets(
            old, new, LinkageConfig(scoring_backend="python")
        )
        config = LinkageConfig(scoring_backend="vectorized")
        sim_func = config.build_sim_func()
        for probe in ("HAVE_NUMPY", "HAVE_BITWISE_COUNT"):
            with monkeypatch.context() as patch:
                patch.setattr(kernel_mod, probe, False)
                assert not kernel_mod.kernel_available()
                assert build_scoring_kernel(None, [], []) is None
                assert isinstance(
                    config.build_scoring_kernel(sim_func, [], []), PairScorer
                )
                fallback = link_datasets(old, new, config)
            assert sorted(fallback.record_mapping.pairs()) == sorted(
                reference.record_mapping.pairs()
            ), probe
            assert sorted(fallback.group_mapping.pairs()) == sorted(
                reference.group_mapping.pairs()
            ), probe
            assert fallback.profile.value(KERNEL_BATCHES) == 0
            assert fallback.profile.value(KERNEL_PAIRS) == 0

    @needs_numpy
    def test_kernel_counters_track_batched_share(self):
        """The vectorized run reports how much scoring the kernel
        absorbed; the python run reports none."""
        series = generate_pair(seed=7, initial_households=10)
        old, new = series.datasets
        vectorized = link_datasets(
            old, new, LinkageConfig(scoring_backend="vectorized")
        )
        python = link_datasets(
            old, new, LinkageConfig(scoring_backend="python")
        )
        assert vectorized.profile.value(KERNEL_BATCHES) > 0
        assert vectorized.profile.value(KERNEL_PAIRS) > 0
        assert python.profile.value(KERNEL_BATCHES) == 0
        assert python.profile.value(KERNEL_PAIRS) == 0
        # The kernel changes effort accounting not at all: both backends
        # scored the same pairs.
        assert vectorized.profile.value("pairs_scored") == \
            python.profile.value("pairs_scored")
