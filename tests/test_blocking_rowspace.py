"""Blocking in row space: the key-code join against the string-pair loop.

:class:`repro.blocking.standard.StandardBlocker` (and
:class:`~repro.blocking.region.RegionBlocker` over it) returns a
:class:`~repro.blocking.pairs.BlockedPairs`: sorted integer pair keys
over the sorted ids of both sides, which the pair table adopts and the
remaining pass filters on row arrays.  ``tests/blocking_reference.py``
holds the plain string-pair blocker; every test here requires the same
pairs from both, on the numpy join and on its plain-loop twin (the
``fork`` fixture).
"""

from array import array
from importlib import import_module

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.model.roles as R
from repro.blocking.pairs import BlockedPairs
from repro.blocking.region import RegionBlocker
from repro.blocking.standard import (
    DEFAULT_KEY_FUNCTIONS,
    CrossProductBlocker,
    StandardBlocker,
    firstname_soundex_key,
    sex_birthyear_key,
    surname_soundex_initial_key,
    surname_soundex_key,
)
from repro.core.config import LinkageConfig
from repro.core.pairtable import PairTable
from repro.core.pipeline import link_datasets
from repro.core.prematching import _lazy_row_scores
from repro.core.remaining import match_remaining, plausible_pairs
from repro.datagen import generate_pair
from repro.instrumentation import REMAINING_PAIRS, Instrumentation
from repro.model.records import PersonRecord
from repro.similarity.vector import build_similarity_function

from tests import blocking_reference as reference

#: Names whose Soundex codes collide within a pass (smith/smyth,
#: ashworth/ashwort) and across passes (a surname "smith" and a first
#: name "smyth" share S530), plus missing and letterless names, which
#: give empty keys.
NAMES = (None, "", "-", "smith", "smyth", "schmidt", "ashworth", "ashwort",
         "holt", "hult", "kay", "mary", "john", "jon")

#: Key-function sets: the default passes, a tighter pass, and a pass
#: that gives no-block keys to records without an age or a sex.
KEY_SETS = (
    DEFAULT_KEY_FUNCTIONS,
    (surname_soundex_initial_key, firstname_soundex_key),
    (surname_soundex_key, sex_birthyear_key),
)

#: Function-scoped ``fork`` fixture under @given: it only hides numpy
#: for the whole test, which every example shares.
FORKED = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def side(draw, prefix):
    """Up to 8 records in drawn (unsorted) order, their ids
    region-namespaced or not, with colliding and missing names."""
    numbers = draw(st.lists(
        st.integers(min_value=0, max_value=30), max_size=8, unique=True
    ))
    records = [
        PersonRecord(
            f"{draw(st.sampled_from(('', 'north::', 'south::')))}"
            f"{prefix}{number}",
            "h",
            draw(st.sampled_from(NAMES)),
            draw(st.sampled_from(NAMES)),
            draw(st.sampled_from((None, "m", "f"))),
            draw(st.one_of(st.none(), st.integers(min_value=0, max_value=40))),
            role=R.HEAD,
        )
        for number in numbers
    ]
    return draw(st.permutations(records))


def ids_of(records):
    return sorted({record.record_id for record in records})


def assert_same_pairs(blocked, expected, old_records, new_records):
    """``blocked`` behaves as the set ``expected``, and a pair table
    built from it equals one built from the oracle's string pairs."""
    assert isinstance(blocked, BlockedPairs)
    assert isinstance(blocked.keys, array) and blocked.keys.typecode == "q"
    assert blocked == expected and expected == blocked
    assert len(blocked) == len(expected)
    assert list(blocked) == sorted(expected)
    for old_id in ids_of(old_records) + ["zz"]:
        for new_id in ids_of(new_records) + ["zz"]:
            pair = (old_id, new_id)
            assert (pair in blocked) == (pair in expected)
    union = blocked | {("x", "y")}
    assert type(union) is set and union == expected | {("x", "y")}
    old_ids, new_ids = ids_of(old_records), ids_of(new_records)
    assert list(PairTable(old_ids, new_ids, blocked).keys) == list(
        PairTable(old_ids, new_ids, expected).keys
    )


class TestJoin:
    @FORKED
    @given(
        old=side("o"), new=side("n"),
        key_functions=st.sampled_from(KEY_SETS),
        max_block_size=st.sampled_from((0, 1, 2, 3)),
    )
    def test_standard_join_equals_the_string_pair_loop(
        self, fork, old, new, key_functions, max_block_size
    ):
        blocker = StandardBlocker(key_functions, max_block_size)
        assert_same_pairs(
            blocker.candidate_pairs(old, new),
            reference.candidate_pairs(old, new, key_functions, max_block_size),
            old, new,
        )

    @FORKED
    @given(
        old=side("o"), new=side("n"),
        key_functions=st.sampled_from(KEY_SETS),
        max_block_size=st.sampled_from((0, 1, 2, 3)),
    )
    def test_region_join_equals_the_per_region_loop(
        self, fork, old, new, key_functions, max_block_size
    ):
        """The region folded into each code: blocks and the size cap
        stay per region."""
        blocker = RegionBlocker(StandardBlocker(key_functions, max_block_size))
        assert_same_pairs(
            blocker.candidate_pairs(old, new),
            reference.region_candidate_pairs(
                old, new, key_functions, max_block_size
            ),
            old, new,
        )

    def test_keys_from_different_passes_never_join(self, fork):
        """A surname Soundex and a first-name Soundex that collide
        (S530) name two different blocks."""
        old = [PersonRecord("o1", "h", "ann", "smith")]
        new = [PersonRecord("n1", "h", "smyth", "ashworth")]
        assert not StandardBlocker().candidate_pairs(old, new)
        assert StandardBlocker().candidate_pairs(
            old, [PersonRecord("n2", "h", "ann", "smyth")]
        ) == {("o1", "n2")}

    def test_repeated_ids_name_one_row(self, fork):
        record = PersonRecord("o1", "h", "john", "smith")
        new = [PersonRecord("n1", "h", "john", "smyth")]
        blocked = StandardBlocker().candidate_pairs([record, record], new)
        assert blocked.old_ids == ["o1"] and list(blocked) == [("o1", "n1")]

    def test_region_over_another_base_blocks_per_region(self):
        old = [PersonRecord("a::o1", "h"), PersonRecord("b::o2", "h")]
        new = [PersonRecord("a::n1", "h"), PersonRecord("c::n2", "h")]
        assert RegionBlocker(CrossProductBlocker()).candidate_pairs(
            old, new
        ) == {("a::o1", "a::n1")}


class TestBlockedPairsAsASet:
    PAIRS = {("a1", "b1"), ("a1", "b2"), ("a3", "b1")}

    def test_set_operations_return_plain_sets(self):
        old_ids, new_ids = ["a1", "a2", "a3"], ["b1", "b2"]
        blocked = BlockedPairs(old_ids, new_ids, array("q", [0, 1, 4]))
        assert blocked == self.PAIRS and list(blocked) == sorted(self.PAIRS)
        other = {("a1", "b1"), ("z", "z")}
        for result, expected in (
            (blocked | other, self.PAIRS | other),
            (other | blocked, self.PAIRS | other),
            (blocked & other, {("a1", "b1")}),
            (blocked - other, self.PAIRS - other),
        ):
            assert type(result) is set and result == expected
        assert blocked <= self.PAIRS | other
        table = PairTable(old_ids, new_ids, self.PAIRS)
        assert list(table.keys) == list(blocked.keys)

    def test_membership_of_anything_else_is_false(self):
        blocked = BlockedPairs(["a1"], ["b1"], array("q", [0]))
        for item in (("a1",), ("a1", "b1", "c"), (1, 2), "a1", None,
                     ("a1", "b2"), ("a0", "b1")):
            assert item not in blocked
        assert ("a1", "b1") in blocked

    def test_empty_sides(self, fork):
        person = PersonRecord("o1", "h", "john", "smith")
        for old, new in (([], []), ([person], []), ([], [person])):
            blocked = StandardBlocker().candidate_pairs(old, new)
            assert len(blocked) == 0 and blocked == set()
            assert len(PairTable(ids_of(old), ids_of(new), blocked)) == 0


def person(record_id, age, first="john", surname="smith"):
    return PersonRecord(record_id, "h", first, surname, "m", age, role=R.HEAD)


class TestRemainingRowFilter:
    """The remaining pass's age filter on row arrays against the loop
    over id pairs: a missing age on either side passes, a normalised
    gap at the bound passes and one past it does not."""

    OLD = [person("o1", 30), person("o2", None), person("o3", 20)]
    NEW = [
        person("n1", 43),  # o1: gap 3, at the bound
        person("n2", 44),  # o1: gap 4, past it
        person("n3", None),
        person("n4", 30),  # o3: gap 0
    ]

    def indexes(self):
        return (
            {record.record_id: record for record in self.OLD},
            {record.record_id: record for record in self.NEW},
        )

    def test_row_filter_equals_the_loop(self, fork):
        old_index, new_index = self.indexes()
        for blocker in (StandardBlocker(), CrossProductBlocker()):
            pairs = blocker.candidate_pairs(self.OLD, self.NEW)
            kept = plausible_pairs(pairs, old_index, new_index, 10, 3.0)
            expected = reference.plausible_pairs(
                pairs, old_index, new_index, 10, 3.0
            )
            assert list(kept) == expected
            assert ("o1", "n1") in kept and ("o1", "n2") not in kept
            assert ("o2", "n2") in kept and ("o1", "n3") in kept
            assert ("o3", "n4") in kept and ("o3", "n1") not in kept

    def test_match_remaining_counts_the_kept_pairs(self, fork):
        instrumentation = Instrumentation()
        func = build_similarity_function(
            [("first_name", "qgram", 0.5), ("surname", "qgram", 0.5)], 0.8
        )
        match_remaining(
            self.OLD, self.NEW, func, StandardBlocker(), 10, 3.0,
            instrumentation=instrumentation,
        )
        old_index, new_index = self.indexes()
        assert instrumentation.value(REMAINING_PAIRS) == len(
            reference.plausible_pairs(
                reference.candidate_pairs(
                    self.OLD, self.NEW, DEFAULT_KEY_FUNCTIONS
                ),
                old_index, new_index, 10, 3.0,
            )
        )

    def test_capped_blocks_on_a_generated_pair(self, fork, monkeypatch):
        """``max_block_size=8``: the re-blocked leftovers propose pairs
        the table lacks (19, scored lazily), the run gives 108 record
        links, and the pass keeps the oracle's pairs."""
        remaining = import_module("repro.core.remaining")
        calls, beyond = [], []

        def spy_plausible(pairs, old_index, new_index, year_gap, bound):
            kept = plausible_pairs(pairs, old_index, new_index, year_gap,
                                   bound)
            calls.append((old_index, new_index, year_gap, bound, list(kept)))
            return kept

        def spy_lazy(old_rows, new_rows, *args):
            beyond.extend(zip(old_rows, new_rows))
            return _lazy_row_scores(old_rows, new_rows, *args)

        monkeypatch.setattr(remaining, "plausible_pairs", spy_plausible)
        monkeypatch.setattr(remaining, "_lazy_row_scores", spy_lazy)
        old, new = generate_pair(seed=20170321, initial_households=50).datasets
        config = LinkageConfig(scoring_backend="python", max_block_size=8)
        result = link_datasets(old, new, config)
        (old_index, new_index, year_gap, bound, kept), = calls
        expected = reference.plausible_pairs(
            reference.candidate_pairs(
                list(old_index.values()), list(new_index.values()),
                DEFAULT_KEY_FUNCTIONS, 8,
            ),
            old_index, new_index, year_gap, bound,
        )
        assert kept == expected
        assert result.profile.value(REMAINING_PAIRS) == len(expected)
        assert len(beyond) == 19
        assert result.num_record_links == 108
