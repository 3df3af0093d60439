"""Columnar encoding of record attributes for the batch scoring kernel.

The per-pair reference path (:meth:`SimilarityFunction.agg_sim`, Eq. 3,
and :meth:`CandidateFilter.evaluate`) re-derives the same per-string
facts — normalised length, q-gram multiset, exact-match key — for every
candidate pair a record appears in.  This module computes those facts
**once per distinct attribute value per run** and lays them out in flat
arrays the kernel can gather from with integer indexing:

``EncodedColumn`` (one per dataset × compared attribute)
    ========================  ==================================================
    ``missing[row]``          bool — value missing per ``_is_missing``
    ``codes[row]``            int64 — index into the distinct-value tables
                              below (0 is a reserved dummy for missing rows)
    ``values[code]``          the raw distinct value (scalar-comparator
                              fallback and debugging; ``values[0] is None``)
    ``norm_len[code]``        int64 — :func:`normalised_length` of the value
                              (length-bounded comparators)
    ``gram_count[code]``      int64 — q-gram multiset size, equal to what
                              :func:`repro.core.filtering.qgram_count`
                              computes (q-gram comparators)
    ``bits[w][code]``         uint64 — the value's token set as a bitset,
                              word-major: token ``t`` is bit ``t % 64`` of
                              word ``t // 64``; ``ceil(tokens / 64)`` words
                              over the tokens known when the column was
                              encoded (q-gram comparators)
    ``eq_codes[code]``        int64 — id of the comparator-normalised string
                              (``exact_similarity`` comparators): two codes
                              are an exact match iff their ``eq_codes`` agree
    ========================  ==================================================

Two tricks make the numbers land bit-identically to the scalar path:

* **Occurrence expansion** — q-gram similarity is defined over gram
  *multisets* (Eq. 3 uses Dice over ``Counter`` overlap).  The encoder
  maps the *k*-th occurrence of gram ``g`` in a string to the distinct
  token ``vocab[(g, k)]``, so each string's tokens form a plain set and
  multiset overlap (Σ min counts) becomes exact set intersection: the
  popcount of the AND of two bitsets (see
  :meth:`BatchScoringKernel._common_grams`).
* **Shared vocabularies** — the token vocabulary and the exact-match
  normalisation table are shared between the old and new dataset of one
  attribute, so cross-dataset comparisons reduce to integer equality.

Arrays are plain numpy; the whole encoding is picklable and is shipped
to scoring workers once per pool via the initializer, exactly like the
record indexes in :mod:`repro.core.parallel`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as np
except ImportError:  # pragma: no cover - exercised via the fallback test
    np = None

from ...model.records import PersonRecord
from ...similarity.qgram import qgrams
from ...similarity.vector import SimilarityFunction, _is_missing
from ..filtering import (
    CMP_EXACT,
    CMP_LENGTH,
    CMP_QGRAM2,
    CMP_QGRAM3,
    comparator_tag,
    normalised_length,
)

#: True when numpy is importable.
HAVE_NUMPY = np is not None
#: True when numpy has ``bitwise_count`` (numpy >= 2.0), which counts
#: the common q-grams of two bitsets.
HAVE_BITWISE_COUNT = HAVE_NUMPY and hasattr(np, "bitwise_count")


class EncodedColumn:
    """One dataset's encoded view of one compared attribute.

    See the module docstring for the array layout.  Fields irrelevant to
    the attribute's comparator class stay ``None`` (e.g. no bitsets for
    an exact comparator).
    """

    __slots__ = (
        "missing",
        "codes",
        "values",
        "norm_len",
        "gram_count",
        "bits",
        "eq_codes",
    )

    def __init__(self, missing, codes, values, norm_len, gram_count,
                 bits, eq_codes) -> None:
        self.missing = missing
        self.codes = codes
        self.values = values
        self.norm_len = norm_len
        self.gram_count = gram_count
        self.bits = bits
        self.eq_codes = eq_codes

    @property
    def n_distinct(self) -> int:
        """Distinct-value table size, including the dummy at code 0."""
        return len(self.values)

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)


class ColumnEncoder:
    """Builds the :class:`EncodedColumn` of one attribute for both
    datasets, sharing the token / exact-normalisation vocabularies so
    cross-dataset comparisons are pure integer arithmetic."""

    def __init__(self, attribute: str, tag: str) -> None:
        self.attribute = attribute
        self.tag = tag
        self.q = 2 if tag == CMP_QGRAM2 else 3
        #: (gram, occurrence index) -> token id, shared old/new.
        self._token_vocab: Dict[Tuple[str, int], int] = {}
        #: normalised string -> exact-match id, shared old/new.  Id 0 is
        #: reserved for the dummy (missing) entry of either column.
        self._eq_vocab: Dict[str, int] = {}

    @property
    def n_tokens(self) -> int:
        """Token vocabulary size after all ``encode`` calls."""
        return len(self._token_vocab)

    def _tokens_of(self, value: object) -> List[int]:
        """Occurrence-expanded token ids of a value's q-grams (a set)."""
        seen: Dict[str, int] = {}
        tokens: List[int] = []
        vocab = self._token_vocab
        for gram in qgrams(value, self.q, padded=True):
            occurrence = seen.get(gram, 0)
            seen[gram] = occurrence + 1
            key = (gram, occurrence)
            token = vocab.get(key)
            if token is None:
                token = len(vocab)
                vocab[key] = token
            tokens.append(token)
        return tokens

    def encode(self, records: Sequence[PersonRecord]) -> EncodedColumn:
        """Encode one dataset's column.  Call once per dataset; calls
        share (and grow) the vocabularies."""
        tag = self.tag
        is_qgram = tag in (CMP_QGRAM2, CMP_QGRAM3)
        missing = np.zeros(len(records), dtype=bool)
        codes = np.zeros(len(records), dtype=np.int64)
        # Code 0 is a dummy so per-distinct gathers never index an empty
        # table when a whole column is missing; its stats are all-zero
        # and every read through it is masked by ``missing``.
        value_codes: Dict[object, int] = {}
        values: List[object] = [None]
        norm_len: List[int] = [0]
        gram_count: List[int] = [0]
        owners: List[int] = []  # code of each token in ``tokens``
        tokens: List[int] = []
        eq_codes: List[int] = [0]

        for row, record in enumerate(records):
            value = record.get(self.attribute)
            if _is_missing(value):
                missing[row] = True
                continue  # codes[row] stays 0 (dummy)
            code = value_codes.get(value)
            if code is None:
                code = len(values)
                value_codes[value] = code
                values.append(value)
                if is_qgram:
                    # The comparator receives the raw value (so does
                    # qgrams here); the *bound* normalises via str() as
                    # CandidateFilter._string_bound does.
                    own = self._tokens_of(value)
                    tokens.extend(own)
                    owners.extend([code] * len(own))
                    gram_count.append(len(own))
                    norm_len.append(normalised_length(str(value)))
                elif tag == CMP_LENGTH:
                    norm_len.append(normalised_length(str(value)))
                elif tag == CMP_EXACT:
                    normalised = " ".join(str(value).lower().split())
                    eq_code = self._eq_vocab.get(normalised)
                    if eq_code is None:
                        # Start at 1: 0 is the dummy rows' id.
                        eq_code = len(self._eq_vocab) + 1
                        self._eq_vocab[normalised] = eq_code
                    eq_codes.append(eq_code)
            codes[row] = code

        as_i64 = lambda data: np.asarray(data, dtype=np.int64)  # noqa: E731
        return EncodedColumn(
            missing=missing,
            codes=codes,
            values=values,
            norm_len=(
                as_i64(norm_len)
                if is_qgram or tag == CMP_LENGTH
                else None
            ),
            gram_count=as_i64(gram_count) if is_qgram else None,
            bits=(
                _pack_bits(owners, tokens, len(values), self.n_tokens)
                if is_qgram
                else None
            ),
            eq_codes=as_i64(eq_codes) if tag == CMP_EXACT else None,
        )


def _pack_bits(owners: List[int], tokens: List[int], n_codes: int,
               n_tokens: int):
    """Word-major uint64 bitsets of ``n_codes`` token sets: bit ``t % 64``
    of ``bits[t // 64][code]`` is set iff token ``t`` belongs to
    ``code`` (``owners[i]`` owns ``tokens[i]``)."""
    bits = np.zeros(((n_tokens + 63) // 64, n_codes), dtype=np.uint64)
    token_ids = np.asarray(tokens, dtype=np.int64)
    np.bitwise_or.at(
        bits,
        (token_ids >> 6, np.asarray(owners, dtype=np.int64)),
        np.left_shift(np.uint64(1), (token_ids & 63).astype(np.uint64)),
    )
    return bits


def encode_columns(
    sim_func: SimilarityFunction,
    old_records: Sequence[PersonRecord],
    new_records: Sequence[PersonRecord],
) -> Tuple[List[EncodedColumn], List[EncodedColumn]]:
    """Encode every compared attribute of both datasets.

    Returns ``(old_columns, new_columns)`` with one entry per comparator
    of ``sim_func``, in comparator order.
    """
    if np is None:  # pragma: no cover - guarded by build_scoring_kernel
        raise RuntimeError("numpy is required to encode kernel columns")
    old_columns: List[EncodedColumn] = []
    new_columns: List[EncodedColumn] = []
    for item in sim_func.comparators:
        encoder = ColumnEncoder(item.attribute, comparator_tag(item.comparator))
        old_columns.append(encoder.encode(old_records))
        new_columns.append(encoder.encode(new_records))
    return old_columns, new_columns
