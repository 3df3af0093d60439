"""An id-keyed score cache: the reference the similarity cache's
row-keyed lazy LRU is checked against.

:class:`repro.core.simcache.SimilarityCache` names every pair by its
rows in a pair table and keys its lazy LRU by the pair's integer key.
The class here does the same bookkeeping the plain way, over
``(old id, new id)`` tuples: a blocked pair's exact score is pinned in a
dict and never evicted; any other pair's lives in an ``OrderedDict``,
least recently used first, which a hit refreshes and which evicts its
oldest entry beyond the cap.
"""

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Pair = Tuple[str, str]


class IdKeyedCache:
    """Pinned scores of blocked pairs plus an id-keyed lazy LRU."""

    def __init__(
        self, blocked: Iterable[Pair], max_lazy_entries: Optional[int]
    ) -> None:
        self.blocked = set(blocked)
        self.max_lazy_entries = max_lazy_entries or None
        self.pinned: Dict[Pair, float] = {}
        self.lazy: "OrderedDict[Pair, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, pairs: Sequence[Pair]) -> List[Optional[float]]:
        """The score of each pair (each at most once), ``None`` on a
        miss; each pair counts one hit or one miss."""
        scores = []
        for pair in pairs:
            if pair in self.blocked:
                score = self.pinned.get(pair)
            else:
                score = self.lazy.get(pair)
                if score is not None:
                    self.lazy.move_to_end(pair)
            if score is None:
                self.misses += 1
            else:
                self.hits += 1
            scores.append(score)
        return scores

    def add(self, pairs: Sequence[Pair], scores: Sequence[float]) -> None:
        """Store exact scores, in order, each in its pair's home."""
        for pair, score in zip(pairs, scores):
            if pair in self.blocked:
                self.pinned[pair] = score
                continue
            self.lazy[pair] = score
            self.lazy.move_to_end(pair)
            if (
                self.max_lazy_entries is not None
                and len(self.lazy) > self.max_lazy_entries
            ):
                self.lazy.popitem(last=False)
                self.evictions += 1

    def lazy_rows(self) -> List[list]:
        """The lazy entries as ``[old_id, new_id, score]`` rows, least
        recently used first."""
        return [[old_id, new_id, score]
                for (old_id, new_id), score in self.lazy.items()]
