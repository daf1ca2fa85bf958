"""Bounded top-k selection with deterministic tie-breaking.

Used by the database-search pipeline: workers (or the inline scan) keep a
local heap of the best ``(score, db_index)`` pairs and the coordinator merges
them.  Because the comparison key ``(score, -index)`` is a total order, the
surviving set -- and therefore the final ranking -- does not depend on
insertion order, so any interleaving of workers yields byte-identical
results to a sequential scan.
"""

from __future__ import annotations

import heapq

import numpy as np


class TopK:
    """A bounded max-score heap with deterministic tie-breaking.

    Entries are ``(score, db_index)``; ordering is by score descending then
    index ascending.  Because the comparison key ``(score, -index)`` is a
    total order, the surviving set (and therefore :meth:`ranked`) does not
    depend on insertion order -- workers may push in any interleaving.
    """

    __slots__ = ("k", "_heap")

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = k
        self._heap: list[tuple[int, int]] = []

    def push(self, score: int, index: int) -> None:
        if self.k == 0:
            return
        entry = (score, -index)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
        elif entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)

    def push_lanes(self, scores: np.ndarray, indices: np.ndarray) -> None:
        """Push one bucket's per-lane best scores."""
        for lane in range(len(indices)):
            self.push(int(scores[lane]), int(indices[lane]))

    def merge(self, other: "TopK | list | tuple") -> None:
        """Fold another heap (or a heap's :meth:`items` list) into this one.

        Accepts either a :class:`TopK` or a plain iterable of
        ``(score, index)`` pairs (a pool worker's :meth:`items`).  Merging
        goes through :meth:`push`, so the strict total order
        ``(score, -index)`` decides every survivor: a tie with this heap's
        k-th entry at a *smaller* database index still displaces it, exactly
        as if both heaps' entries had been pushed into one heap from the
        start.  That invariance is what makes folding the workers' heaps in
        any order bitwise-equal to a sequential scan: an entry outside one
        worker's local top-k is dominated by ``k`` entries of that worker,
        so dropping it locally loses nothing.
        """
        items = other.items() if isinstance(other, TopK) else other
        for score, index in items:
            self.push(score, index)

    def threshold(self) -> float:
        """Score a candidate must *beat or tie* to enter the current top-k.

        The k-th best score seen so far, ``-inf`` while the heap is underfull
        (anything can still enter), ``+inf`` for ``k == 0`` (nothing can).
        Exact pruning must be strict -- drop a candidate only when its score
        ceiling is ``< threshold()`` -- because a tie with the k-th entry at a
        smaller database index still displaces it.
        """
        if self.k == 0:
            return float("inf")
        if len(self._heap) < self.k:
            return float("-inf")
        return float(self._heap[0][0])

    def items(self) -> list[tuple[int, int]]:
        """Unordered ``(score, index)`` survivors (picklable)."""
        return [(score, -neg) for score, neg in self._heap]

    def ranked(self) -> list[tuple[int, int]]:
        """Survivors sorted by score descending, index ascending."""
        return sorted(self.items(), key=lambda e: (-e[0], e[1]))
