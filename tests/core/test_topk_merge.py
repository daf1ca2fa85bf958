"""TopK.merge: folding the workers' heaps never changes the ranking.

A pooled search gives each worker its own bounded heap, filled by whichever
tiles that worker claimed, and the coordinator folds the heaps into one.  The fold is exact because of two properties of the heap:
the ``(score, -index)`` comparison is a strict total order (so a tie at a
smaller database index still displaces the k-th entry), and any item
outside its worker's local top-k is dominated by ``k`` items of that worker
(so dropping it locally cannot change the global top-k).  These tests pin
both, with special attention to duplicate scores whose holders land in
different heaps -- the case where a sloppy ``<=`` in the merge would
silently reorder ties.
"""

from __future__ import annotations

import numpy as np

from repro.core.topk import TopK


def global_topk(items: list[tuple[int, int]], k: int) -> list[tuple[int, int]]:
    top = TopK(k)
    for score, index in items:
        top.push(score, index)
    return top.ranked()


def worker_heaps(items: list[tuple[int, int]], owner, n_workers: int, k: int) -> list[TopK]:
    """One heap per worker; ``owner[i]`` is the worker that scored item ``i``."""
    tops = [TopK(k) for _ in range(n_workers)]
    for (score, index), w in zip(items, owner):
        tops[w].push(score, index)
    return tops


def fold(tops: list[TopK], k: int) -> TopK:
    """The coordinator's reduce: every worker heap merged into one."""
    top = TopK(k)
    for worker_top in tops:
        top.merge(worker_top)
    return top


def test_merge_equals_pushing_everything_into_one_heap():
    rng = np.random.default_rng(7)
    items = [(int(rng.integers(0, 50)), i) for i in range(200)]
    a, b = TopK(10), TopK(10)
    for score, index in items[:100]:
        a.push(score, index)
    for score, index in items[100:]:
        b.push(score, index)
    a.merge(b)
    assert a.ranked() == global_topk(items, 10)


def test_merge_accepts_a_plain_items_list():
    a = TopK(3)
    a.push(5, 0)
    a.merge([(7, 3), (5, 1)])
    assert a.ranked() == [(7, 3), (5, 0), (5, 1)]


def test_duplicate_scores_split_across_worker_heaps():
    # Five sequences all score 9; k=3 keeps the three smallest indices.
    # Dealing them over several workers puts e.g. {0, 2, 4} and {1, 3} in
    # different heaps, so the survivors {0, 1, 2} only emerge at merge time
    # -- and only if the tie at the k-th entry is resolved by index, not
    # arrival.
    items = [(9, i) for i in range(5)]
    expected = [(9, 0), (9, 1), (9, 2)]
    for n_workers in (2, 3, 4, 5):
        owner = [i % n_workers for i in range(len(items))]
        tops = worker_heaps(items, owner, n_workers, 3)
        assert fold(tops, 3).ranked() == expected, n_workers
        assert fold(tops[::-1], 3).ranked() == expected, n_workers


def test_tie_with_the_kth_entry_displaces_it_when_the_index_is_smaller():
    a = TopK(2)
    a.push(9, 4)
    a.push(9, 7)  # heap full: threshold is 9
    b = TopK(2)
    b.push(9, 1)  # same score, smaller index: must displace index 7
    a.merge(b)
    assert a.ranked() == [(9, 1), (9, 4)]


def test_merge_order_and_pairing_do_not_matter():
    """Any split of the items over the workers, folded in any order."""
    rng = np.random.default_rng(11)
    # Heavy score collisions: only ~8 distinct scores over 300 items.
    items = [(int(rng.integers(0, 8)), i) for i in range(300)]
    expected = global_topk(items, 5)
    for n_workers in (1, 2, 3, 4, 7, 8):
        owner = rng.integers(0, n_workers, len(items))
        tops = worker_heaps(items, owner, n_workers, 5)
        for order in (range(n_workers), reversed(range(n_workers)), rng.permutation(n_workers)):
            assert fold([tops[w] for w in order], 5).ranked() == expected, n_workers


def test_fold_fuzz_against_one_heap():
    rng = np.random.default_rng(23)
    for trial in range(25):
        n = int(rng.integers(1, 120))
        k = int(rng.integers(1, 12))
        n_workers = int(rng.integers(1, 9))
        items = [(int(rng.integers(-5, 15)), i) for i in range(n)]
        tops = worker_heaps(items, rng.integers(0, n_workers, n), n_workers, k)
        order = rng.permutation(n_workers)
        assert fold([tops[w] for w in order], k).ranked() == global_topk(items, k), (
            trial,
            n,
            k,
            n_workers,
        )


def test_k_zero_heaps_merge_to_nothing():
    tops = [TopK(0), TopK(0)]
    tops[0].push(5, 1)
    tops[1].merge([(9, 0)])
    assert fold(tops, 0).ranked() == []
