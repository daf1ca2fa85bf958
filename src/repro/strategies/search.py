"""One-query-vs-many-targets database search (the serving workload).

Every other pipeline in this repository compares one sequence *pair*; the
dominant real workload (SWAPHI's inter-task database search, ALAE's exact
database local alignment -- see PAPERS.md) is a query scanned against a
whole database of targets.  :func:`search_db` is that pipeline:

1. the database is packed into length buckets
   (:func:`repro.seq.pack_database`), each a padded code matrix;
2. each bucket is scanned by a :class:`repro.core.MultiSequenceWorkspace`,
   which advances all lanes per numpy call (batch axis = SIMD lane axis);
3. per-lane best scores feed a bounded :class:`TopK` heap keyed by
   ``(score, -index)``, so results are deterministic -- byte-identical to a
   sequential scan -- no matter how buckets are ordered or which worker
   scans them.

:func:`search_db` has two routes, and neither depends on the backend: an
unpruned scan plans one graph over the whole database, and the pruned
search (:func:`repro.strategies.prefilter.pruned_search`) plans a seed
graph and a survivor graph.  Every graph goes through
:func:`repro.strategies.prefilter.scan_packed` and runs inline, or -- given
a :class:`repro.parallel.AlignmentWorkerPool` -- on the pool, which
publishes the blob once through a shared-memory arena and lets workers
claim the next bucket from a shared cursor when free, so a skewed bucket
cannot stall the rest of the pool (see ``pool.run_search_plan``).

:func:`search_db_sequential` is the one-at-a-time reference the batched
path is verified (and benchmarked) against; it scans numpy rows of
:class:`repro.core.engine.NumpyWorkspace`, never the compiled loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.engine import NumpyWorkspace
from ..core.linear import sw_blocks
from ..core.scoring import DEFAULT_SCORING, Scoring
from ..core.topk import TopK
from ..obs import gcups, get_metrics, get_tracer, is_enabled
from ..obs.ledger import record_run
from ..obs.trace import Stopwatch
from ..plan import plan_search_buckets  # noqa: F401  (perfbench/layers.py wraps this name)
from ..seq.alphabet import encode
from ..seq.db import PackedDatabase, content_digest, pack_database
from .cache import DEFAULT_CACHE, cache_key
from .prefilter import pruned_search, resolve_prefilter, scan_packed

__all__ = [
    "SearchConfig",
    "SearchHit",
    "SearchResult",
    "search_db",
    "search_db_sequential",
    "sequential_best_score",
]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one database search.

    ``kernel`` selects the bucket scan: "classic" is the dense
    :class:`repro.core.MultiSequenceWorkspace`, "striped" the query-profile
    kernel of :mod:`repro.core.striped`.  Packing knobs left as ``None``
    resolve per kernel: the striped scan amortizes its per-plane dispatch
    over the lane axis, so it wants far wider buckets (4096 lanes, 50%
    padding) than the classic one (512 lanes, 15%).
    """

    top_k: int = 10
    max_lanes: int | None = None
    max_waste: float | None = None
    scoring: Scoring = DEFAULT_SCORING
    kernel: str = "classic"
    #: Exact score-bound pruning mode: "off", "composition" (length +
    #: composition tiers), "kmer" (all three tiers), or "auto" (kmer tiers,
    #: but disabled below :data:`repro.strategies.prefilter.AUTO_MIN_SEQUENCES`
    #: sequences where the bounds cost more than they save).  Pruning never
    #: changes rankings -- only which sequences pay for a DP scan.
    prefilter: str = "auto"
    #: Consult (and populate) the process-wide content-addressed result
    #: cache (:data:`repro.strategies.cache.DEFAULT_CACHE`).  A hit skips
    #: planning and every DP tile.
    cache: bool = False

    @property
    def resolved_max_lanes(self) -> int:
        if self.max_lanes is not None:
            return self.max_lanes
        return 4096 if self.kernel == "striped" else 512

    @property
    def resolved_max_waste(self) -> float:
        if self.max_waste is not None:
            return self.max_waste
        return 0.5 if self.kernel == "striped" else 0.15


@dataclass(frozen=True)
class SearchHit:
    """One ranked database hit."""

    score: int
    index: int
    name: str
    length: int


@dataclass
class SearchResult:
    """Outcome of one query-vs-database search."""

    hits: list[SearchHit]
    n_sequences: int
    total_cells: int
    wall_seconds: float
    n_workers: int = 1
    backend: str = "batched"
    #: Bound tiers that ran ("off" when pruning was disabled or inactive).
    prefilter: str = "off"
    #: Sequences the admissible bounds proved out of the top-k (no DP scan).
    sequences_pruned: int = 0
    #: DP cells those pruned sequences would have cost.
    cells_skipped: int = 0
    #: True when this result was served from the content-addressed cache
    #: (no planning, no DP tiles -- ``wall_seconds`` is the probe time).
    cached: bool = False

    @property
    def gcups(self) -> float:
        """Effective throughput: geometric cells over wall time.

        ``total_cells`` stays the full query x database geometry even when
        pruning skipped most of it -- that is the point: skipped cells make
        the *effective* rate exceed the kernel's raw rate.
        """
        return gcups(self.total_cells, self.wall_seconds)

    @property
    def pruned_fraction(self) -> float:
        return self.sequences_pruned / self.n_sequences if self.n_sequences else 0.0

    def scores(self) -> list[tuple[int, int]]:
        """The ``(score, index)`` ranking (comparison-friendly form)."""
        return [(h.score, h.index) for h in self.hits]


def _as_packed(database, config: SearchConfig) -> PackedDatabase:
    if isinstance(database, PackedDatabase):
        return database
    return pack_database(
        database,
        max_lanes=config.resolved_max_lanes,
        max_waste=config.resolved_max_waste,
    )


def _hits(packed: PackedDatabase, ranked: list[tuple[int, int]]) -> list[SearchHit]:
    return [
        SearchHit(score, index, packed.names[index], int(packed.lengths[index]))
        for score, index in ranked
    ]


def search_db(
    query,
    database,
    config: SearchConfig | None = None,
    pool=None,
) -> SearchResult:
    """Best local-alignment score of ``query`` against every database record.

    ``database`` is a :class:`repro.seq.PackedDatabase` or any iterable of
    FASTA records / ``(name, codes)`` tuples (packed on the fly).  Pass an
    :class:`repro.parallel.AlignmentWorkerPool` as ``pool`` to fan buckets
    out over persistent workers; otherwise the scan runs in-process.
    """
    config = config or SearchConfig()
    if config.top_k < 0:
        # Here, not in the workers: a pool would report it as a job error.
        raise ValueError("top_k must be non-negative")
    query = encode(query)
    packed = _as_packed(database, config)
    tiers = resolve_prefilter(config.prefilter, packed.n_sequences)
    key = digest = None
    tracer = get_tracer()
    if config.cache:
        # Probe *before* the search span and any planning: a hit must leave
        # no span but the probe's behind -- its only cost is the probe itself.
        with tracer.span("cache_probe", "computation"):
            digest = content_digest(packed)
            key = cache_key(query, digest, config.scoring, config.top_k, tiers)
            with Stopwatch() as probe:
                hit = DEFAULT_CACHE.get(key)
        if hit is not None:
            hit.wall_seconds = probe.elapsed
            return hit
    cells = int(len(query)) * packed.total_residues
    with Stopwatch() as sw, tracer.span(
        "search_db",
        "phase",
        sequences=packed.n_sequences,
        buckets=len(packed.buckets),
        cells=cells,
        prefilter=",".join(tiers) or "off",
    ):
        if tiers:
            ranked, pruned, skipped = pruned_search(query, packed, config, tiers, pool)
        else:
            ranked = scan_packed(query, packed, config, pool)
            pruned = skipped = 0
    n_workers = 1 if pool is None else pool.n_workers
    if is_enabled():
        metrics = get_metrics()
        metrics.gauge("search_seconds").set(sw.elapsed)
        metrics.gauge("search_gcups").set(gcups(cells, sw.elapsed))
    record_run(
        "search-pool" if pool is not None else "search-inline",
        {
            "search_seconds": sw.elapsed,
            "search_gcups": gcups(cells, sw.elapsed),
        },
        config={
            "kernel": config.kernel,
            "top_k": config.top_k,
            "n_workers": n_workers,
            "sequences": packed.n_sequences,
            "buckets": len(packed.buckets),
            "query_bp": int(len(query)),
            "prefilter": ",".join(tiers) or "off",
            "sequences_pruned": pruned,
            "cache": config.cache,
        },
    )
    result = SearchResult(
        hits=_hits(packed, ranked),
        n_sequences=packed.n_sequences,
        total_cells=cells,
        wall_seconds=sw.elapsed,
        n_workers=n_workers,
        backend=("striped" if config.kernel == "striped" else "batched")
        if pool is None
        else "pool",
        prefilter=",".join(tiers) or "off",
        sequences_pruned=pruned,
        cells_skipped=skipped,
    )
    if key is not None:
        DEFAULT_CACHE.put(key, digest, result)
    return result


def sequential_best_score(query: np.ndarray, target: np.ndarray, scoring: Scoring) -> int:
    """Best local score via one pairwise scan of numpy rows.

    Runs on :class:`NumpyWorkspace`, never the compiled loop, so the
    reference stays independent of the C it checks.
    """
    best = 0
    for _, rows in sw_blocks(NumpyWorkspace(target, scoring), query):
        best = max(best, int(rows.max()))
    return best


def search_db_sequential(
    query,
    database,
    config: SearchConfig | None = None,
) -> SearchResult:
    """One-at-a-time reference scan (differential testing and benchmarking)."""
    config = config or SearchConfig()
    query = encode(query)
    packed = _as_packed(database, config)
    top = TopK(config.top_k)
    with Stopwatch() as sw:
        for bucket in packed.buckets:
            for lane in range(bucket.lanes):
                width = int(bucket.lengths[lane])
                score = sequential_best_score(
                    query, bucket.codes[lane, :width], config.scoring
                )
                top.push(score, int(bucket.indices[lane]))
    return SearchResult(
        hits=_hits(packed, top.ranked()),
        n_sequences=packed.n_sequences,
        total_cells=int(len(query)) * packed.total_residues,
        wall_seconds=sw.elapsed,
        n_workers=1,
        backend="sequential",
    )
