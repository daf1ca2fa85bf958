"""Sequence databases: streaming FASTA ingestion and length-bucketed packing.

A database search (one query vs. many targets) wants its targets packed
into the batches :class:`repro.core.MultiSequenceWorkspace` consumes: each
batch one padded ``(k, n)`` code matrix of similar-length sequences, so the
SIMD lanes waste as little work on padding as possible.  This module
provides the ingestion side:

* :func:`repro.seq.stream_fasta` (in :mod:`repro.seq.fasta`) --
  record-at-a-time FASTA reading, so a multi-gigabyte database never has to
  fit in memory at once.
* :func:`pack_database` -- a greedy length-bucket packer.  Records are
  buffered in windows, sorted by length, and cut into buckets whose shortest
  lane is within ``max_waste`` of the bucket width; each bucket is capped at
  ``max_lanes`` lanes so buckets double as the dispatch chunks of the
  dynamic work queue in :func:`repro.strategies.search_db`.
* :func:`synthetic_database` -- seeded random databases for benchmarks, CI
  smoke runs and the ``generate-db`` CLI subcommand.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..core.bounds import BoundIndex, build_bound_index
from ..core.multi_engine import PAD_CODE, pack_codes
from ..obs import get_tracer
from .fasta import FastaRecord
from .random_dna import random_dna


@dataclass(frozen=True)
class PackedBucket:
    """One length bucket: ``k`` similar-length targets in a padded matrix.

    ``codes`` is the ``(k, n)`` uint8 matrix (:data:`repro.core.PAD_CODE`
    padding), ``lengths`` the real per-lane lengths, and ``indices`` each
    lane's position in the original database order (packing permutes
    records, results must not).
    """

    codes: np.ndarray
    lengths: np.ndarray
    indices: np.ndarray

    @property
    def lanes(self) -> int:
        return int(self.codes.shape[0])

    @property
    def width(self) -> int:
        return int(self.codes.shape[1])

    @property
    def cells_per_query_row(self) -> int:
        """Real (non-padded) DP cells one query character costs this bucket."""
        return int(self.lengths.sum())


@dataclass
class PackedDatabase:
    """A whole database packed into dispatchable length buckets.

    ``names``/``lengths`` are indexed by the *original* record order; bucket
    ``indices`` map lanes back to it.
    """

    buckets: list[PackedBucket]
    names: list[str]
    lengths: np.ndarray
    _digest: str | None = field(default=None, repr=False, compare=False)
    _bound_index: dict[int | None, list[BoundIndex]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n_sequences(self) -> int:
        return len(self.names)

    @property
    def total_residues(self) -> int:
        return int(self.lengths.sum()) if len(self.names) else 0

    @property
    def padded_slots(self) -> int:
        """Total matrix slots including padding (packing-quality metric)."""
        return sum(b.lanes * b.width for b in self.buckets)

    def bound_index(self, k: int | None) -> list[BoundIndex]:
        """Per-bucket :class:`~repro.core.bounds.BoundIndex` (memoised per ``k``).

        Built on first use -- only a search whose prefilter tiers resolve on
        asks -- and reused by every later query against this instance.
        ``k=None`` holds letter counts only.  Re-packed databases
        (:func:`pack_subset`, :func:`shard_database`) start without one.
        """
        cached = self._bound_index.get(k)
        if cached is None:
            tracer = get_tracer()
            with tracer.span(
                "prefilter_index", "computation", k=k, buckets=len(self.buckets)
            ) as span:
                cached = [build_bound_index(b.codes, k) for b in self.buckets]
                if tracer.enabled:  # the disabled tracer's span takes no args
                    nbytes = sum(index.nbytes for index in cached)
                    span.args["bytes"] = nbytes  # type: ignore[union-attr]
            self._bound_index[k] = cached
        return cached


def _pack_buffer(
    buffer: list[tuple[int, np.ndarray]],
    buckets: list[PackedBucket],
    max_lanes: int,
    max_waste: float,
) -> None:
    """Cut one ``(db index, codes)`` buffer into buckets (appended, cleared).

    Sorts by length descending, cuts whenever a bucket reaches ``max_lanes``
    lanes or the next sequence would pad more than ``max_waste`` of the
    bucket width, then restores database order within each bucket so equal
    scores rank identically to a sequential scan.
    """
    if not buffer:
        return
    buffer.sort(key=lambda item: -len(item[1]))
    start = 0
    while start < len(buffer):
        width = len(buffer[start][1])
        floor = (1.0 - max_waste) * width
        stop = start + 1
        while (
            stop < len(buffer)
            and stop - start < max_lanes
            and len(buffer[stop][1]) >= floor
        ):
            stop += 1
        run = sorted(buffer[start:stop], key=lambda item: item[0])
        codes, lane_lengths = pack_codes([c for _, c in run], width=width)
        buckets.append(
            PackedBucket(
                codes=codes,
                lengths=lane_lengths,
                indices=np.array([i for i, _ in run], dtype=np.int64),
            )
        )
        start = stop
    buffer.clear()


def _check_packing(max_lanes: int, max_waste: float) -> None:
    if max_lanes <= 0:
        raise ValueError("max_lanes must be positive")
    if not 0.0 <= max_waste < 1.0:
        raise ValueError("max_waste must be in [0, 1)")


def pack_database(
    records: Iterable[FastaRecord | tuple[str, np.ndarray]],
    max_lanes: int = 512,
    max_waste: float = 0.15,
    window: int = 8192,
) -> PackedDatabase:
    """Greedily pack a record stream into length buckets.

    Records are buffered ``window`` at a time and cut into buckets by
    :func:`_pack_buffer`; buckets double as the dispatch chunks of the
    search work queue.
    """
    _check_packing(max_lanes, max_waste)
    names: list[str] = []
    lengths: list[int] = []
    buckets: list[PackedBucket] = []
    buffer: list[tuple[int, np.ndarray]] = []  # (db index, codes)

    def flush() -> None:
        _pack_buffer(buffer, buckets, max_lanes, max_waste)

    for record in records:
        name, codes = (record.name, record.codes) if isinstance(record, FastaRecord) else record
        index = len(names)
        names.append(name)
        lengths.append(int(len(codes)))
        buffer.append((index, np.asarray(codes, dtype=np.uint8)))
        if len(buffer) >= window:
            flush()
    flush()
    return PackedDatabase(
        buckets=buckets, names=names, lengths=np.array(lengths, dtype=np.int64)
    )


def _lane_table(packed: PackedDatabase) -> tuple[np.ndarray, ...]:
    """Every lane of ``packed`` as parallel ``(bucket, row, index, length)`` arrays."""
    buckets = packed.buckets
    if not buckets:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    lanes = [b.lanes for b in buckets]
    first = np.repeat(np.cumsum(lanes) - lanes, lanes)  # each lane's bucket start
    return (
        np.repeat(np.arange(len(buckets)), lanes),
        np.arange(first.size) - first,
        np.concatenate([b.indices for b in buckets]).astype(np.int64, copy=False),
        np.concatenate([b.lengths for b in buckets]).astype(np.int64, copy=False),
    )


def _repack(
    packed: PackedDatabase,
    table: tuple[np.ndarray, ...],
    picked: np.ndarray,
    max_lanes: int,
    max_waste: float,
) -> PackedDatabase:
    """Cut the ``picked`` lanes of ``table`` into fresh buckets.

    The same buckets :func:`_pack_buffer` cuts from the lanes' index-sorted
    ``(index, codes)`` buffer, bit for bit, but gathered from the source
    matrices a (new bucket, source bucket) block at a time.
    """
    source, row, index, length = (column[picked] for column in table)
    order = np.lexsort((index, -length))  # length descending, then index
    buckets: list[PackedBucket] = []
    start = 0
    while start < order.size:
        width = int(length[order[start]])
        floor = (1.0 - max_waste) * width
        # Lengths descend along ``order``, so the lanes >= floor are a prefix.
        window = length[order[start : start + max_lanes]]
        run = order[start : start + int(np.count_nonzero(window >= floor))]
        run = run[np.argsort(index[run])]
        codes = np.full((run.size, width), PAD_CODE, dtype=np.uint8)
        run_source = source[run]
        for b in set(run_source.tolist()):
            at = np.flatnonzero(run_source == b)
            src = packed.buckets[b].codes
            # Source rows are PAD_CODE past their length, as packing leaves them.
            span = min(width, src.shape[1])
            codes[at, :span] = src[row[run[at]], :span]
        buckets.append(PackedBucket(codes=codes, lengths=length[run], indices=index[run]))
        start += run.size
    return PackedDatabase(buckets=buckets, names=packed.names, lengths=packed.lengths)


def pack_subset(
    packed: PackedDatabase,
    indices,
    max_lanes: int = 512,
    max_waste: float = 0.15,
) -> PackedDatabase:
    """Re-pack a subset of an already-packed database into fresh buckets.

    The pruned search path uses this twice: to cut the seed prefix into its
    own graph, and to re-pack filter survivors so lane occupancy stays high
    before shipping to the pool.  Lanes keep their **original** database
    indices (so rankings merge exactly with hits from other subsets), and
    ``names``/``lengths`` stay the full original arrays -- ``n_sequences`` /
    ``total_residues`` of the returned database therefore describe the
    *original* database, not the subset.
    """
    _check_packing(max_lanes, max_waste)
    wanted = np.asarray(indices, dtype=np.int64).reshape(-1)
    table = _lane_table(packed)
    is_wanted = np.zeros(packed.n_sequences, dtype=bool)
    known = (wanted >= 0) & (wanted < is_wanted.size)
    is_wanted[wanted[known]] = True
    _, _, lane_index, _ = table
    picked = np.flatnonzero(is_wanted[lane_index])
    missing = int(is_wanted.sum()) - picked.size + len(set(wanted[~known].tolist()))
    if missing:
        raise ValueError(f"{missing} requested indices are not in the database")
    return _repack(packed, table, picked, max_lanes, max_waste)


def shard_database(
    packed: PackedDatabase,
    n_shards: int,
    max_lanes: int = 512,
    max_waste: float = 0.15,
) -> list[PackedDatabase]:
    """Split a packed database into ``n_shards`` disjoint bucket sets.

    Sequences are dealt round-robin by original database index
    (``index % n_shards``), the paper's "scattered" mapping: consecutive
    records land on different shards, so length (and therefore DP cost)
    correlated with database order spreads evenly instead of loading one
    shard with all the long targets.  Each shard is re-packed into its own
    length buckets; lanes keep their **original** database indices, and
    every shard carries the full ``names``/``lengths`` arrays (like
    :func:`pack_subset`), so per-shard rankings merge exactly.

    Exactly-once coverage -- every original index in precisely one shard --
    is what the plan verifier's sharded PLAN004 rule re-checks downstream.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    _check_packing(max_lanes, max_waste)
    table = _lane_table(packed)
    _, _, lane_index, _ = table
    shard_of = lane_index % n_shards
    return [
        _repack(packed, table, np.flatnonzero(shard_of == s), max_lanes, max_waste)
        for s in range(n_shards)
    ]


def content_digest(packed: PackedDatabase) -> str:
    """A sha1 digest of a packed database's contents (memoised per instance).

    Covers record names, lengths, and every bucket's codes, lane lengths and
    lane indices -- anything that could change a search result.  The result
    cache (:mod:`repro.strategies.cache`) keys on this, so two databases
    that pack identically share cache entries and any content change
    invalidates them.
    """
    if packed._digest is None:
        h = hashlib.sha1()
        h.update("\x00".join(packed.names).encode())
        h.update(np.ascontiguousarray(packed.lengths).tobytes())
        for bucket in packed.buckets:
            h.update(np.ascontiguousarray(bucket.codes).tobytes())
            h.update(np.ascontiguousarray(bucket.lengths).tobytes())
            h.update(np.ascontiguousarray(bucket.indices).tobytes())
        packed._digest = h.hexdigest()
    return packed._digest


def synthetic_database(
    n: int = 100,
    min_length: int = 300,
    max_length: int = 700,
    rng: np.random.Generator | int | None = None,
    prefix: str = "seq",
) -> list[FastaRecord]:
    """A seeded random database of ``n`` records, lengths uniform in range."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= min_length <= max_length:
        raise ValueError("need 0 <= min_length <= max_length")
    rng = np.random.default_rng(rng)
    width = len(str(max(n, 1)))
    out = []
    for i in range(n):
        length = int(rng.integers(min_length, max_length + 1))
        out.append(FastaRecord(f"{prefix}{i:0{width}d}", random_dna(length, rng)))
    return out
