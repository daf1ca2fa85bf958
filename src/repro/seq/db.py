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
from typing import Iterable, Iterator

import numpy as np

from ..core import ckernel
from ..core.bounds import BoundIndex, build_bound_index
from ..core.multi_engine import PAD_CODE
from ..obs import get_tracer
from .alphabet import encode
from .fasta import FastaBlock, FastaRecord, FastaStream
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
                cached = [_bucket_index(b.codes, k) for b in self.buckets]
                if tracer.enabled:  # the disabled tracer's span takes no args
                    nbytes = sum(index.nbytes for index in cached)
                    span.args["bytes"] = nbytes  # type: ignore[union-attr]
            self._bound_index[k] = cached
        return cached


def _bucket_index(codes: np.ndarray, k: int | None) -> BoundIndex:
    """One bucket's index: the compiled loop, or the numpy builder without it."""
    index = ckernel.bound_index(codes, k)
    return build_bound_index(codes, k) if index is None else index


def _runs(
    length: np.ndarray, index: np.ndarray, max_lanes: int, max_waste: float
) -> Iterator[np.ndarray]:
    """The greedy length-bucket cut: each bucket's positions, in ``index`` order.

    Lanes are taken in length-descending order (ties by ``index``); a
    bucket closes when it reaches ``max_lanes`` lanes or the next lane
    would pad more than ``max_waste`` of the bucket width (its first,
    longest lane).  Each bucket is then put back in ``index`` order so equal
    scores rank identically to a sequential scan.
    """
    order = np.lexsort((index, -length))
    start = 0
    while start < order.size:
        floor = (1.0 - max_waste) * int(length[order[start]])
        # Lengths descend along ``order``, so the lanes >= floor are a prefix.
        head = length[order[start : start + max_lanes]]
        run = order[start : start + int(np.count_nonzero(head >= floor))]
        yield run[np.argsort(index[run])]
        start += run.size


def _record_blocks(records: Iterable, size: int) -> Iterator[FastaBlock]:
    """Any ``FastaRecord`` or ``(name, codes)`` iterable as flat blocks of
    up to ``size`` records; ``str`` codes go through :func:`encode`."""
    names: list[str] = []
    parts: list[np.ndarray] = []
    for record in records:
        name, codes = (record.name, record.codes) if isinstance(record, FastaRecord) else record
        names.append(name)
        parts.append(encode(codes) if isinstance(codes, str) else np.asarray(codes, np.uint8))
        if len(names) == size:
            yield _flatten(names, parts)
            names, parts = [], []
    if names:
        yield _flatten(names, parts)


def _flatten(names: list[str], parts: list[np.ndarray]) -> FastaBlock:
    """One block holding ``parts`` back to back."""
    sizes = [part.size for part in parts]
    ends = np.cumsum(sizes, dtype=np.intp)
    return FastaBlock(np.concatenate(parts), ends - sizes, ends, names)


def _join(pieces: list[FastaBlock]) -> FastaBlock:
    """``pieces`` copied into one block in which every record start can be
    read as far as the longest record (the row view :func:`_gather` takes):
    the records' codes, then a PAD tail."""
    widest = max(int((p.ends - p.starts).max()) for p in pieces)
    spans = [(int(p.starts[0]), int(p.ends[-1])) for p in pieces]
    total = sum(hi - lo for lo, hi in spans)
    codes = np.empty(total + widest, dtype=np.uint8)
    codes[total:] = PAD_CODE
    starts, ends, names = [], [], []
    at = 0
    for piece, (lo, hi) in zip(pieces, spans):
        codes[at : at + hi - lo] = piece.codes[lo:hi]
        starts.append(piece.starts + (at - lo))
        ends.append(piece.ends + (at - lo))
        names += piece.names
        at += hi - lo
    return FastaBlock(codes, np.concatenate(starts), np.concatenate(ends), names)


def _windows(blocks: Iterable[FastaBlock], window: int) -> Iterator[FastaBlock]:
    """Regroup flat blocks into joined windows of ``window`` records."""
    pending: list[FastaBlock] = []
    count = 0
    for block in blocks:
        at = 0
        while at < block.n_records:
            take = min(window - count, block.n_records - at)
            pending.append(block.part(at, at + take))
            at += take
            count += take
            if count == window:
                yield _join(pending)
                pending, count = [], 0
    if pending:
        yield _join(pending)


def _gather(flat: FastaBlock, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Records ``rows`` of a joined window (lengths ``lengths``) as one
    PAD-padded code matrix as wide as the longest."""
    width = int(lengths.max()) if lengths.size else 0
    if not width:
        return np.full((rows.size, 0), PAD_CODE, dtype=np.uint8)
    # Row r of a window view is buffer[r:r + width]: one fancy index copies
    # every lane, then OR-ing row ``width - length`` of a 0...0 PAD...PAD
    # staircase pads each lane past its length (PAD_CODE is all ones).
    codes = _rows_view(flat.codes, width)[flat.starts[rows]]
    stair = np.zeros(2 * width, dtype=np.uint8)
    stair[width:] = PAD_CODE
    codes |= _rows_view(stair, width)[width - lengths]
    return codes


def _rows_view(buffer: np.ndarray, width: int) -> np.ndarray:
    """The read-only ``(size - width + 1, width)`` view whose row r is
    ``buffer[r:r + width]``."""
    return np.lib.stride_tricks.as_strided(
        buffer, (buffer.size - width + 1, width), (1, 1), writeable=False
    )


def _check_packing(max_lanes: int, max_waste: float) -> None:
    if max_lanes <= 0:
        raise ValueError("max_lanes must be positive")
    if not 0.0 <= max_waste < 1.0:
        raise ValueError("max_waste must be in [0, 1)")


def pack_database(
    records: Iterable[FastaRecord | tuple[str, np.ndarray | str]],
    max_lanes: int = 512,
    max_waste: float = 0.15,
    window: int = 8192,
) -> PackedDatabase:
    """Greedily pack a record stream into length buckets.

    Records are taken ``window`` at a time as one flat block (straight
    from the parser's blocks when ``records`` is a
    :func:`repro.seq.stream_fasta` stream), cut into buckets by
    :func:`_runs`, and each bucket is filled by one gather; buckets double
    as the dispatch chunks of the search work queue.
    """
    _check_packing(max_lanes, max_waste)
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if isinstance(records, FastaStream):
        blocks = records.blocks()
    else:
        blocks = _record_blocks(records, window)
    tracer = get_tracer()
    names: list[str] = []
    lengths: list[np.ndarray] = []
    buckets: list[PackedBucket] = []
    for flat in _windows(blocks, window):
        with tracer.span("pack", "computation", records=flat.n_records):
            base = len(names)
            names += flat.names
            window_lengths = (flat.ends - flat.starts).astype(np.int64)
            lengths.append(window_lengths)
            order = np.arange(window_lengths.size)
            for run in _runs(window_lengths, order, max_lanes, max_waste):
                lane_lengths = window_lengths[run]
                buckets.append(
                    PackedBucket(
                        codes=_gather(flat, run, lane_lengths),
                        lengths=lane_lengths,
                        indices=run + base,
                    )
                )
    return PackedDatabase(
        buckets=buckets,
        names=names,
        lengths=np.concatenate(lengths) if lengths else np.zeros(0, dtype=np.int64),
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

    The same buckets :func:`pack_database` cuts from the lanes' records in
    index order, bit for bit, but gathered from the source matrices a
    (new bucket, source bucket) block at a time.
    """
    source, row, index, length = (column[picked] for column in table)
    buckets: list[PackedBucket] = []
    for run in _runs(length, index, max_lanes, max_waste):
        width = int(length[run].max())
        codes = np.full((run.size, width), PAD_CODE, dtype=np.uint8)
        run_source = source[run]
        for b in set(run_source.tolist()):
            at = np.flatnonzero(run_source == b)
            src = packed.buckets[b].codes
            # Source rows are PAD_CODE past their length, as packing leaves them.
            span = min(width, src.shape[1])
            codes[at, :span] = src[row[run[at]], :span]
        buckets.append(PackedBucket(codes=codes, lengths=length[run], indices=index[run]))
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
