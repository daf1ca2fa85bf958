"""Streaming detection of similar regions from DP score rows.

The paper's heuristic variant (Section 4.1) keeps per-cell candidate state to
report the begin/end coordinates of every good local alignment.  At cluster
scale this repository runs the vectorized score kernel instead, and recovers
the same *regions* by clustering above-threshold cells on the fly: cells
scoring at least a threshold are grouped into rectangles when they are close
in both the row and column directions (high-scoring local alignments form
contiguous diagonal streaks of above-threshold cells).  Each rectangle's
summit cell is the alignment endpoint; the rectangle itself reproduces the
begin/end coordinate pairs stored in the paper's alignment queue (Table 2,
Fig. 14).

The finder is strictly streaming -- it sees each row once and keeps only the
active rectangles -- so it composes with the two-row linear-space scan and
with the band/block decompositions of the parallel strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..seq.alphabet import encode
from . import ckernel
from .alignment import LocalAlignment
from .engine import KernelWorkspace, cut_segments
from .linear import sw_blocks
from .scoring import DEFAULT_SCORING, Scoring


@dataclass(frozen=True)
class RegionConfig:
    """Clustering parameters.

    ``threshold`` plays the role of the paper's *minimal score* parameter
    ("small values for minimal scores generate more similar regions",
    Section 4.4).  The tolerances control how far apart two above-threshold
    cells may be while still being attributed to the same similar region.
    """

    threshold: int
    col_tolerance: int = 16
    row_tolerance: int = 16
    min_hits: int = 1

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.col_tolerance < 0 or self.row_tolerance < 0:
            raise ValueError("tolerances must be non-negative")
        if self.min_hits < 1:
            raise ValueError("min_hits must be at least 1")


@dataclass
class Region:
    """A similar region: bounding box, summit score, and hit statistics.

    Coordinates are 0-based half-open over the input sequences (DP cell
    ``(i, j)`` covers ``s[i-1]`` / ``t[j-1]``).
    """

    s_start: int
    s_end: int
    t_start: int
    t_end: int
    score: int
    peak_i: int
    peak_j: int
    n_hits: int = 0
    last_row: int = field(default=0, repr=False)
    # Column extent of the hits in the most recent row that touched this
    # region.  Matching new hits against this *recent* extent -- not the
    # whole bounding box -- keeps a long diagonal streak from swallowing
    # unrelated regions that start in columns it visited long ago.
    cur_lo: int = field(default=0, repr=False)
    cur_hi: int = field(default=0, repr=False)

    def as_alignment(self) -> LocalAlignment:
        """Convert to a queue entry, ending at the summit cell.

        Above-threshold cells trail past an alignment's true end while the
        DP score decays back to zero; the alignment itself ends where the
        score peaked, which is also where the paper's heuristic records the
        final coordinates.  The start keeps the bounding-box corner (the
        first above-threshold cell), which -- like the paper's open-on-climb
        rule -- is a few cells downstream of the true start.
        """
        return LocalAlignment(
            score=self.score,
            s_start=self.s_start,
            s_end=max(self.peak_i, self.s_start + 1),
            t_start=self.t_start,
            t_end=max(self.peak_j, self.t_start + 1),
        )

    @property
    def region(self) -> tuple[int, int, int, int]:
        return (self.s_start, self.s_end, self.t_start, self.t_end)


#: int64s per region in the compiled merge's tables: :class:`Region`'s
#: fields, in declaration order.
_REGION_FIELDS = 11


def _table(regions: list[Region], rows: int) -> np.ndarray:
    """``regions`` as the first rows of an ``(rows, 11)`` int64 table."""
    table = np.empty((rows, _REGION_FIELDS), dtype=np.int64)
    for n, r in enumerate(regions):
        table[n] = (
            r.s_start, r.s_end, r.t_start, r.t_end, r.score, r.peak_i, r.peak_j,
            r.n_hits, r.last_row, r.cur_lo, r.cur_hi,
        )
    return table


class StreamingRegionFinder:
    """Cluster above-threshold cells from successive DP rows into regions.

    Rows arrive either whole (:meth:`feed`, the numpy reference: cut, then
    merge in Python) or as their above-threshold segments
    (:meth:`feed_segments`, what the compiled DP loop cuts while it runs,
    merged by one compiled loop with the same steps in the same order).
    The compiled merge keeps the regions in two int64 tables; the Python
    merge in two lists of :class:`Region`.  Either side takes the state
    over from the other when it next runs, so one finder may be fed both
    ways.
    """

    def __init__(self, config: RegionConfig) -> None:
        self.config = config
        self._active: list[Region] = []
        self._finished: list[Region] = []
        #: ``(active, finished, counts)`` while the compiled merge holds the
        #: state, else None and the lists hold it.
        self._tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._last_fed = 0

    def _check_order(self, i: int) -> None:
        if i <= self._last_fed:
            raise ValueError(f"rows must be fed in increasing order (got {i})")

    def feed(self, i: int, row: np.ndarray) -> None:
        """Consume DP row ``i`` (including the boundary column at index 0)."""
        self._check_order(i)
        self._last_fed = i
        self._lists()
        cfg = self.config
        self._retire(i)
        js = np.nonzero(row[1:] >= cfg.threshold)[0] + 1
        if js.size == 0:
            return
        if js.size > 1:
            breaks = np.nonzero(np.diff(js) > cfg.col_tolerance)[0]
            segments = np.split(js, breaks + 1)
        else:
            segments = [js]
        for seg in segments:
            k = int(np.argmax(row[seg]))
            self._add_segment(
                i, int(seg[0]), int(seg[-1]), int(seg[k]), int(row[seg[k]]), len(seg)
            )

    def feed_rows(self, i0: int, band: np.ndarray) -> None:
        """Consume DP rows ``i0, i0 + 1, ...``: the rows of a ``(h, w + 1)`` band.

        Equivalent to :meth:`feed` row by row: the band is cut in numpy
        (:func:`~repro.core.engine.cut_segments`) and merged by
        :meth:`feed_segments`.
        """
        cfg = self.config
        self.feed_segments(i0, len(band), cut_segments(band, cfg.threshold, cfg.col_tolerance))

    def feed_segments(self, i0: int, h: int, segments: np.ndarray) -> None:
        """Consume DP rows ``i0 .. i0 + h - 1`` given their above-threshold
        segments.

        ``segments`` is an ``(n, 6)`` int64 array of ``(row - i0, j_lo,
        j_hi, peak_j, score, hits)`` sorted by row, then column, as
        :meth:`KernelWorkspace.sw_rows_cut` returns it.  Segments of one
        row at most ``col_tolerance`` apart are joined first, the later
        peak winning only if it scores strictly higher: a row cut tile by
        tile then merges exactly as the whole row fed to :meth:`feed`.
        """
        if h == 0:
            return
        self._check_order(i0)
        self._last_fed = i0 + h - 1
        cfg = self.config
        if ckernel.load() is not None:
            active, finished, counts = self._tables_for(len(segments))
            ckernel.regions_merge(
                np.ascontiguousarray(segments, dtype=np.int64),
                i0, h, cfg.col_tolerance, cfg.row_tolerance, active, finished, counts,
            )
            return
        self._lists()
        rows = segments.tolist()
        k, n = 0, len(rows)
        for r in range(h):
            i = i0 + r
            if self._active:
                self._retire(i)
            while k < n and rows[k][0] == r:
                _, j_lo, j_hi, peak_j, score, hits = rows[k]
                k += 1
                while k < n and rows[k][0] == r and rows[k][1] - j_hi <= cfg.col_tolerance:
                    _, _, j_hi, other_j, other, more = rows[k]
                    hits += more
                    if other > score:
                        score, peak_j = other, other_j
                    k += 1
                self._add_segment(i, j_lo, j_hi, peak_j, score, hits)

    def _tables_for(self, n_segments: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The compiled merge's tables, with room for ``n_segments`` more
        regions (taken over from the lists if they hold the state)."""
        if self._tables is None:
            na, nf = len(self._active), len(self._finished)
            rows = na + nf + max(n_segments, 16)
            self._tables = (
                _table(self._active, rows),
                _table(self._finished, rows),
                np.array([na, nf], dtype=np.int64),
            )
            self._active, self._finished = [], []
        active, finished, counts = self._tables
        need = int(counts[0] + counts[1]) + n_segments
        if need > len(finished):  # every region might open, then finish
            rows = max(need, 2 * len(finished))
            active = np.concatenate((active[: counts[0]], _table([], rows - counts[0])))
            finished = np.concatenate((finished[: counts[1]], _table([], rows - counts[1])))
            self._tables = (active, finished, counts)
        return self._tables

    def _lists(self) -> None:
        """Take the state over from the compiled merge's tables, if they hold it."""
        if self._tables is None:
            return
        active, finished, counts = self._tables
        self._active = [Region(*r) for r in active[: counts[0]].tolist()]
        self._finished = [Region(*r) for r in finished[: counts[1]].tolist()]
        self._tables = None

    def open_count(self) -> int:
        """Regions found so far, finished or still open."""
        if self._tables is not None:
            return int(self._tables[2].sum())
        return len(self._finished) + len(self._active)

    def _add_segment(
        self, i: int, j_lo: int, j_hi: int, peak_j: int, score: int, hits: int
    ) -> None:
        """Attribute one above-threshold segment of row ``i`` to a region."""
        cfg = self.config
        matches = [
            r
            for r in self._active
            # Allow for the ~1 column/row rightward drift of a diagonal
            # streak across any skipped rows.
            if j_lo <= r.cur_hi + cfg.col_tolerance + (i - r.last_row)
            and j_hi >= r.cur_lo - cfg.col_tolerance
        ]
        if not matches:
            self._active.append(
                Region(
                    s_start=i - 1,
                    s_end=i,
                    t_start=j_lo - 1,
                    t_end=j_hi,
                    score=score,
                    peak_i=i,
                    peak_j=peak_j,
                    n_hits=hits,
                    last_row=i,
                    cur_lo=j_lo,
                    cur_hi=j_hi,
                )
            )
            return
        target = matches[0]
        for extra in matches[1:]:
            self._absorb(target, extra)
            self._active.remove(extra)
        target.s_end = i
        target.t_start = min(target.t_start, j_lo - 1)
        target.t_end = max(target.t_end, j_hi)
        target.n_hits += hits
        if target.last_row == i:
            target.cur_lo = min(target.cur_lo, j_lo)
            target.cur_hi = max(target.cur_hi, j_hi)
        else:
            target.cur_lo, target.cur_hi = j_lo, j_hi
        target.last_row = i
        if score > target.score:
            target.score = score
            target.peak_i = i
            target.peak_j = peak_j

    @staticmethod
    def _absorb(target: Region, extra: Region) -> None:
        target.s_start = min(target.s_start, extra.s_start)
        target.s_end = max(target.s_end, extra.s_end)
        target.t_start = min(target.t_start, extra.t_start)
        target.t_end = max(target.t_end, extra.t_end)
        target.n_hits += extra.n_hits
        if extra.last_row >= target.last_row:
            target.cur_lo = min(target.cur_lo, extra.cur_lo)
            target.cur_hi = max(target.cur_hi, extra.cur_hi)
        if extra.score > target.score:
            target.score = extra.score
            target.peak_i = extra.peak_i
            target.peak_j = extra.peak_j

    def _retire(self, current_row: int) -> None:
        still_active: list[Region] = []
        for r in self._active:
            if current_row - r.last_row > self.config.row_tolerance:
                self._finished.append(r)
            else:
                still_active.append(r)
        self._active = still_active

    def finish(self) -> list[Region]:
        """Close all active regions and return every region found, best first."""
        self._lists()
        self._finished.extend(self._active)
        self._active = []
        kept = [r for r in self._finished if r.n_hits >= self.config.min_hits]
        kept.sort(key=lambda r: (-r.score, r.region))
        return kept


def find_regions(
    s: np.ndarray | str,
    t: np.ndarray | str,
    config: RegionConfig,
    scoring: Scoring = DEFAULT_SCORING,
) -> list[Region]:
    """Run the linear-space scan over ``s`` x ``t`` and cluster its hits."""
    finder = StreamingRegionFinder(config)
    for _ in sw_blocks(KernelWorkspace(encode(t), scoring), encode(s), finder):
        pass
    return finder.finish()
