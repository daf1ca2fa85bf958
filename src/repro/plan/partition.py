"""Work decomposition: column partitions, band/block tilings, band sizing.

These are the geometry helpers the planners build task graphs from (the
simulated strategies in :mod:`repro.strategies` import them from here).
Covers the three decompositions the paper uses:

* Section 4.2 -- columns split evenly across processors (N/P each);
* Section 4.3 -- the matrix tiled into *bands* (row groups) x *blocks*
  (column groups) derived from a *blocking multiplier*: "a 3 x 5 blocking
  multiplier for 8 processors divides the matrix into 40 bands (5 x 8),
  each one containing 24 blocks (3 x 8)";
* Section 5 -- the pre_process band sizing schemes *fixed*, *equal* and
  *balanced*, the last using the paper's bandsproc/bsize_down/bsize_up
  equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def split_even(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous near-equal slices.

    The first ``total % parts`` slices get one extra element; empty slices
    are allowed when ``parts > total`` (a processor can be left without
    columns, exactly like the paper's 8-processor/4-band case in Fig. 18).
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if total < 0:
        raise ValueError("total must be non-negative")
    base, extra = divmod(total, parts)
    out = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def column_partition(n_cols: int, n_procs: int) -> list[tuple[int, int]]:
    """Section 4.2 work assignment: each processor gets N/P columns."""
    return split_even(n_cols, n_procs)


@dataclass(frozen=True)
class Tiling:
    """A bands x blocks tiling of an (n_rows x n_cols) matrix."""

    row_bounds: tuple[tuple[int, int], ...]
    col_bounds: tuple[tuple[int, int], ...]

    @property
    def n_bands(self) -> int:
        return len(self.row_bounds)

    @property
    def n_blocks(self) -> int:
        return len(self.col_bounds)

    def band_owner(self, band: int, n_procs: int) -> int:
        """Bands are dealt round-robin: band b belongs to processor b mod P."""
        return band % n_procs

    def band_height(self, band: int) -> int:
        lo, hi = self.row_bounds[band]
        return hi - lo

    def block_width(self, block: int) -> int:
        lo, hi = self.col_bounds[block]
        return hi - lo


def tiling_from_multiplier(
    n_rows: int,
    n_cols: int,
    n_procs: int,
    multiplier: tuple[int, int] = (5, 5),
) -> Tiling:
    """Build the Section 4.3 tiling from a blocking multiplier.

    ``multiplier = (mb, mbands)`` yields ``mb * n_procs`` blocks per band and
    ``mbands * n_procs`` bands (Table 3 sweeps 1x1 .. 5x5).
    """
    mb, mbands = multiplier
    if mb <= 0 or mbands <= 0:
        raise ValueError("multiplier components must be positive")
    n_bands = min(mbands * n_procs, n_rows) or 1
    n_blocks = min(mb * n_procs, n_cols) or 1
    return Tiling(
        row_bounds=tuple(split_even(n_rows, n_bands)),
        col_bounds=tuple(split_even(n_cols, n_blocks)),
    )


def explicit_tiling(n_rows: int, n_cols: int, n_bands: int, n_blocks: int) -> Tiling:
    """Tiling with explicit band/block counts (Table 4's '40 x 25' rows)."""
    if n_bands <= 0 or n_blocks <= 0:
        raise ValueError("band/block counts must be positive")
    return Tiling(
        row_bounds=tuple(split_even(n_rows, min(n_bands, n_rows) or 1)),
        col_bounds=tuple(split_even(n_cols, min(n_blocks, n_cols) or 1)),
    )


# ---------------------------------------------------------------------------
# Section 5 band sizing schemes
# ---------------------------------------------------------------------------

def balanced_band_size(ssize: int, bsize: int, n_nodes: int) -> int:
    """The paper's balanced scheme: nudge ``bsize`` so every node processes
    the same number of equally-sized bands.

        bandsproc  = ceil(ceil(ssize / bsize) / nnodes)
        bsize_down = ceil(ssize / (bandsproc * nnodes))
        bsize_up   = ceil(ssize / ((bandsproc - 1) * nnodes))

    "The new band size will be bsize_up or bsize_down, whichever is nearer
    to the original band size."
    """
    if ssize <= 0 or bsize <= 0 or n_nodes <= 0:
        raise ValueError("sizes must be positive")
    bands_proc = math.ceil(math.ceil(ssize / bsize) / n_nodes)
    down = math.ceil(ssize / (bands_proc * n_nodes))
    if bands_proc <= 1:
        return down
    up = math.ceil(ssize / ((bands_proc - 1) * n_nodes))
    return down if abs(down - bsize) <= abs(up - bsize) else up


def band_heights(scheme: str, ssize: int, bsize: int, n_nodes: int) -> list[int]:
    """Band heights under a Section 5 scheme.

    * ``"fixed"``  -- every band is ``bsize`` rows (last one partial).
    * ``"equal"``  -- exactly one band per node of ``ssize / nnodes`` rows
      ("even or equal bands so that all of the nodes have the same amount
      of data to process"); on one node this degenerates to a single
      sequence-length band, which is the cache-hostile case Fig. 19 shows.
    * ``"balanced"`` -- fixed bands of :func:`balanced_band_size`.
    """
    if ssize <= 0:
        raise ValueError("ssize must be positive")
    if scheme == "fixed":
        height = bsize
    elif scheme == "equal":
        return [hi - lo for lo, hi in split_even(ssize, n_nodes) if hi > lo]
    elif scheme == "balanced":
        height = balanced_band_size(ssize, bsize, n_nodes)
    else:
        raise ValueError(f"unknown band scheme {scheme!r}")
    if height <= 0:
        raise ValueError("band size must be positive")
    out = []
    start = 0
    while start < ssize:
        out.append(min(height, ssize - start))
        start += height
    return out


def bounds_from_heights(heights: list[int]) -> tuple[tuple[int, int], ...]:
    """Convert a height list into (start, end) bounds."""
    bounds = []
    start = 0
    for h in heights:
        bounds.append((start, start + h))
        start += h
    return tuple(bounds)


def chunk_widths(
    n_cols: int, base: int, growth: str = "fixed", factor: float = 2.0
) -> list[int]:
    """Column-chunk widths for the pre_process passage band.

    "The size of the chunks can be set to a fixed value or grow in
    arithmetic or geometric projections" (Section 5).  ``base`` is the first
    chunk; arithmetic growth adds ``base`` each step, geometric multiplies
    by ``factor``.
    """
    if n_cols <= 0 or base <= 0:
        raise ValueError("sizes must be positive")
    widths = []
    current = float(base)
    covered = 0
    while covered < n_cols:
        w = min(int(current), n_cols - covered)
        w = max(w, 1)
        widths.append(w)
        covered += w
        if growth == "fixed":
            pass
        elif growth == "arithmetic":
            current += base
        elif growth == "geometric":
            current *= factor
        else:
            raise ValueError(f"unknown growth {growth!r}")
    return widths
