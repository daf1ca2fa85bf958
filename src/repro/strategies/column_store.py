"""On-disk store of saved score-matrix columns (Section 5's actual output).

The pre_process strategy saves "the most relevant columns of the result
matrix to disk.  These columns were later processed in order to retrieve
the actual alignments" -- and "the fact that selective I/O can be used with
only minor impact to the execution time opens the possibility of working
with larger sequences and saving partial results for later processing."

:class:`ColumnStore` is that artifact made real: every saved column (a
band-height slice of one matrix column, as in Fig. 17) lands in one
``.npy`` file under a run directory next to a JSON manifest, and can be
reloaded later -- in a different process, on a different day -- to restart
the DP from stored boundaries without recomputing the whole matrix.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.engine import compute_tile
from ..core.kernels import SCORE_DTYPE

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class StoredColumn:
    """Metadata of one saved column slice."""

    band: int
    column: int  # global matrix column index (DP j)
    row_start: int  # first row of the band (DP i of the first value is +1)
    filename: str

    def key(self) -> tuple[int, int]:
        return (self.band, self.column)


class ColumnStore:
    """A directory of saved column slices plus a manifest.

    The store is append-only during a run; :meth:`finalize` writes the
    manifest.  Loading is random-access by (band, column).
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._columns: dict[tuple[int, int], StoredColumn] = {}
        self._meta: dict = {}
        manifest = self.root / MANIFEST_NAME
        if manifest.exists():
            self._load_manifest()

    # -- writing ----------------------------------------------------------
    def save_column(
        self, band: int, column: int, row_start: int, values: np.ndarray
    ) -> StoredColumn:
        """Persist one column slice (the band's cells of matrix column j)."""
        if values.ndim != 1:
            raise ValueError("column values must be 1-D")
        record = StoredColumn(
            band=band,
            column=column,
            row_start=row_start,
            filename=f"band{band:05d}_col{column:08d}.npy",
        )
        if record.key() in self._columns:
            raise ValueError(f"column {record.key()} already stored")
        np.save(self.root / record.filename, values.astype(SCORE_DTYPE))
        self._columns[record.key()] = record
        return record

    def finalize(self, **meta) -> None:
        """Write the manifest; ``meta`` records run parameters."""
        self._meta = dict(meta)
        payload = {
            "meta": self._meta,
            "columns": [
                {
                    "band": c.band,
                    "column": c.column,
                    "row_start": c.row_start,
                    "filename": c.filename,
                }
                for c in sorted(self._columns.values(), key=lambda c: c.key())
            ],
        }
        with open(self.root / MANIFEST_NAME, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)

    # -- reading ----------------------------------------------------------
    def _load_manifest(self) -> None:
        with open(self.root / MANIFEST_NAME, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        self._meta = payload.get("meta", {})
        self._columns = {}
        for entry in payload["columns"]:
            record = StoredColumn(
                band=entry["band"],
                column=entry["column"],
                row_start=entry["row_start"],
                filename=entry["filename"],
            )
            self._columns[record.key()] = record

    @property
    def meta(self) -> dict:
        return dict(self._meta)

    def __len__(self) -> int:
        return len(self._columns)

    def columns(self) -> list[StoredColumn]:
        return sorted(self._columns.values(), key=lambda c: c.key())

    def columns_in_band(self, band: int) -> list[StoredColumn]:
        return [c for c in self.columns() if c.band == band]

    def load(self, band: int, column: int) -> np.ndarray:
        record = self._columns.get((band, column))
        if record is None:
            raise KeyError(f"no stored column (band={band}, column={column})")
        return np.load(self.root / record.filename)

    def total_bytes(self) -> int:
        return sum(
            (self.root / c.filename).stat().st_size for c in self._columns.values()
        )


def save_preprocess_columns(
    s: np.ndarray,
    t: np.ndarray,
    store: ColumnStore,
    band_heights: list[int],
    save_interleave: int,
    scoring=None,
) -> int:
    """Compute and persist the interleaved columns for a (scale=1) run.

    Walks the matrix band by band exactly like the pre_process strategy and
    saves column ``j`` iff ``j != 0 and j % save_interleave == 0`` (the
    paper's rule).  Returns the number of columns saved.  This is the
    offline companion of :func:`repro.strategies.run_preprocess` -- the
    simulated run accounts the I/O *time*, this produces the I/O *bytes*.
    """
    from ..core.scoring import DEFAULT_SCORING
    from ..plan.partition import bounds_from_heights

    scoring = scoring or DEFAULT_SCORING
    if sum(band_heights) != len(s):
        raise ValueError("band heights must cover the whole sequence")
    saved = 0
    boundary = np.zeros(len(t) + 1, dtype=SCORE_DTYPE)
    for band, (r0, r1) in enumerate(bounds_from_heights(band_heights)):
        h = r1 - r0
        left_col = np.zeros(h, dtype=SCORE_DTYPE)
        tile = compute_tile(boundary.copy(), left_col, s[r0:r1], t, scoring)
        for j in range(1, len(t) + 1):
            if j % save_interleave == 0:
                store.save_column(band, j, r0, tile[:, j])
                saved += 1
        boundary[1:] = tile[-1, 1:]
    store.finalize(
        rows=len(s),
        cols=len(t),
        band_heights=list(band_heights),
        save_interleave=save_interleave,
    )
    return saved


def restart_band_from_store(
    s: np.ndarray,
    t: np.ndarray,
    store: ColumnStore,
    band: int,
    col_start: int,
    col_end: int,
    scoring=None,
) -> np.ndarray:
    """Recompute one band window seeded from stored boundary columns.

    Demonstrates the paper's "later processing": the window
    ``[col_start, col_end)`` of ``band`` is recomputed using the nearest
    stored column at or before ``col_start`` as the left boundary (or the
    matrix edge), without touching anything to its left.  The rows above
    still need the previous band's boundary, which the caller obtains the
    same way; for the first band the matrix edge suffices.  Returns the
    recomputed tile (h x (width + 1)).
    """
    from ..core.scoring import DEFAULT_SCORING
    from ..plan.partition import bounds_from_heights

    scoring = scoring or DEFAULT_SCORING
    heights = store.meta["band_heights"]
    bounds = bounds_from_heights(heights)
    r0, r1 = bounds[band]
    h = r1 - r0
    candidates = [
        c for c in store.columns_in_band(band) if c.column <= col_start
    ]
    if candidates:
        anchor = max(candidates, key=lambda c: c.column)
        left_col = store.load(band, anchor.column)
        start = anchor.column
    else:
        left_col = np.zeros(h, dtype=SCORE_DTYPE)
        start = 0
    if band != 0:
        raise NotImplementedError(
            "restarting inner bands additionally needs the stored boundary "
            "rows of the band above; band 0 restarts from the matrix edge"
        )
    top = np.zeros(col_end - start + 1, dtype=SCORE_DTYPE)
    tile = compute_tile(top, left_col, s[r0:r1], t[start:col_end], scoring)
    return tile[:, col_start - start :]
