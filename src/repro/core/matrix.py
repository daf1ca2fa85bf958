"""Full-matrix Smith-Waterman / Needleman-Wunsch with traceback.

This is the textbook O(m*n) space algorithm of Sections 2.1-2.3 of the paper
(Figs. 3 and 4): build the whole similarity array, then follow the arrows
back from a maximal entry.  The paper itself cannot afford this memory at
its sequence sizes -- that is the entire motivation for the three parallel
strategies -- but the full matrix is the ground truth every space-reduced
variant in this repository is tested against, and it is what phase 2 uses on
the short subsequences it globally aligns.

Arrows are not stored: at traceback time the move is re-derived from the
score values, which is equivalent and halves the memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..seq.alphabet import DNA_ALPHABET, Alphabet, decode, encode
from .alignment import GlobalAlignment, LocalAlignment
from .engine import KernelWorkspace
from .kernels import SCORE_DTYPE, initial_row
from .scoring import DEFAULT_SCORING, Scoring

#: Guard against accidentally materialising a paper-sized matrix: 64M cells
#: (~256 MB of int32) is the most this module will allocate.
MAX_FULL_MATRIX_CELLS = 64_000_000


class MatrixTooLarge(MemoryError):
    """Raised when the requested full matrix would exceed the safety cap."""


def similarity_matrix(
    s: np.ndarray | str,
    t: np.ndarray | str,
    local: bool = True,
    scoring: Scoring = DEFAULT_SCORING,
    alphabet: Alphabet = DNA_ALPHABET,
) -> np.ndarray:
    """Build the (m+1) x (n+1) similarity array of Fig. 3 (local) / Fig. 4 (global)."""
    s = alphabet.encode(s)
    t = alphabet.encode(t)
    m, n = len(s), len(t)
    if (m + 1) * (n + 1) > MAX_FULL_MATRIX_CELLS:
        raise MatrixTooLarge(
            f"full matrix of {(m + 1) * (n + 1)} cells exceeds the "
            f"{MAX_FULL_MATRIX_CELLS}-cell cap; use repro.core.linear or "
            "repro.core.exact_linear instead"
        )
    H = np.empty((m + 1, n + 1), dtype=SCORE_DTYPE)
    H[0] = initial_row(n, local, scoring)
    ws = KernelWorkspace(t, scoring)
    if local:
        ws.sw_rows(H[0], s, out=H[1:])
    else:
        boundaries = np.arange(1, m + 1, dtype=np.int64) * scoring.gap
        ws.nw_rows(H[0], s, boundaries, out=H[1:])
    return H


def best_cell(H: np.ndarray) -> tuple[int, int]:
    """Coordinates of the maximal entry (ties: smallest i, then smallest j)."""
    flat = int(np.argmax(H))
    return flat // H.shape[1], flat % H.shape[1]


@dataclass(frozen=True)
class TracebackResult:
    """A traced alignment: the rendered strings plus the matrix path ends."""

    alignment: GlobalAlignment
    s_start: int  # 0-based, inclusive
    t_start: int
    s_end: int  # 0-based, exclusive
    t_end: int

    def as_local(self) -> LocalAlignment:
        return LocalAlignment(
            score=self.alignment.score,
            s_start=self.s_start,
            s_end=self.s_end,
            t_start=self.t_start,
            t_end=self.t_end,
        )


def _trace(
    H: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    i: int,
    j: int,
    local: bool,
    scoring: Scoring,
    alphabet: Alphabet = DNA_ALPHABET,
) -> TracebackResult:
    """Follow arrows from (i, j) to a stop cell, re-deriving moves from scores.

    Preference order on ties is north-west, north, west (the conventional
    choice; Section 4.1's counter-based tie-breaking applies only to the
    heuristic variant, implemented in :mod:`repro.core.heuristic`).
    """
    end_i, end_j = i, j
    score = int(H[i, j])
    # Residue positions along the path, end first; -1 marks a space.  Each
    # side is decoded once at the end, not one residue per step.
    a: list[int] = []
    b: list[int] = []
    gap = scoring.gap
    while i > 0 or j > 0:
        if local and H[i, j] == 0:
            break
        h = int(H[i, j])
        if i > 0 and j > 0:
            sub = scoring.pair_score(int(s[i - 1]), int(t[j - 1]))
            if h == int(H[i - 1, j - 1]) + sub:
                i -= 1
                j -= 1
                a.append(i)
                b.append(j)
                continue
        if i > 0 and h == int(H[i - 1, j]) + gap:
            i -= 1
            a.append(i)
            b.append(-1)
            continue
        if j > 0 and h == int(H[i, j - 1]) + gap:
            j -= 1
            a.append(-1)
            b.append(j)
            continue
        raise AssertionError("inconsistent similarity matrix during traceback")
    alignment = GlobalAlignment(
        _render(alphabet, s, a[::-1]), _render(alphabet, t, b[::-1]), score
    )
    return TracebackResult(alignment, i, j, end_i, end_j)


def _render(alphabet: Alphabet, codes: np.ndarray, positions: list[int]) -> str:
    """One alignment row: ``codes[p]`` decoded for each position, ``-`` for -1.

    The residues are decoded in one :meth:`Alphabet.decode` call, so an
    invalid code still raises :class:`AlphabetError`.
    """
    pos = np.array(positions, dtype=np.int64)
    residues = pos >= 0
    row = np.full(pos.size, ord("-"), dtype=np.uint8)
    decoded = alphabet.decode(codes[pos[residues]]).encode("ascii")
    row[residues] = np.frombuffer(decoded, dtype=np.uint8)
    return row.tobytes().decode("ascii")


def smith_waterman(
    s: np.ndarray | str,
    t: np.ndarray | str,
    scoring: Scoring = DEFAULT_SCORING,
    alphabet: Alphabet = DNA_ALPHABET,
) -> TracebackResult:
    """Best local alignment via the full-matrix SW algorithm (Section 2)."""
    s = alphabet.encode(s)
    t = alphabet.encode(t)
    H = similarity_matrix(s, t, local=True, scoring=scoring, alphabet=alphabet)
    i, j = best_cell(H)
    return _trace(H, s, t, i, j, local=True, scoring=scoring, alphabet=alphabet)


def needleman_wunsch(
    s: np.ndarray | str,
    t: np.ndarray | str,
    scoring: Scoring = DEFAULT_SCORING,
    alphabet: Alphabet = DNA_ALPHABET,
) -> GlobalAlignment:
    """Best global alignment via the full-matrix NW algorithm (Section 2.3)."""
    s = alphabet.encode(s)
    t = alphabet.encode(t)
    H = similarity_matrix(s, t, local=False, scoring=scoring, alphabet=alphabet)
    return _trace(
        H, s, t, len(s), len(t), local=False, scoring=scoring, alphabet=alphabet
    ).alignment


def local_alignments_above(
    s: np.ndarray | str,
    t: np.ndarray | str,
    min_score: int,
    scoring: Scoring = DEFAULT_SCORING,
    max_alignments: int = 100,
) -> list[TracebackResult]:
    """All non-overlapping local alignments scoring at least ``min_score``.

    Repeatedly traces the best remaining endpoint, then masks the traced
    rectangle so subsequent alignments do not share cells.  This is the
    full-matrix ground truth for the candidate queues produced by the
    paper's heuristic strategies.
    """
    s = encode(s)
    t = encode(t)
    H = similarity_matrix(s, t, local=True, scoring=scoring)
    results: list[TracebackResult] = []
    masked = H.copy()
    while len(results) < max_alignments:
        i, j = best_cell(masked)
        if masked[i, j] < min_score:
            break
        result = _trace(H, s, t, i, j, local=True, scoring=scoring)
        # Endpoints in the slow decay tail of an already-reported region
        # trace back into it; drop them, but keep masking so the scan
        # progresses.
        local = result.as_local()
        if not any(local.overlaps(r.as_local()) for r in results):
            results.append(result)
        masked[result.s_start : result.s_end + 1, result.t_start : result.t_end + 1] = 0
        masked[i, j] = 0
    return results
