"""Protein alignment: the core algorithms over the 20-letter alphabet."""

from __future__ import annotations

import numpy as np

from ..core.alignment import GlobalAlignment
from ..core.matrix import TracebackResult, needleman_wunsch, smith_waterman
from .blosum import BLOSUM62_SCORING, PROTEIN_ALPHABET, ProteinScoring


def protein_smith_waterman(
    s: str | np.ndarray,
    t: str | np.ndarray,
    scoring: ProteinScoring = BLOSUM62_SCORING,
) -> TracebackResult:
    """Best local alignment of two protein sequences (BLOSUM62 default)."""
    return smith_waterman(s, t, scoring, alphabet=PROTEIN_ALPHABET)


def protein_needleman_wunsch(
    s: str | np.ndarray,
    t: str | np.ndarray,
    scoring: ProteinScoring = BLOSUM62_SCORING,
) -> GlobalAlignment:
    """Best global alignment of two protein sequences."""
    return needleman_wunsch(s, t, scoring, alphabet=PROTEIN_ALPHABET)


def protein_affine_smith_waterman(
    s: str | np.ndarray,
    t: str | np.ndarray,
    scoring=None,
) -> TracebackResult:
    """Best local alignment under BLOSUM62 + affine gaps (BLAST defaults)."""
    from ..core.affine import affine_smith_waterman
    from .blosum import BLOSUM62_AFFINE

    return affine_smith_waterman(
        s, t, scoring or BLOSUM62_AFFINE, alphabet=PROTEIN_ALPHABET
    )


def protein_best_score(
    s: str | np.ndarray,
    t: str | np.ndarray,
    scoring: ProteinScoring = BLOSUM62_SCORING,
) -> int:
    """Best local score in linear space (block scan over protein codes)."""
    from ..core.engine import KernelWorkspace
    from ..core.linear import sw_blocks

    t = PROTEIN_ALPHABET.encode(t)
    ws = KernelWorkspace(t, scoring)  # profile rows fill lazily per amino acid
    best = 0
    for _, rows in sw_blocks(ws, PROTEIN_ALPHABET.encode(s)):
        best = max(best, int(rows.max()))
    return best
