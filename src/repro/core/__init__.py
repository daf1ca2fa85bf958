"""Core alignment algorithms: the paper's computational kernels.

Public surface:

* :class:`Scoring` -- match/mismatch/gap parameters (paper defaults +1/-1/-2).
* Full-matrix algorithms (Section 2): :func:`smith_waterman`,
  :func:`needleman_wunsch`, :func:`similarity_matrix`.
* Linear-space scans (Section 4.1 base): :func:`sw_best_endpoint`,
  :func:`sw_row_hits`, :func:`nw_last_row`.
* The Section 4.1 heuristic variant: :func:`heuristic_local_alignments`.
* The vectorized region finder used at cluster scale: :func:`find_regions`.
* Linear-space global alignment: :func:`hirschberg`.
* Section 6 exact space reduction: :func:`exact_best_alignment`,
  :func:`exact_alignments_above`, :func:`predicted_necessary_fraction`.
"""

from .affine import (
    DEFAULT_AFFINE,
    AffineScoring,
    affine_best_score,
    affine_matrices,
    affine_needleman_wunsch,
    affine_smith_waterman,
)
from .alignment import AlignmentQueue, GlobalAlignment, LocalAlignment
from .banded import band_width_for, banded_global, banded_global_score
from .cigar import AlignmentStats, alignment_from_cigar, alignment_stats, cigar_of, expand_cigar
from .exact_linear import (
    ExactAlignment,
    ReverseScanResult,
    band_limit,
    exact_alignments_above,
    exact_best_alignment,
    predicted_necessary_fraction,
    predicted_unnecessary_cells,
    rebuild_alignment,
    reverse_scan,
)
from .engine import KernelWorkspace
from .multi_engine import PAD_CODE, PAD_SCORE, MultiSequenceWorkspace, pack_codes
from .striped import (
    LANE_MODES,
    StripedMultiWorkspace,
    overflow_stats,
    reset_overflow_stats,
    score_bounds,
)
from .bounds import (
    ADMISSIBLE_BOUNDS,
    QueryBoundContext,
    TieredFilter,
    composition_bound,
    kmer_bound,
    length_bound,
)
from .global_align import SubsequenceAlignment, align_region, global_alignment
from .heuristic import HeuristicAligner, HeuristicParams, heuristic_local_alignments
from .hirschberg import hirschberg
from .kernels import count_hits, initial_row
from .linear import (
    ScoreEndpoint,
    iter_sw_rows,
    nw_last_row,
    sw_best_endpoint,
    sw_endpoints_above,
    sw_row_hits,
)
from .matrix import (
    MatrixTooLarge,
    TracebackResult,
    best_cell,
    local_alignments_above,
    needleman_wunsch,
    similarity_matrix,
    smith_waterman,
)
from .regions import Region, RegionConfig, StreamingRegionFinder, find_regions
from .semiglobal import locate, semiglobal, semiglobal_matrix
from .scoring import DEFAULT_SCORING, TRANSITION_TRANSVERSION, MatrixScoring, Scoring

__all__ = [
    "ADMISSIBLE_BOUNDS",
    "AffineScoring",
    "AlignmentQueue",
    "AlignmentStats",
    "DEFAULT_AFFINE",
    "DEFAULT_SCORING",
    "ExactAlignment",
    "GlobalAlignment",
    "HeuristicAligner",
    "HeuristicParams",
    "KernelWorkspace",
    "LANE_MODES",
    "LocalAlignment",
    "MatrixScoring",
    "MatrixTooLarge",
    "MultiSequenceWorkspace",
    "PAD_CODE",
    "PAD_SCORE",
    "QueryBoundContext",
    "TRANSITION_TRANSVERSION",
    "affine_best_score",
    "affine_matrices",
    "affine_needleman_wunsch",
    "affine_smith_waterman",
    "Region",
    "RegionConfig",
    "ReverseScanResult",
    "ScoreEndpoint",
    "Scoring",
    "StreamingRegionFinder",
    "StripedMultiWorkspace",
    "SubsequenceAlignment",
    "TieredFilter",
    "TracebackResult",
    "align_region",
    "alignment_from_cigar",
    "alignment_stats",
    "band_limit",
    "band_width_for",
    "banded_global",
    "banded_global_score",
    "best_cell",
    "cigar_of",
    "composition_bound",
    "count_hits",
    "expand_cigar",
    "exact_alignments_above",
    "exact_best_alignment",
    "find_regions",
    "global_alignment",
    "heuristic_local_alignments",
    "hirschberg",
    "initial_row",
    "iter_sw_rows",
    "kmer_bound",
    "length_bound",
    "locate",
    "local_alignments_above",
    "needleman_wunsch",
    "nw_last_row",
    "overflow_stats",
    "pack_codes",
    "predicted_necessary_fraction",
    "predicted_unnecessary_cells",
    "rebuild_alignment",
    "reset_overflow_stats",
    "reverse_scan",
    "score_bounds",
    "semiglobal",
    "semiglobal_matrix",
    "similarity_matrix",
    "smith_waterman",
    "sw_best_endpoint",
    "sw_endpoints_above",
    "sw_row_hits",
]
