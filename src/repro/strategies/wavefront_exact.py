"""Distributed Section 4.1 heuristic with exact per-cell metadata flow.

:mod:`repro.strategies.wavefront` runs the *score* kernel at cluster scale
and recovers regions statistically (see DESIGN.md, "Two engines").  This
module is the other engine distributed faithfully: each processor runs the
per-cell :class:`repro.core.heuristic.HeuristicAligner` over its column
slice, and what crosses the processor border is the *entire cell state* --
score, candidate coordinates, max/min scores, gap/match/mismatch counters
and the open flag -- exactly the record the paper says "is passed
individually between processors Pi and Pi+1".

Because the engine is per-cell Python it is only practical for small
sequences; its purpose is semantic: tests verify that the distributed run
produces *bit-identical* candidate queues to the sequential Section 4.1
algorithm for any processor count, which is the strongest possible
correctness statement about the paper's decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.alignment import AlignmentQueue, LocalAlignment
from ..core.heuristic import HeuristicParams, _fresh, _priority
from ..core.scoring import DEFAULT_SCORING, Scoring
from ..plan.partition import column_partition
from ..seq.alphabet import encode


@dataclass(frozen=True)
class ExactWavefrontConfig:
    n_procs: int = 4
    params: HeuristicParams = HeuristicParams()


class _SliceWorker:
    """One processor's slice of the Section 4.1 computation.

    ``step_row`` consumes the left border *cell* of the current row (the
    neighbour's last cell, or a fresh boundary cell for processor 0) and
    returns this slice's own border cell for the neighbour to its right.
    """

    def __init__(
        self,
        worker_id: int,
        t_slice,
        col_offset: int,
        params: HeuristicParams,
        scoring: Scoring,
    ) -> None:
        self.worker_id = worker_id
        self.t = encode(t_slice)
        self.col_offset = col_offset
        self.params = params
        self.scoring = scoring
        self.queue = AlignmentQueue()
        self._row_index = 0
        # prev[k] = cell state of column (col_offset + k) on the previous
        # row; prev[0] is the neighbour's border cell on the previous row.
        self.prev: list[tuple] = [
            _fresh(0, col_offset + k) for k in range(len(self.t) + 1)
        ]

    def _close(self, cell: tuple, score: int) -> tuple:
        (_, bi, bj, max_score, max_i, max_j, _min, gaps, matches, mismatches, _f) = cell
        if max_score >= self.params.min_score and max_i >= bi and max_j >= bj:
            self.queue.push(
                LocalAlignment(
                    score=max_score,
                    s_start=max(0, bi - 1),
                    s_end=max_i,
                    t_start=max(0, bj - 1),
                    t_end=max_j,
                )
            )
        return (score, bi, bj, score, max_i, max_j, score, gaps, matches, mismatches, 0)

    def step_row(self, s_char: int, left_cell: tuple) -> tuple:
        """Process one row of this slice; returns the right border cell."""
        i = self._row_index = self._row_index + 1
        params = self.params
        scoring = self.scoring
        t = self.t
        prev = self.prev
        row: list[tuple] = [left_cell]
        for k in range(1, len(t) + 1):
            j = self.col_offset + k
            s_code = s_char
            is_match = t[k - 1] == s_code
            sub = scoring.pair_score(s_code, int(t[k - 1]))
            diag_cell = prev[k - 1]
            up_cell = prev[k]
            left = row[k - 1]
            diag_score = diag_cell[0] + sub
            up_score = up_cell[0] + scoring.gap
            left_score = left[0] + scoring.gap
            score = max(0, diag_score, up_score, left_score)
            if score == 0:
                row.append(_fresh(i, j))
                continue
            origin = None
            best_priority = None
            is_diag = False
            for cand_score, cell, diag_move in (
                (left_score, left, False),
                (up_score, up_cell, False),
                (diag_score, diag_cell, True),
            ):
                if cand_score != score:
                    continue
                p = _priority(cell)
                if best_priority is None or p > best_priority:
                    origin, best_priority, is_diag = cell, p, diag_move
            assert origin is not None
            (_, bi, bj, max_score, max_i, max_j, min_score, gaps, matches, mismatches, flag) = origin
            if is_diag:
                if is_match:
                    matches += 1
                else:
                    mismatches += 1
            else:
                gaps += 1
            if score > max_score:
                max_score, max_i, max_j = score, i, j
            if score < min_score:
                min_score = score
            if flag == 0 and max_score >= min_score + params.open_delta:
                flag = 1
                bi, bj = i, j
            cell = (score, bi, bj, max_score, max_i, max_j, min_score, gaps, matches, mismatches, flag)
            if flag == 1 and score <= max_score - params.close_delta:
                cell = self._close(cell, score)
            row.append(cell)
        self.prev = row
        return row[-1]

    def flush(self) -> AlignmentQueue:
        for cell in self.prev[1:]:
            if cell[10] == 1:
                self._close(cell, cell[0])
        return self.queue


def exact_wavefront_alignments(
    s,
    t,
    config: ExactWavefrontConfig | None = None,
    scoring: Scoring = DEFAULT_SCORING,
) -> list[LocalAlignment]:
    """Run the faithful distributed Section 4.1 algorithm.

    Workers process each row left to right, handing the border cell along --
    the software analogue of the lock + condition-variable handshake whose
    *timing* :func:`repro.strategies.run_wavefront` simulates.
    """
    config = config or ExactWavefrontConfig()
    s = encode(s)
    t = encode(t)
    if len(t) < config.n_procs:
        raise ValueError("sequence narrower than the processor count")
    slices = column_partition(len(t), config.n_procs)
    workers = [
        _SliceWorker(w, t[c0:c1], c0, config.params, scoring)
        for w, (c0, c1) in enumerate(slices)
    ]
    for i, ch in enumerate(s, start=1):
        border = _fresh(i, 0)  # the matrix's left boundary cell
        for worker in workers:
            border = worker.step_row(int(ch), border)
    merged = AlignmentQueue()
    for worker in workers:
        merged.merge(worker.flush())
    return merged.finalize(min_score=config.params.min_score, overlap_slack=0)
