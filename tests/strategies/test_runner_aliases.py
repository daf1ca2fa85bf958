"""Strategy-name unification and the explicit phase-2 skip reason.

The paper's names (``heuristic``, ``heuristic_block``, ``pre_process``) and
the plan kinds' names (``wavefront``, ``blocked``, ``preprocess``) must be interchangeable
everywhere a strategy is named, and a scaled pipeline must *say* that phase
2 was skipped instead of silently aligning nothing.
"""

from __future__ import annotations

import pytest

from repro.seq import genome_pair
from repro.parallel import AlignmentWorkerPool
from repro.strategies import (
    STRATEGIES,
    STRATEGY_ALIASES,
    ScaledWorkload,
    canonical_strategy,
    run_mp_pipeline,
    run_phase1,
    run_pipeline,
)


@pytest.fixture(scope="module")
def pair():
    gp = genome_pair(
        600, 600, n_regions=1, region_length=80, mutation_rate=0.02, rng=41
    )
    return gp.s, gp.t


class TestCanonicalStrategy:
    def test_paper_names_are_fixed_points(self):
        for name in STRATEGIES:
            assert canonical_strategy(name) == name

    def test_every_alias_resolves_to_a_paper_name(self):
        for alias, paper in STRATEGY_ALIASES.items():
            assert canonical_strategy(alias) == paper
            assert paper in STRATEGIES

    def test_unknown_name_rejected_with_the_full_vocabulary(self):
        with pytest.raises(ValueError, match="heuristic_block"):
            canonical_strategy("diagonal")


class TestAliasesAcceptedEverywhere:
    def test_run_phase1_same_result_under_both_names(self, pair):
        s, t = pair
        workload = ScaledWorkload(s, t)
        paper = run_phase1(workload, "heuristic")
        alias = run_phase1(workload, "wavefront")
        assert paper.name == alias.name == "heuristic"
        assert paper.alignments == alias.alignments
        assert paper.total_time == alias.total_time

    def test_run_pipeline_accepts_mp_names(self, pair):
        s, t = pair
        result = run_pipeline(s, t, strategy="blocked", n_procs=4)
        assert result.phase1.name == "heuristic_block"

    def test_mp_backend_accepts_both_vocabularies(self, pair):
        s, t = pair
        with AlignmentWorkerPool(n_workers=2) as pool:
            for paper, alias in (("heuristic", "wavefront"), ("pre_process", "preprocess")):
                one = run_mp_pipeline(s, t, backend=paper, pool=pool)
                other = run_mp_pipeline(s, t, backend=alias, pool=pool)
                assert one.phase1.kind == other.phase1.kind == alias
                assert one.phase1.alignments == other.phase1.alignments
                assert one.records == other.records


class TestPhase2SkipReason:
    def test_scaled_pipeline_records_why_phase2_was_skipped(self, pair):
        s, t = pair
        result = run_pipeline(s, t, strategy="heuristic_block", scale=4)
        assert result.phase2_skipped_reason is not None
        assert "scale=4" in result.phase2_skipped_reason
        assert result.records == []

    def test_unscaled_pipeline_has_no_skip_reason(self, pair):
        s, t = pair
        result = run_pipeline(s, t, strategy="heuristic_block", scale=1)
        assert result.phase2_skipped_reason is None
