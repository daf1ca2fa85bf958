"""The non-blocked wave-front (Section 4.2) on real worker processes."""

import pytest

from repro.plan import blocked_spec, wavefront_spec
from repro.seq import genome_pair


def wavefront(pool, gp, **params):
    spec = wavefront_spec(n_procs=pool.n_workers, **params)
    return pool.run_plan(spec, gp.s, gp.t).alignments


class TestMpWavefront:
    def test_config_validation(self, pool2):
        gp = genome_pair(100, 100, n_regions=0, rng=119)
        with pytest.raises(ValueError, match="group_rows must be positive"):
            wavefront(pool2, gp, group_rows=0)

    def test_single_worker(self, pool1):
        gp = genome_pair(400, 400, n_regions=1, region_length=60, mutation_rate=0.0, rng=120)
        found = wavefront(pool1, gp)
        assert found
        planted = gp.regions[0]
        assert abs(found[0].s_end - planted.s_end) <= 20

    def test_multi_worker_matches_single(self, pool1, pool2):
        gp = genome_pair(500, 500, n_regions=2, region_length=60, mutation_rate=0.02, rng=121)
        one = wavefront(pool1, gp)
        two = wavefront(pool2, gp)
        # the dominant alignments agree (border-split fragments may differ)
        assert max(a.score for a in one) == max(a.score for a in two)

    def test_batched_exchanges_same_result(self, pool2):
        """group_rows only changes timing, never results."""
        gp = genome_pair(400, 400, n_regions=1, region_length=70, mutation_rate=0.0, rng=122)
        fine = wavefront(pool2, gp, group_rows=1)
        coarse = wavefront(pool2, gp, group_rows=64)
        assert fine
        assert [a.region for a in fine] == [a.region for a in coarse]
        assert [a.score for a in fine] == [a.score for a in coarse]

    def test_matches_blocked_backend(self, pool2):
        gp = genome_pair(400, 400, n_regions=1, region_length=70, mutation_rate=0.0, rng=123)
        front = wavefront(pool2, gp)
        spec = blocked_spec(n_procs=2, n_bands=1, n_blocks=2)
        blocked = pool2.run_plan(spec, gp.s, gp.t).alignments
        assert max(a.score for a in front) == max(a.score for a in blocked)

    def test_narrow_input_accepted(self, pool1, pool2):
        """A ``t`` narrower than the worker count runs: the second worker's
        column slice is empty, so the regions are the one-worker ones."""
        gp = genome_pair(10, 10, n_regions=0, rng=124)
        s, t = gp.s, gp.t[:1]
        got = pool2.run_plan(wavefront_spec(n_procs=2, threshold=1), s, t).alignments
        want = pool1.run_plan(wavefront_spec(n_procs=1, threshold=1), s, t).alignments
        assert got and got == want
