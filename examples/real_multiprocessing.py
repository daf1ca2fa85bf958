"""The real shared-memory backend: the paper's algorithm on actual processes.

The simulated cluster reproduces the paper's *measurements*; this example
runs the same blocked wave-front on a persistent pool of OS processes
sharing the sequences and band borders through
:mod:`multiprocessing.shared_memory` (JIAJIA's stand-in), checks that both
backends return the same alignment queue, and then aligns the regions
globally with phase 2's scattered mapping on the same workers.

On a single-core host the workers serialise -- correctness is unaffected.

Run:  python examples/real_multiprocessing.py
"""

import os

from repro.parallel import AlignmentWorkerPool
from repro.seq import genome_pair
from repro.strategies import BlockedConfig, ScaledWorkload, run_blocked, run_pipeline

pair = genome_pair(3000, 3000, n_regions=3, region_length=150, mutation_rate=0.03, rng=17)
workers = min(4, os.cpu_count() or 1)
print(f"host has {os.cpu_count()} CPU(s); using {workers} worker process(es)\n")

config = BlockedConfig(n_procs=workers, n_bands=12, n_blocks=8)
with AlignmentWorkerPool(n_workers=workers) as pool:
    result = run_pipeline(
        pair.s, pair.t, "blocked", workers, phase1_config=config, executor=pool
    )
real = result.phase1.alignments
print(f"real backend: {len(real)} regions in {result.phase1_seconds:.2f} wall-clock s")

sim = run_blocked(ScaledWorkload(pair.s, pair.t), config).alignments
agree = [a.region for a in real] == [a.region for a in sim]
print(f"simulated backend found the same queue: {agree}")

print("\ntop regions:")
for a in real[:3]:
    print(f"  score {a.score}: s[{a.s_start}:{a.s_end}] ~ t[{a.t_start}:{a.t_end}]")

print(
    f"\nphase 2 on the same workers: {len(result.records)} global alignments "
    f"in {result.phase2_seconds:.2f} wall-clock s"
)
for rec in result.best_records(2):
    print()
    print(rec.render())
