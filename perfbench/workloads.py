"""The benchmark's closed-loop workloads.

Each workload has one client with one request in flight.  It makes its
inputs from the seed (outside every clock), sets up what a user's process
would hold before its first request (database ingest, worker pool), serves
requests through the same public API the CLI uses, and checks every output.

Requests call the program through package attributes looked up at call
time (``repro.strategies.search_db``, ...), so the traced run's wrappers and
the tests' fault injection see them; the reference runs of the output
checks are bound once, at import, and see neither.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import repro.seq as seq
import repro.strategies as strategies
from repro.parallel import AlignmentWorkerPool
from repro.strategies.search import SearchConfig
from repro.strategies.search import search_db as reference_search

from inputs import (
    PairSize,
    SearchSize,
    pair_requests,
    search_database,
    search_requests,
    workload_rng,
    write_fasta,
)

#: Pool width: one worker per core of the 2-core reference host.
POOL_WORKERS = 2
#: Seconds a pool job may take before the request counts as failed.
POOL_TIMEOUT_S = 60.0


@dataclass
class Prepared:
    """A run's inputs: the timed requests, warm-up requests, files."""

    requests: list
    warmup: list
    data: object = None
    workdir: str = ""


class Workload:
    name = ""
    #: Requests per second of one timed pass on the reference host; with
    #: the seconds of one pass it fixes the request count (a multiple of
    #: ``period``), so the same ``--seconds`` always replays the same list.
    rate = 1.0
    period = 1
    sizes: dict = {}

    def request_count(self, seconds: float) -> int:
        cycles = max(1, round(seconds * self.rate / self.period))
        return cycles * self.period

    def prepare(self, seed: int, size: str, count: int, workdir: str) -> Prepared:
        raise NotImplementedError

    def setup(self, prep: Prepared):
        """What the served process holds before its first request."""
        raise NotImplementedError

    def teardown(self, state) -> None:
        pool = getattr(state, "pool", None)
        if pool is not None:
            pool.close()

    def request(self, state, prep: Prepared, req):
        raise NotImplementedError

    def cells(self, req, result) -> int:
        raise NotImplementedError

    def check(self, prep: Prepared, req, result) -> bool:
        """Cheap check run on every request's output."""
        raise NotImplementedError

    def result_key(self, result):
        """The part of an output that must repeat exactly on every serving."""
        raise NotImplementedError

    def sample(self, prep: Prepared, seed: int) -> list[int]:
        """Requests whose outputs are also compared with a reference run."""
        return []

    def reference_key(self, prep: Prepared, req):
        """``result_key`` of a reference implementation's output."""
        raise NotImplementedError

    def extras(self, result) -> dict:
        """Per-request layer quantities the result itself reports."""
        raise NotImplementedError


# -- database search --------------------------------------------------------


@dataclass
class SearchState:
    config: SearchConfig
    packed: object = None
    pool: AlignmentWorkerPool | None = None


class SearchWorkload(Workload):
    period = 4  # family, family, family, orphan
    top_k = 10

    def __init__(self, name, kernel, pooled, rate, sizes) -> None:
        self.name = name
        self.pooled = pooled
        self.rate = rate
        self.sizes = sizes
        self.config = SearchConfig(top_k=self.top_k, kernel=kernel)

    def prepare(self, seed, size, count, workdir):
        dims: SearchSize = self.sizes[size]
        db = search_database(seed, self.name, dims)
        write_fasta(os.path.join(workdir, "db.fa"), db.records)
        timed = search_requests(seed, self.name, dims, db, count, "requests")
        warmup = search_requests(seed, self.name, dims, db, 4, "warmup")
        prep = Prepared(timed, warmup, db, workdir)
        if not self.pooled:
            # `repro search q.fa db.fa` reads its query from a file too.
            for i, req in enumerate(warmup + timed):
                path = os.path.join(workdir, f"q{i}.fa")
                write_fasta(path, [(f"query{i}", req.codes)])
                req.path = path
        return prep

    def _ingest(self, prep):
        return seq.pack_database(
            seq.stream_fasta(os.path.join(prep.workdir, "db.fa")),
            max_lanes=self.config.resolved_max_lanes,
            max_waste=self.config.resolved_max_waste,
        )

    def setup(self, prep):
        if not self.pooled:
            return SearchState(self.config)
        return SearchState(
            self.config,
            packed=self._ingest(prep),
            pool=AlignmentWorkerPool(n_workers=POOL_WORKERS, timeout=POOL_TIMEOUT_S),
        )

    def request(self, state, prep, req):
        if state.pool is not None:
            return strategies.search_db(req.codes, state.packed, state.config, pool=state.pool)
        query = seq.read_fasta(req.path)[0]
        return strategies.search_db(query.codes, self._ingest(prep), state.config)

    def cells(self, req, result):
        return result.total_cells

    def check(self, prep, req, result):
        if len(result.hits) != self.top_k or result.n_sequences != len(prep.data.records):
            return False
        if req.kind == "orphan":
            return True
        family_of = prep.data.family_of
        return all(family_of.get(hit.index) == req.family for hit in result.hits)

    def sample(self, prep, seed):
        """One family and one orphan request, chosen by the seed."""
        rng = workload_rng(seed, self.name, "sample")
        return sorted(
            int(rng.choice([i for i, r in enumerate(prep.requests) if r.kind == kind]))
            for kind in ("family", "orphan")
        )

    def reference_key(self, prep, req):
        """Bitwise ranking of an unpruned inline classic scan."""
        return self.result_key(
            reference_search(
                req.codes,
                prep.data.records,
                SearchConfig(top_k=self.top_k, kernel="classic", prefilter="off"),
            )
        )

    def result_key(self, result):
        return [(h.score, h.index, h.name, h.length) for h in result.hits]

    def extras(self, result):
        return {
            "prefilter.pruned": result.sequences_pruned,
            "prefilter.sequences": result.n_sequences,
            "prefilter.cells_skipped": result.cells_skipped,
        }


# -- genome alignment ---------------------------------------------------------


@dataclass
class AlignState:
    pool: AlignmentWorkerPool | None = None


def _phase2_cells(records) -> int:
    return sum(r.source.s_length * r.source.t_length for r in records)


def _covers(records, regions) -> bool:
    """Every planted region overlapped by some phase-2 record."""
    for s0, s1, t0, t1 in regions:
        if not any(
            r.source.s_start < s1 and s0 < r.source.s_end
            and r.source.t_start < t1 and t0 < r.source.t_end
            for r in records
        ):
            return False
    return True


class AlignWorkload(Workload):
    def __init__(self, name, rate, sizes) -> None:
        self.name = name
        self.rate = rate
        self.sizes = sizes

    def prepare(self, seed, size, count, workdir):
        dims: PairSize = self.sizes[size]
        return Prepared(
            pair_requests(seed, self.name, dims, count, "requests"),
            pair_requests(seed, self.name, dims, 2, "warmup"),
            workdir=workdir,
        )

    def setup(self, prep):
        return AlignState(AlignmentWorkerPool(n_workers=POOL_WORKERS, timeout=POOL_TIMEOUT_S))

    def request(self, state, prep, req):
        return strategies.run_mp_pipeline(req.s, req.t, backend="blocked", pool=state.pool)

    def cells(self, req, result):
        return len(req.s) * len(req.t) + _phase2_cells(result.records)

    def check(self, prep, req, result):
        return _covers(result.records, req.regions)

    def result_key(self, result):
        return [
            (r.source.score, r.source.s_start, r.source.s_end, r.source.t_start,
             r.source.t_end, r.similarity)
            for r in result.records
        ]

    def extras(self, result):
        return {
            "align.phase1_s": result.phase1_seconds,
            "align.phase2_s": result.phase2_seconds,
            "align.regions": len(result.records),
        }


WORKLOADS = {
    w.name: w
    for w in (
        SearchWorkload(
            "search-pool",
            kernel="classic",
            pooled=True,
            rate=6.9,
            sizes={
                "full": SearchSize(800, 150, 600, 400),
                "smoke": SearchSize(520, 60, 120, 120),
            },
        ),
        SearchWorkload(
            "search-fasta",
            kernel="striped",
            pooled=False,
            rate=4.6,
            sizes={
                "full": SearchSize(1500, 150, 600, 300),
                "smoke": SearchSize(520, 60, 120, 100),
            },
        ),
        AlignWorkload(
            "align-pool",
            rate=3.7,
            sizes={"full": PairSize(4000, 3, 300), "smoke": PairSize(1300, 2, 150)},
        ),
    )
}
