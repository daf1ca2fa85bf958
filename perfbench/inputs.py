"""Seeded inputs for the end-to-end benchmark.

Everything here is plain numpy, independent of the program under test, so
a change to ``repro``'s own generators cannot change what the benchmark
feeds it.  Codes follow the repository's DNA alphabet: 0=A, 1=C, 2=G, 3=T.

The same ``(seed, workload)`` always yields the same inputs; request order
is fixed, and family queries cycle through the families so every run sees
the same family mix.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

LETTERS = np.frombuffer(b"ACGT", dtype=np.uint8)

#: Composition classes of the background sequences: (share, GC fraction).
BACKGROUND_CLASSES = ((0.6, 0.5), (0.2, 0.3), (0.2, 0.7))

#: Request mix of the search workloads: three family queries, one orphan.
SEARCH_MIX = ("family", "family", "family", "orphan")


def workload_rng(seed: int, workload: str, stream: str) -> np.random.Generator:
    """Independent generator per (seed, workload, input stream)."""
    return np.random.default_rng(
        [int(seed), zlib.crc32(workload.encode()), zlib.crc32(stream.encode())]
    )


def dna(rng: np.random.Generator, length: int, gc: float = 0.5) -> np.ndarray:
    at, cg = (1.0 - gc) / 2.0, gc / 2.0
    return rng.choice(4, size=length, p=(at, cg, cg, at)).astype(np.uint8)


def substitute(rng: np.random.Generator, codes: np.ndarray, rate: float) -> np.ndarray:
    """Copy with exactly ``round(rate * len)`` substitutions to another base."""
    out = codes.copy()
    n = int(round(rate * len(codes)))
    where = rng.choice(len(codes), size=n, replace=False)
    out[where] = (out[where] + rng.integers(1, 4, size=n)) % 4
    return out


def to_text(codes: np.ndarray) -> str:
    return LETTERS[codes].tobytes().decode()


def write_fasta(path, records) -> None:
    """``records``: iterable of ``(name, codes)``; 70 columns per line."""
    with open(path, "w", encoding="ascii") as fh:
        for name, codes in records:
            text = to_text(codes)
            fh.write(f">{name}\n")
            for i in range(0, len(text), 70):
                fh.write(text[i : i + 70] + "\n")


# -- database search -------------------------------------------------------


@dataclass(frozen=True)
class SearchSize:
    n_sequences: int
    min_length: int
    max_length: int
    query_length: int
    n_families: int = 8
    homologs: int = 12
    #: Substitution rate of each homolog and of each family query.
    divergence: float = 0.02


@dataclass
class SearchDatabase:
    records: list  # (name, codes) in database order
    #: database index -> family id, for the planted homologs only
    family_of: dict[int, int]
    ancestors: list


@dataclass
class SearchRequest:
    kind: str  # "family" or "orphan"
    family: int  # -1 for orphans
    codes: np.ndarray = field(repr=False)
    #: query FASTA file, for workloads that read their query like the CLI
    path: str = ""


def search_database(seed: int, workload: str, size: SearchSize) -> SearchDatabase:
    """Background of three composition classes plus planted query families.

    Each family has ``homologs`` records: a ``divergence``-substituted copy
    of a window of the family's ancestor (as long as the longest background
    record, or the whole ancestor when it is shorter, then padded with
    random flanks up to a length in range).  A family query is the mutated
    whole ancestor, so its homologs score far above any background record.
    """
    rng = workload_rng(seed, workload, "database")
    ancestors = [dna(rng, size.query_length) for _ in range(size.n_families)]
    window = min(size.max_length, size.query_length)
    planted = []
    for fam, ancestor in enumerate(ancestors):
        for _ in range(size.homologs):
            start = int(rng.integers(0, size.query_length - window + 1))
            core = substitute(rng, ancestor[start : start + window], size.divergence)
            total = int(rng.integers(max(window, size.min_length), size.max_length + 1))
            left = int(rng.integers(0, total - window + 1))
            codes = np.concatenate(
                [dna(rng, left), core, dna(rng, total - window - left)]
            )
            planted.append((fam, codes))
    n_background = size.n_sequences - len(planted)
    shares = np.array([share for share, _ in BACKGROUND_CLASSES])
    counts = np.floor(shares * n_background).astype(int)
    counts[0] += n_background - counts.sum()
    background = []
    for count, (_, gc) in zip(counts, BACKGROUND_CLASSES):
        for _ in range(count):
            length = int(rng.integers(size.min_length, size.max_length + 1))
            background.append(dna(rng, length, gc))
    entries = [(fam, codes) for fam, codes in planted] + [(-1, c) for c in background]
    order = rng.permutation(len(entries))
    width = len(str(len(entries)))
    records, family_of = [], {}
    for index, slot in enumerate(order):
        fam, codes = entries[slot]
        records.append((f"seq{index:0{width}d}", codes))
        if fam >= 0:
            family_of[index] = fam
    return SearchDatabase(records, family_of, ancestors)


def search_requests(
    seed: int, workload: str, size: SearchSize, db: SearchDatabase, count: int, stream: str
) -> list[SearchRequest]:
    """``count`` queries in the fixed family/family/family/orphan order."""
    rng = workload_rng(seed, workload, stream)
    out, n_family = [], 0
    for i in range(count):
        if SEARCH_MIX[i % len(SEARCH_MIX)] == "family":
            fam = n_family % size.n_families
            n_family += 1
            codes = substitute(rng, db.ancestors[fam], size.divergence)
            out.append(SearchRequest("family", fam, codes))
        else:
            out.append(SearchRequest("orphan", -1, dna(rng, size.query_length)))
    return out


# -- genome pairs ----------------------------------------------------------


@dataclass(frozen=True)
class PairSize:
    length: int
    n_regions: int
    region_length: int
    divergence: float = 0.05


@dataclass(frozen=True)
class PlantedPair:
    s: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    #: (s_start, s_end, t_start, t_end) of each planted region, 0-based
    regions: tuple


def planted_pair(rng: np.random.Generator, size: PairSize) -> PlantedPair:
    """Two random genomes sharing ``n_regions`` substituted copies.

    Regions are placed as ``repro.seq.genome_pair`` places them: at sorted
    random offsets, at least three region lengths apart, because
    Smith-Waterman legitimately chains two regions whose gap costs less
    than their scores, and ground truth is only unambiguous with spacing.
    """
    stride = 4 * size.region_length
    budget = size.length - size.n_regions * stride
    if budget < size.n_regions:
        raise ValueError("regions do not fit in the genome")
    s = dna(rng, size.length)
    t = dna(rng, size.length)
    s_offsets = np.sort(rng.choice(budget, size=size.n_regions, replace=False))
    t_offsets = np.sort(rng.choice(budget, size=size.n_regions, replace=False))
    regions = []
    for k in range(size.n_regions):
        fragment = dna(rng, size.region_length)
        s0 = int(s_offsets[k]) + k * stride
        t0 = int(t_offsets[k]) + k * stride
        s[s0 : s0 + size.region_length] = fragment
        t[t0 : t0 + size.region_length] = substitute(rng, fragment, size.divergence)
        regions.append((s0, s0 + size.region_length, t0, t0 + size.region_length))
    return PlantedPair(s, t, tuple(regions))


def pair_requests(
    seed: int, workload: str, size: PairSize, count: int, stream: str
) -> list[PlantedPair]:
    rng = workload_rng(seed, workload, stream)
    return [planted_pair(rng, size) for _ in range(count)]
