"""Sequence substrate: alphabet codecs, synthetic genomes, FASTA I/O, dot plots."""

from .alphabet import (
    ALPHABET_SIZE,
    DNA,
    DNA_ALPHABET,
    Alphabet,
    AlphabetError,
    complement,
    decode,
    encode,
    reverse_complement,
)
from .db import (
    PackedBucket,
    PackedDatabase,
    content_digest,
    pack_database,
    synthetic_database,
)
from .dotplot import DotPlot, dotplot, zoom
from .fasta import (
    FastaError,
    FastaRecord,
    parse_fasta,
    read_fasta,
    stream_fasta,
    write_fasta,
)
from .stats import CompositionStats, composition, kmer_spectrum, longest_shared_kmer
from .random_dna import (
    GenomePair,
    PlantedRegion,
    biased_dna,
    genome_pair,
    mito_like,
    mutate,
    random_dna,
)

__all__ = [
    "ALPHABET_SIZE",
    "DNA",
    "Alphabet",
    "AlphabetError",
    "DNA_ALPHABET",
    "CompositionStats",
    "DotPlot",
    "FastaError",
    "FastaRecord",
    "GenomePair",
    "PackedBucket",
    "PackedDatabase",
    "PlantedRegion",
    "biased_dna",
    "complement",
    "composition",
    "content_digest",
    "decode",
    "dotplot",
    "encode",
    "genome_pair",
    "kmer_spectrum",
    "longest_shared_kmer",
    "mito_like",
    "mutate",
    "pack_database",
    "parse_fasta",
    "random_dna",
    "read_fasta",
    "reverse_complement",
    "stream_fasta",
    "synthetic_database",
    "write_fasta",
    "zoom",
]
