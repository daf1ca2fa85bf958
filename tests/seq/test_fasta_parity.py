"""Bitwise parity of the block FASTA parser with the line parser it replaced.

``reference_parse`` is the original per-line, per-character parser, kept
here only as the oracle: it reads lines as text mode does (``\\n``,
``\\r\\n`` and a lone ``\\r`` all end a line), strips each, and filters
sequence characters one at a time.  The block size is patched down to a
few bytes so that records, header lines and ``\\r\\n`` pairs straddle block
edges.

The packing half checks that :func:`repro.seq.pack_database`, reading the
parser's flat blocks straight from :func:`stream_fasta`, packs exactly what
the per-record oracle packer (``tests/_packing.py``) packs from the oracle's
records.
"""

from __future__ import annotations

import gzip
import io
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _packing import reference_pack

from repro.seq import (
    FastaError,
    content_digest,
    encode,
    pack_database,
    parse_fasta,
    read_fasta,
    stream_fasta,
)
from repro.seq import fasta


def reference_parse(lines):
    name = None
    chunks: list[str] = []

    def flush():
        body = "".join(chunks)
        filtered = "".join(c for c in body if c in "ACGTacgt")
        return name or "", encode(filtered)

    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                yield flush()
            name = line[1:].strip()
            chunks = []
        else:
            if name is None:
                raise FastaError("sequence data before first '>' header")
            chunks.append(line)
    if name is not None:
        yield flush()


def reference(text: str):
    try:
        return list(reference_parse(io.StringIO(text, newline=None)))
    except FastaError:
        return FastaError


def parsed(records):
    try:
        return [(r.name, r.codes) for r in records]
    except FastaError:
        return FastaError


def assert_same(got, want):
    if want is FastaError or got is FastaError:
        assert got is want
        return
    assert [name for name, _ in got] == [name for name, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert g.dtype == np.uint8
        np.testing.assert_array_equal(g, w)


space = st.text(alphabet=" \t\x0b\x0c\x1c\x1f", max_size=3)
header = st.builds(
    lambda lead, name, trail: f"{lead}>{name}{trail}",
    space,
    st.text(alphabet=string.ascii_letters + string.digits + " \t>|._-", max_size=12),
    space,
)
sequence = st.text(alphabet="ACGTacgtNnRYKMSWBDHV-*> \t", min_size=1, max_size=40)
n_run = st.builds(lambda a, k, b: a + "N" * k + b, sequence, st.integers(3, 40), sequence)
lines = st.lists(
    st.tuples(
        st.one_of(header, sequence, sequence, n_run, space),
        st.sampled_from(["\n", "\r\n", "\r"]),
    ),
    max_size=30,
)


@st.composite
def fasta_texts(draw):
    body = draw(lines)
    if draw(st.booleans()):
        body = [(draw(header), "\n")] + body
    text = "".join(line + end for line, end in body)
    if body and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no trailing newline
    return text


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=fasta_texts(), block=st.integers(1, 16))
# a whole block of whitespace inside a sequence line, then a '>'
@example(text=">a\nAC  >x\nGT\n", block=2)
# '\r' ends one block and '\n' opens the next, inside a header
@example(text=">a b\r\nAC\r\n>c\r\nG", block=4)
def test_block_parser_matches_line_parser(tmp_path, text, block):
    want = reference(text)
    plain = tmp_path / "db.fa"
    plain.write_bytes(text.encode("ascii"))
    packed = tmp_path / "db.fa.gz"
    packed.write_bytes(gzip.compress(text.encode("ascii")))
    with mock.patch.object(fasta, "_BLOCK", block):
        assert_same(parsed(stream_fasta(plain)), want)
        assert_same(parsed(stream_fasta(packed)), want)
        assert_same(parsed(parse_fasta(io.StringIO(text, newline=None))), want)


@pytest.mark.parametrize("width", [7, 0])
@pytest.mark.parametrize("block", [3, 8])
def test_record_longer_than_ten_blocks(tmp_path, width, block):
    rng = np.random.default_rng(5)
    seq = "".join(rng.choice(list("ACGTNacgtn"), 40 * block))
    body = "\r\n".join(seq[i : i + width] for i in range(0, len(seq), width)) if width else seq
    text = f">short\nACGT\n  >long one  \r\n{body}\r\n>tail\nGG"
    path = tmp_path / "long.fa"
    path.write_bytes(text.encode("ascii"))
    with mock.patch.object(fasta, "_BLOCK", block):
        got = read_fasta(path)
    assert_same(parsed(got), reference(text))
    assert len(got[1]) == sum(c in "ACGTacgt" for c in seq) > 10 * block


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    text=fasta_texts(),
    block=st.integers(1, 16),
    window=st.sampled_from([1, 3, 8192]),
    shape=st.sampled_from([(512, 0.15), (4096, 0.5), (2, 0.0)]),
)
@example(text="", block=1, window=1, shape=(512, 0.15))
@example(text=">a\n>b\r\nAC\r\n>c\n>d", block=3, window=3, shape=(2, 0.0))
def test_packed_stream_matches_packed_oracle(tmp_path, text, block, window, shape):
    """Packing the parser's blocks equals packing the oracle's records, with
    records, empty records and \\r\\n pairs cut by block edges."""
    max_lanes, max_waste = shape
    want = reference(text)
    path = tmp_path / "db.fa"
    path.write_bytes(text.encode("ascii"))
    with mock.patch.object(fasta, "_BLOCK", block):
        if want is FastaError:
            with pytest.raises(FastaError):
                pack_database(stream_fasta(path), window=window)
            return
        got = pack_database(stream_fasta(path), max_lanes, max_waste, window)
    oracle = reference_pack(want, max_lanes, max_waste, window)
    assert content_digest(got) == content_digest(oracle)
    assert content_digest(pack_database(want, max_lanes, max_waste, window)) == content_digest(
        oracle
    )


@pytest.mark.parametrize("block", [7, 4096])
@pytest.mark.parametrize("taken", [0, 1, 2, 5])
def test_pack_the_rest_of_a_started_stream(tmp_path, taken, block):
    """Records already taken from a stream are not packed again."""
    rng = np.random.default_rng(taken)
    text = "".join(
        f">r{i}\n" + "".join(rng.choice(list("ACGTN"), int(rng.integers(0, 30)))) + "\n"
        for i in range(5)
    )
    path = tmp_path / "db.fa"
    path.write_bytes(text.encode("ascii"))
    with mock.patch.object(fasta, "_BLOCK", block):
        stream = stream_fasta(path)
        first = [next(stream) for _ in range(taken)]
        got = pack_database(stream, max_lanes=2, window=3)
    records = reference(text)
    assert [r.name for r in first] == [name for name, _ in records[:taken]]
    want = reference_pack(records[taken:], max_lanes=2, window=3)
    assert content_digest(got) == content_digest(want)


def test_window_ending_in_a_short_record(tmp_path):
    """A window of one parser block that ends in a record shorter than its
    bucket: every lane is read as wide as the bucket, past the block's
    last code."""
    text = ">x\nACGTACGTACGT\n>y\nACGTACGTACG\n>z\n"
    path = tmp_path / "db.fa"
    path.write_bytes(text.encode("ascii"))
    got = pack_database(stream_fasta(path), window=2)
    want = reference_pack(reference(text), window=2)
    assert content_digest(got) == content_digest(want)
