import io
from unittest import mock

import numpy as np
import pytest

from repro.seq import (
    FastaError,
    FastaRecord,
    encode,
    parse_fasta,
    random_dna,
    read_fasta,
    write_fasta,
)
from repro.seq import fasta


SAMPLE = """\
>seq1 first record
ACGTACGT
ACGT
>seq2
TTTT
"""


class TestParse:
    def test_two_records(self):
        recs = list(parse_fasta(io.StringIO(SAMPLE)))
        assert [r.name for r in recs] == ["seq1 first record", "seq2"]
        assert recs[0].text == "ACGTACGTACGT"
        assert recs[1].text == "TTTT"

    def test_blank_lines_ignored(self):
        recs = list(parse_fasta(io.StringIO(">a\nAC\n\nGT\n")))
        assert recs[0].text == "ACGT"

    def test_ambiguity_codes_dropped(self):
        recs = list(parse_fasta(io.StringIO(">a\nACNNGT\n")))
        assert recs[0].text == "ACGT"

    def test_data_before_header_raises(self):
        with pytest.raises(FastaError):
            list(parse_fasta(io.StringIO("ACGT\n>a\n")))

    def test_data_before_header_names_its_line(self):
        with pytest.raises(FastaError, match=r"before first '>' header \(line 3\)"):
            list(parse_fasta(io.StringIO("\n  \nNNNN\n>a\nAC\n")))

    @pytest.mark.parametrize("block", range(1, 9))
    def test_data_before_header_line_across_blocks(self, tmp_path, block):
        path = tmp_path / "bad.fa"
        path.write_bytes(b"\r\n \r\r\n\tNNNN\r\n>a\r\nAC\r\n")
        with mock.patch.object(fasta, "_BLOCK", block):
            with pytest.raises(FastaError, match=r"\(line 4\)"):
                read_fasta(path)

    def test_non_ascii_byte_names_offset_and_record(self, tmp_path):
        path = tmp_path / "utf8.fa"
        path.write_bytes(b">x\nAC\xc3\xa9GT\n")
        with pytest.raises(FastaError, match=r"byte 0xc3 at offset 5 in record 'x'"):
            read_fasta(path)

    def test_non_ascii_byte_in_a_later_block(self, tmp_path):
        path = tmp_path / "utf8.fa"
        path.write_bytes(b">x\nACGT\n>y z\nGG\nTT\xa0\n")
        with mock.patch.object(fasta, "_BLOCK", 4):
            with pytest.raises(FastaError, match=r"byte 0xa0 at offset 18 in record 'y z'"):
                read_fasta(path)

    def test_non_ascii_text_raises_fasta_error(self):
        with pytest.raises(FastaError, match="non-ASCII byte"):
            list(parse_fasta([">caf\u00e9", "ACGT"]))

    def test_empty_input(self):
        assert list(parse_fasta(io.StringIO(""))) == []

    def test_record_len(self):
        recs = list(parse_fasta(io.StringIO(SAMPLE)))
        assert len(recs[0]) == 12


class TestRoundtrip:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "test.fa"
        seq = random_dna(500, rng=0)
        write_fasta(path, [("chr1", seq), FastaRecord("chr2", encode("ACGT"))])
        recs = read_fasta(path)
        assert [r.name for r in recs] == ["chr1", "chr2"]
        assert np.array_equal(recs[0].codes, seq)
        assert recs[1].text == "ACGT"

    def test_wrapping(self, tmp_path):
        path = tmp_path / "wrap.fa"
        write_fasta(path, [("x", random_dna(100, rng=1))], width=10)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ">x"
        assert all(len(line) == 10 for line in lines[1:])

    def test_write_to_stream(self):
        buf = io.StringIO()
        write_fasta(buf, [("y", encode("GATTACA"))])
        assert buf.getvalue() == ">y\nGATTACA\n"

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "test.fa.gz"
        seq = random_dna(300, rng=9)
        write_fasta(path, [("gz", seq)])
        # actually compressed
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        (rec,) = read_fasta(path)
        assert rec.name == "gz"
        assert np.array_equal(rec.codes, seq)

    def test_gzip_detected_without_suffix(self, tmp_path):
        import gzip

        path = tmp_path / "oddly_named.fasta"
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write(">x\nACGT\n")
        (rec,) = read_fasta(path)
        assert rec.text == "ACGT"
