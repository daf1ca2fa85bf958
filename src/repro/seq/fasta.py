"""FASTA reading and writing.

The paper's inputs are chromosome-scale FASTA files from NCBI; this module
provides the same ingestion path for user-supplied files (and for the
synthetic genomes written by :mod:`repro.seq.random_dna`).

Reading is one byte-block parser behind three entry points
(:func:`stream_fasta`, :func:`read_fasta`, :func:`parse_fasta`).  The input
is read in blocks of :data:`_BLOCK` bytes and each block is parsed as a
whole: numpy locates line ends and headers, every byte is mapped through
the alphabet's 256-entry encode table, and the bytes outside ``ACGTacgt``
are dropped in one compaction, so Python only touches each record once.
A record cut by a block edge is carried into the next block, so memory
stays bounded by one block (and a few block-sized work arrays) plus the
longest record.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .alphabet import _ENCODE, decode, encode

#: Bytes read per parser block.
_BLOCK = 4 << 20

#: The alphabet's encode table as a ``bytes.translate`` table: one C pass
#: per block, without the intp index copy ``np.take`` makes of the block.
_CODES = _ENCODE.tobytes()
#: The ASCII bytes ``str.strip`` removes (``\t``-``\r``, ``\x1c``-``\x1f``, space).
_SPACE_BYTES = bytes(b for b in range(128) if chr(b).isspace())
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(_SPACE_BYTES)] = True


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA record: a header (without ``>``) and the encoded sequence."""

    name: str
    codes: np.ndarray

    @property
    def text(self) -> str:
        return decode(self.codes)

    def __len__(self) -> int:
        return len(self.codes)


class FastaError(ValueError):
    """Raised for malformed FASTA input."""


def _line_breaks(data: bytes, after_cr: bool) -> int:
    """Line breaks in ``data`` as text mode counts them (``\\r\\n`` is one);
    ``after_cr`` says the byte before ``data`` was a ``\\r``."""
    count = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
    return count - int(after_cr and data[:1] == b"\n")


def _headers(buf: bytes, arr: np.ndarray, eol: np.ndarray, midline: bool):
    """Start (the ``>``) and end (the line end, or ``len(buf)``) of every
    header line in ``buf``: a line whose first non-whitespace byte is ``>``.
    ``midline`` says ``buf`` opens inside a sequence line."""
    gt = np.flatnonzero(arr == ord(">"))
    before = np.where(gt > 0, arr[gt - 1], ord("\n"))
    head = (before == ord("\n")) | (before == ord("\r"))
    # Rare: a '>' after whitespace needs its whole line prefix checked.
    for i in np.flatnonzero(_SPACE[before] & ~head).tolist():
        at = int(gt[i])
        k = int(np.searchsorted(eol, at))
        start = int(eol[k - 1]) + 1 if k else 0
        head[i] = not buf[start:at].translate(None, _SPACE_BYTES)
    if midline:
        head &= gt > (eol[0] if eol.size else arr.size)
    starts = gt[head]
    return starts, np.append(eol, arr.size)[np.searchsorted(eol, starts)]


def _parse_blocks(blocks: Iterable[bytes]) -> Iterator[FastaRecord]:
    """Parse FASTA records from consecutive byte blocks cut anywhere.

    A header is a line whose first non-whitespace byte is ``>``; its name is
    the rest of the line, stripped.  Sequence bytes outside ``ACGTacgt``
    (ambiguity codes such as ``N``, whitespace) are dropped.
    """
    name: str | None = None  # header of the open record
    # Its codes so far: a view into this block's codes, or a bytearray once
    # the record crosses a block edge (grown in place, no final join).
    body: np.ndarray | bytearray = bytearray()
    carry = b""  # an unterminated header line, parsed again with the next block
    midline = False  # the next block continues a sequence line
    base = 0  # stream offset of the next buffer's first byte
    line = 1  # line number at ``base``; kept until the first header
    after_cr = False
    for block in chain(blocks, [None]):
        final = block is None
        buf = carry + block if block is not None else carry
        arr = np.frombuffer(buf, dtype=np.uint8)
        # Line ends as text mode reads them: \n, \r\n and a lone \r.
        eol_mask = arr == ord("\n")
        if b"\r" in buf:
            eol_mask |= arr == ord("\r")
        eol = np.flatnonzero(eol_mask)

        starts, ends = _headers(buf, arr, eol, midline)
        if arr.size and arr.max() >= 0x80:
            bad = int(np.argmax(arr >= 0x80))
            j = int(np.searchsorted(starts, bad, side="right")) - 1
            owner = (
                buf[starts[j] + 1 : ends[j]].decode("ascii", "backslashreplace").strip()
                if j >= 0
                else name
            )
            where = "before the first record" if owner is None else f"in record {owner!r}"
            raise FastaError(f"non-ASCII byte 0x{arr[bad]:02x} at offset {base + bad} {where}")

        cut = arr.size
        if not final and starts.size and ends[-1] == cut:
            cut = int(starts[-1])
            starts, ends = starts[:-1], ends[:-1]
        carry = buf[cut:]

        if name is None:
            lead = int(starts[0]) if starts.size else cut
            stray = np.flatnonzero(~_SPACE[arr[:lead]])
            if stray.size:
                at = int(stray[0])
                raise FastaError(
                    "sequence data before first '>' header "
                    f"(line {line + _line_breaks(buf[:at], after_cr)})"
                )
            if not starts.size:
                line += _line_breaks(buf[:cut], after_cr)
                after_cr = buf[cut - 1 : cut] == b"\r"

        # One encode and one compaction for the whole block; off[i] counts
        # the kept codes before bounds[i] = 0, start_0, end_0, ..., cut.
        codes = np.frombuffer(buf[:cut].translate(_CODES), dtype=np.uint8)
        keep = np.zeros(cut + 1, dtype=bool)
        np.not_equal(codes, 255, out=keep[:cut])
        bounds = np.concatenate(([0], np.column_stack((starts, ends)).ravel(), [cut]))
        counts = np.add.reduceat(keep.view(np.uint8), bounds[:-1], dtype=np.uint32)
        counts[bounds[:-1] == bounds[1:]] = 0
        off = np.concatenate(([0], np.cumsum(counts, dtype=np.intp))).tolist()
        kept = codes[keep[:cut]]

        if name is not None and off[1]:
            body += kept[: off[1]].data
        if starts.size:
            if name is not None:
                yield FastaRecord(name, np.frombuffer(body, dtype=np.uint8))
            names = [
                buf[s + 1 : e].decode("ascii").strip()
                for s, e in zip(starts.tolist(), ends.tolist())
            ]
            for done, lo, hi in zip(names[:-1], off[2::2], off[3::2]):
                yield FastaRecord(done, kept[lo:hi])
            name, body = names[-1], kept[off[-2] : off[-1]]

        if carry:
            midline = False
        else:
            tail = buf[int(eol[-1]) + 1 :] if eol.size else buf
            midline = bool(tail.translate(None, _SPACE_BYTES)) or (midline and not eol.size)
        if name is not None and not final and not isinstance(body, bytearray):
            body = bytearray(body)  # carried: release this block's arrays
        base += cut
    if name is not None:
        yield FastaRecord(name, np.frombuffer(body, dtype=np.uint8))


def _line_blocks(lines: Iterable[str]) -> Iterator[bytes]:
    """Batch lines into parser blocks, ending each line that lacks an end."""
    batch: list[str] = []
    size = 0
    for line in lines:
        if not line.endswith(("\n", "\r")):
            line += "\n"
        batch.append(line)
        size += len(line)
        if size >= _BLOCK:
            yield "".join(batch).encode("utf-8")
            batch, size = [], 0
    if batch:
        yield "".join(batch).encode("utf-8")


def parse_fasta(stream: Iterable[str]) -> Iterator[FastaRecord]:
    """Parse FASTA records from an iterable of lines.

    Characters outside ``ACGTacgt`` (ambiguity codes such as ``N``) are
    dropped with the same effect as the paper's preprocessing, which aligns
    plain nucleotide text.  The lines go through the same block parser as
    :func:`stream_fasta`, so a ``\\r`` inside a line ends it, as text-mode
    reading of a file would, and non-ASCII text raises :class:`FastaError`.
    """
    return _parse_blocks(_line_blocks(stream))


def _open_bytes(path: str | os.PathLike[str]):
    """Open plain or gzip-compressed bytes, told apart by magic bytes."""
    import gzip

    with open(path, "rb") as probe:
        magic = probe.read(2)
    return gzip.open(path, "rb") if magic == b"\x1f\x8b" else open(path, "rb")


def stream_fasta(path: str | os.PathLike[str]) -> Iterator[FastaRecord]:
    """Yield FASTA records one at a time without materialising the file.

    Unlike :func:`read_fasta` (which returns a list), this is a generator:
    the file (plain or gzip, detected by magic bytes) is opened lazily and
    closed when the generator is exhausted or dropped.
    """
    with _open_bytes(path) as fh:
        yield from _parse_blocks(iter(lambda: fh.read(_BLOCK), b""))


def read_fasta(path: str | os.PathLike[str]) -> list[FastaRecord]:
    """Read all records from a FASTA file (gzip detected automatically)."""
    return list(stream_fasta(path))


def _open_text(path: str | os.PathLike[str]):
    """Open text for writing, gzip-compressed when ``path`` ends in ``.gz``."""
    import gzip

    if str(path).endswith(".gz"):
        return gzip.open(path, "wt", encoding="ascii")
    return open(path, "w", encoding="ascii")


def write_fasta(
    path: str | os.PathLike[str] | io.TextIOBase,
    records: Iterable[FastaRecord | tuple[str, np.ndarray]],
    width: int = 70,
) -> None:
    """Write records to ``path`` (or an open text stream), wrapping at
    ``width``; a ``.gz`` suffix selects gzip compression."""
    own = not hasattr(path, "write")
    fh = _open_text(path) if own else path  # type: ignore[arg-type]
    try:
        for rec in records:
            if isinstance(rec, tuple):
                rec = FastaRecord(rec[0], encode(rec[1]))
            fh.write(f">{rec.name}\n")
            text = rec.text
            for i in range(0, len(text), width):
                fh.write(text[i : i + width] + "\n")
    finally:
        if own:
            fh.close()
