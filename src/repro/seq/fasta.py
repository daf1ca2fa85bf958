"""FASTA reading and writing.

The paper's inputs are chromosome-scale FASTA files from NCBI; this module
provides the same ingestion path for user-supplied files (and for the
synthetic genomes written by :mod:`repro.seq.random_dna`).

Reading is one byte-block parser behind three entry points
(:func:`stream_fasta`, :func:`read_fasta`, :func:`parse_fasta`).  The input
is read in blocks of :data:`_BLOCK` bytes and each block is parsed as a
whole: numpy locates line ends and headers, every byte is mapped through
the alphabet's 256-entry encode table, and the bytes outside ``ACGTacgt``
are dropped in one compaction.  The parser emits flat
blocks (:class:`FastaBlock`: a block's kept codes, its record offsets
and names), and :class:`FastaStream` is a view over them: it yields one
:class:`FastaRecord` at a time, or hands the blocks themselves to
:func:`repro.seq.pack_database`, which packs without a per-record step.
A record cut by a block edge is carried into the next block, so memory
stays bounded by one block (and a few block-sized work arrays) plus the
longest record.
"""

from __future__ import annotations

import io
import operator
import os
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from ..obs import get_tracer
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


@dataclass(frozen=True)
class FastaBlock:
    """Records parsed from one byte block, flat.

    Record ``i`` is named ``names[i]`` and holds
    ``codes[starts[i]:ends[i]]``; ``starts``/``ends`` are intp arrays in
    record order.  Between records ``codes`` may hold other bytes (the
    kept letters of header lines), so only the offsets delimit records.
    """

    codes: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    names: list[str]

    @property
    def n_records(self) -> int:
        return len(self.names)

    def part(self, lo: int, hi: int) -> "FastaBlock":
        """Records ``lo:hi`` of this block, sharing its codes."""
        return FastaBlock(self.codes, self.starts[lo:hi], self.ends[lo:hi], self.names[lo:hi])


def _single(name: str, codes: np.ndarray) -> FastaBlock:
    """A one-record block holding all of ``codes``."""
    return FastaBlock(codes, np.zeros(1, np.intp), np.full(1, codes.size, np.intp), [name])


class FastaStream:
    """An iterator of :class:`FastaRecord` over the parser's flat blocks.

    Each record is a view into its block's codes.  :meth:`blocks` hands
    the records not yet yielded to :func:`repro.seq.pack_database` as the
    blocks themselves, so packing needs no per-record step.
    """

    __slots__ = ("_blocks", "_block", "_records")

    def __init__(self, blocks: Iterator[FastaBlock]) -> None:
        self._blocks = blocks
        self._block: FastaBlock | None = None
        self._records: Iterator[FastaRecord] = iter(())  # the open block's

    def __iter__(self) -> "FastaStream":
        return self

    def __next__(self) -> FastaRecord:
        for record in self._records:
            return record
        while True:
            block = self._block = next(self._blocks)
            codes = block.codes
            self._records = iter(
                [
                    FastaRecord(name, codes[lo:hi])
                    for name, lo, hi in zip(block.names, block.starts.tolist(), block.ends.tolist())
                ]
            )
            for record in self._records:
                return record

    def close(self) -> None:
        """Stop parsing and close the input (as a generator's ``close``)."""
        self._blocks.close()  # type: ignore[attr-defined]

    def blocks(self) -> Iterator[FastaBlock]:
        """The records not yet yielded, as flat blocks (consumes the stream)."""
        block, left = self._block, operator.length_hint(self._records)
        self._block, self._records = None, iter(())
        if block is not None and left:
            yield block.part(block.n_records - left, block.n_records)
        yield from self._blocks


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


def _names(arr: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The stripped names of the header lines ``arr[starts[i] + 1:ends[i]]``.

    One gather of every header line, its ``>`` turned into a ``\n``
    separator (no header line holds one), and one decode and split.
    """
    sizes = ends - starts
    first = np.cumsum(sizes) - sizes
    lines = arr[np.arange(int(sizes.sum())) + np.repeat(starts - first, sizes)]
    lines[first] = ord("\n")
    return list(map(str.strip, lines[1:].tobytes().decode("ascii").split("\n")))


def _parse_blocks(blocks: Iterable[bytes]) -> Iterator[FastaBlock]:
    """Parse FASTA records from consecutive byte blocks cut anywhere.

    A header is a line whose first non-whitespace byte is ``>``; its name is
    the rest of the line, stripped.  Sequence bytes outside ``ACGTacgt``
    (ambiguity codes such as ``N``, whitespace) are dropped.  Yields flat
    blocks in record order: the records a byte block completes share one
    :class:`FastaBlock` over its kept codes; a record that crossed a block
    edge gets a block of its own.
    """
    tracer = get_tracer()
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
        done: list[FastaBlock] = []
        with tracer.span("fasta_parse", "computation", bytes=len(buf)):
            arr = np.frombuffer(buf, dtype=np.uint8)
            # Line ends as text mode reads them: \n, \r\n and a lone \r.
            eol_mask = arr == ord("\n")
            if b"\r" in buf:
                eol_mask |= arr == ord("\r")
            eol = np.flatnonzero(eol_mask)

            starts, ends = _headers(buf, arr, eol, midline)
            if not buf.isascii():
                bad = int(np.argmax(arr >= 0x80))
                j = int(np.searchsorted(starts, bad, side="right")) - 1
                owner = (
                    buf[starts[j] + 1 : ends[j]].decode("ascii", "backslashreplace").strip()
                    if j >= 0
                    else name
                )
                where = "before the first record" if owner is None else f"in record {owner!r}"
                raise FastaError(
                    f"non-ASCII byte 0x{arr[bad]:02x} at offset {base + bad} {where}"
                )

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
            off = np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))
            kept = codes[keep[:cut]]

            if name is not None and off[1]:
                body += kept[: off[1]].data
            if starts.size:
                if name is not None:
                    done.append(_single(name, np.frombuffer(body, dtype=np.uint8)))
                names = _names(arr, starts, ends)
                if len(names) > 1:
                    # Record j holds kept[off[2j + 2]:off[2j + 3]].
                    last = 2 * len(names)
                    done.append(FastaBlock(kept, off[2:last:2], off[3:last:2], names[:-1]))
                name, body = names[-1], kept[off[-2] : off[-1]]

            if carry:
                midline = False
            else:
                tail = buf[int(eol[-1]) + 1 :] if eol.size else buf
                midline = bool(tail.translate(None, _SPACE_BYTES)) or (
                    midline and not eol.size
                )
            if name is not None and not final and not isinstance(body, bytearray):
                body = bytearray(body)  # carried: release this block's arrays
            base += cut
        yield from done
    if name is not None:
        yield _single(name, np.frombuffer(body, dtype=np.uint8))


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


def parse_fasta(stream: Iterable[str]) -> FastaStream:
    """Parse FASTA records from an iterable of lines.

    Characters outside ``ACGTacgt`` (ambiguity codes such as ``N``) are
    dropped with the same effect as the paper's preprocessing, which aligns
    plain nucleotide text.  The lines go through the same block parser as
    :func:`stream_fasta`, so a ``\\r`` inside a line ends it, as text-mode
    reading of a file would, and non-ASCII text raises :class:`FastaError`.
    """
    return FastaStream(_parse_blocks(_line_blocks(stream)))


def _open_bytes(path: str | os.PathLike[str]):
    """Open plain or gzip-compressed bytes, told apart by magic bytes."""
    import gzip

    with open(path, "rb") as probe:
        magic = probe.read(2)
    return gzip.open(path, "rb") if magic == b"\x1f\x8b" else open(path, "rb")


def _file_blocks(path: str | os.PathLike[str]) -> Iterator[bytes]:
    with _open_bytes(path) as fh:
        yield from iter(lambda: fh.read(_BLOCK), b"")


def stream_fasta(path: str | os.PathLike[str]) -> FastaStream:
    """Yield FASTA records one at a time without materialising the file.

    Unlike :func:`read_fasta` (which returns a list), this is a lazy
    iterator: the file (plain or gzip, detected by magic bytes) is opened
    on the first record and closed when the stream is exhausted or
    dropped.  :func:`repro.seq.pack_database` reads the stream's flat
    blocks directly instead of its records.
    """
    return FastaStream(_parse_blocks(_file_blocks(path)))


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
