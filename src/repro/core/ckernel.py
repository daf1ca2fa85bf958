"""Compiled kernel paths: the one checked-in C source behind the kernels.

The paper's unit of work (the band x block tile of §4.3, the NW rows of
§4.4 phase 2) runs one DP row at a time through numpy, about eight ufunc
calls per row; on 100 x 100 tiles that dispatch is the whole cost.  The
database search (one query against many packed targets) pays the same
per-row dispatch, once per query residue.  ``ckernel.c`` holds the six
loops that replace them:

* ``rows`` -- the linear-gap recurrence over a whole tile, behind
  :meth:`KernelWorkspace.sw_rows`, ``nw_rows`` and ``sw_rows_slice``; given
  a segment buffer (:meth:`KernelWorkspace.sw_rows_cut`) it also cuts every
  row's above-threshold segments while it computes the cells, so phase-1
  detection reads no row twice and needs no band buffer.  On an AVX2 CPU
  each row runs 8 columns at a time in int32 lanes, its horizontal gap
  chain resolved as an in-vector prefix maximum (Snytsar's closed-form
  lazy-F, see PAPERS.md); calls whose values could leave int32 keep the
  scalar int64 loop (:func:`row_lanes` tells which body the CPU has);
* ``regions_merge`` -- :class:`StreamingRegionFinder`'s merge over those
  segments (joined first where a row's cuts meet at a block border), with
  the active and finished regions in int64 tables, behind
  :meth:`StreamingRegionFinder.feed_segments` (about 4,000 segments per
  4 kbp blocked request, each a Python call on the numpy path);
* ``lanes`` -- a whole query down a packed batch, one 32-byte chunk of
  lanes at a time (each chunk's cells contiguous), behind
  :meth:`MultiSequenceWorkspace.sw_best_scores`, in int16 or int32 lanes;
* ``stripes`` -- a whole query through a packed ``(seg, p, k)`` striped
  block, behind :meth:`StripedMultiWorkspace.sw_best_scores`, in int8,
  int16 or int32 lanes that wrap exactly as the numpy scan's do;
* ``bound_index`` -- a packed bucket's letter counts and k-mer window ids
  (uint16 or uint32), behind :meth:`repro.seq.PackedDatabase.bound_index`,
  bit for bit what :func:`repro.core.bounds.build_bound_index` builds:
  the numpy builder took several passes over every window's codes and
  cost as much as the FASTA parse on every ``repro search`` run;
* ``kmer_hits`` -- every lane's count of window ids present in the
  query's k-mer table, over a whole database's indexes in one call, behind
  the k-mer tier of :meth:`repro.core.bounds.TieredFilter.ceilings`,
  equal to :func:`repro.core.bounds.kmer_hits`' gather bucket by bucket:
  the gather was the largest step of a pruned request's bound sweep, and
  the loop also stops at each lane's last window clear of padding.

The module is built with cffi in API mode on the *first kernel call*
(never on ``import repro``), in a child interpreter so the compiler
toolchain never lands in the caller's memory.  Builds are cached next to
the source, one directory per cffi runtime version, under a module name
keyed by the SHA-256 of the C source, the declarations, the build script
with its compiler flags and the interpreter's ABI tag, and published with
an atomic ``os.replace`` so concurrent pool workers can race to build
safely.

The flags are ``-O3`` and nothing CPU-specific: the loops vectorize only
under -O3's vectorizer cost model (at -O2 they run scalar), and the cache
is not keyed by CPU, so ``-march=native`` would make a cached build unsafe
to load on another machine.  The lane chunk loop, the striped row and the
bound index instead ask gcc (x86-64 Linux) for an AVX2 clone beside the
baseline one, picked per CPU at load time.  The DP rows' AVX2 body is
written with intrinsics in a ``target("avx2")`` function (a prototype
with gcc's vector extensions under a clone ran at 0.92x of the scalar
loop) and picked per
CPU with ``__builtin_cpu_supports`` (x86-64, gcc or clang); column 0, each
row's last ``w % 8`` columns and other CPUs run the scalar loop.

The numpy kernels stay the reference.  When cffi or a compiler is missing
the build fails once, :func:`load` warns once, and every caller keeps
running the numpy path -- same results, just slower.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
import tempfile
import warnings
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

__all__ = [
    "available", "bound_index", "kmer_hits", "lanes", "load", "regions_merge", "row_lanes", "rows",
    "stripes",
]

_SOURCE = Path(__file__).with_name("ckernel.c")

#: Bytes of lanes in one chunk of the compiled ``lanes`` loop (16 int16 or
#: 8 int32 lanes, W in ``ckernel.c``): callers pad their batch to whole
#: chunks.
LANE_CHUNK_BYTES = 32

_CDEF = """
int64_t rows(const int32_t *profile, int64_t w, const int32_t *prev,
             const int32_t *lefts, const uint8_t *s_codes, int64_t h,
             int32_t gap, int clamp, int32_t *out, int64_t out_stride,
             int64_t threshold, int64_t col_tol, int64_t *seg, int64_t cap,
             int64_t *rows_done);
int row_lanes(void);
void regions_merge(const int64_t *seg, int64_t n, int64_t i0, int64_t h,
                   int64_t col_tol, int64_t row_tol, int64_t *act,
                   int64_t *fin, int64_t *counts);
void lanes(const void *profile, const uint8_t *query, int64_t m, int64_t n,
           int64_t k, int64_t w, int32_t gap, int itemsize, void *row,
           void *best);
void stripes(const void *profile, const uint8_t *query, int64_t m,
             int64_t seg, int64_t p, int64_t k, int32_t gap, int32_t cap,
             int itemsize, void *state, void *carry, void *rowmax,
             void *best, uint8_t *ovf);
void bound_index(const uint8_t *codes, int64_t lanes, int64_t width, int64_t k,
                 int64_t *counts, void *ids, int itemsize);
void kmer_hits(const void *const *ids, const int64_t *shape, int64_t n_buckets,
               const int64_t *lengths, int64_t k, const uint8_t *table,
               int64_t *hits, int itemsize);
"""

#: Compiler flags, appended after the interpreter's own CFLAGS.
_COMPILE_ARGS = ("-O3",)

#: Run in a child interpreter: argv is (module name, C source, cdef, out dir,
#: compiler flags...).
_BUILD_SCRIPT = """
import sys, cffi
name, source, cdef, out, *flags = sys.argv[1:]
ffi = cffi.FFI()
ffi.cdef(cdef)
with open(source, encoding="utf-8") as fh:
    ffi.set_source(name, fh.read(), extra_compile_args=flags)
ffi.compile(tmpdir=out)
"""

_BUILD_TIMEOUT_S = 300

#: The interpreter's ABI tag as an extension-module suffix.
_ABI = EXTENSION_SUFFIXES[0]


def _module_name() -> str | None:
    """``_repro_ckernel_<key>``: SHA-256 of everything that shapes the build.

    That is the C source, the cdef, the build script, the compiler flags
    and the ABI tag, so a flag-only change never loads a stale module.

    Worked out once at import: a pool worker forked afterwards inherits the
    string instead of paging in file I/O and the hash for it (every page a
    forked worker touches counts against its own resident set).
    """
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None  # no source installed: load() warns and numpy runs
    recipe = "\0".join((_CDEF, _BUILD_SCRIPT, *_COMPILE_ARGS, _ABI))
    digest = hashlib.sha256(source + b"\0" + recipe.encode())
    return "_repro_ckernel_" + digest.hexdigest()[:20]


_NAME = _module_name()

#: ``(ffi, lib)`` once loaded; ``None`` before the first attempt or after a
#: failed one (``_tried`` tells which).
_handle = None
_tried = False


def _cache_dir(cffi_version: str) -> Path:
    """The build cache beside the source, one directory per cffi version."""
    here = _SOURCE.parent / "_build" / f"cffi-{cffi_version}"
    here.mkdir(parents=True, exist_ok=True)
    return here


def _build(name: str, target: Path) -> None:
    """Compile the module in a child interpreter, then publish atomically."""
    import subprocess

    with tempfile.TemporaryDirectory(dir=target.parent, prefix="tmp-") as tmp:
        proc = subprocess.run(
            [sys.executable, "-c", _BUILD_SCRIPT, name, str(_SOURCE), _CDEF, tmp,
             *_COMPILE_ARGS],
            capture_output=True,
            text=True,
            timeout=_BUILD_TIMEOUT_S,
        )
        built = Path(tmp) / target.name
        if proc.returncode != 0 or not built.exists():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
            raise RuntimeError(f"build failed: {tail[0] if tail else proc.returncode}")
        os.replace(built, target)


def _load():
    """Build (if needed) and import the extension; returns ``(ffi, lib)``."""
    import _cffi_backend  # the runtime every cffi module imports anyway

    if _NAME is None:
        raise FileNotFoundError(f"kernel source {_SOURCE} is missing")
    target = _cache_dir(_cffi_backend.__version__) / (_NAME + _ABI)
    if not target.exists():
        _build(_NAME, target)
    spec = importlib.util.spec_from_file_location(_NAME, target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


def load():
    """``(ffi, lib)`` of the compiled kernels, or ``None`` for numpy.

    The first call builds or loads the extension; a failure warns once per
    process and is remembered, so later calls return ``None`` at once.
    """
    global _handle, _tried
    if not _tried:
        _tried = True
        try:
            _handle = _load()
        except Exception as exc:  # any failure means: run the numpy reference
            _handle = None
            warnings.warn(
                f"compiled tile kernel unavailable ({type(exc).__name__}: {exc}); "
                "using the numpy kernels",
                RuntimeWarning,
                stacklevel=2,
            )
    return _handle


def available() -> bool:
    """True when the compiled path is active in this process."""
    return load() is not None


def row_lanes() -> int:
    """Columns the compiled ``rows`` computes at a time on this CPU: 8 with
    its AVX2 body, 1 with the scalar loop only (or with no compiled module,
    where the numpy rows run).  Read-only: the body is picked per CPU, and
    per call by the range rule in ``ckernel.c``."""
    handle = load()
    return 1 if handle is None else int(handle[1].row_lanes())


def _ptr(ffi, ctype: str, arr: np.ndarray):
    """A C pointer to ``arr``'s first element (``ctype`` names its array)."""
    if arr.flags.c_contiguous:
        return ffi.from_buffer(ctype, arr)  # the fast path: no address lookup
    return ffi.cast(ctype.replace("[]", " *"), arr.__array_interface__["data"][0])


def rows(
    table: np.ndarray,
    prev: np.ndarray,
    lefts: np.ndarray | None,
    codes: np.ndarray,
    gap: int,
    clamp: bool,
    out: np.ndarray,
    cut: tuple[int, int] | None = None,
) -> np.ndarray | None:
    """Run the compiled ``rows`` into ``out``; :func:`load` must have succeeded.

    The caller guarantees the layout: ``table`` is a C-contiguous int32
    ``(n_codes, w)`` profile covering every code, ``prev`` a contiguous
    int32 row of ``w + 1`` cells, ``lefts`` contiguous int32 (or None for
    zeros), ``codes`` contiguous uint8, and ``out`` an int32 ``(h, w + 1)``
    array whose columns are contiguous.

    With ``cut = (threshold, col_tolerance)`` the loop also cuts every
    row's above-threshold segments while it computes the cells, and the
    ``(n, 6)`` int64 array of them is returned: ``(row, j_lo, j_hi,
    peak_j, score, hits)`` per segment, row-major, ``row`` counted from
    the batch's first row and columns from ``out``'s column 0 (the
    boundary column, never cut).  Without ``cut`` returns None.
    """
    ffi, lib = _handle
    w, h = table.shape[1], codes.size
    stride = out.strides[0] // out.itemsize
    profile = _ptr(ffi, "int32_t[]", table)
    left = ffi.NULL if lefts is None else _ptr(ffi, "int32_t[]", lefts)
    code = _ptr(ffi, "uint8_t[]", codes)
    dest = _ptr(ffi, "int32_t[]", out)
    if cut is None:
        lib.rows(profile, w, _ptr(ffi, "int32_t[]", prev), left, code, h, gap,
                 1 if clamp else 0, dest, stride, 0, 0, ffi.NULL, 0, ffi.NULL)
        return None
    threshold, col_tol = cut
    cap = max(w, 1) + 2 * h  # one segment a row fits in one pass
    buf = np.empty((cap, 6), dtype=np.int64)
    seg = ffi.from_buffer("int64_t[]", buf)
    done = ffi.new("int64_t *")
    parts, r0, up = [], 0, _ptr(ffi, "int32_t[]", prev)
    while r0 < h:
        n = lib.rows(
            profile, w, up, left if lefts is None else left + r0, code + r0, h - r0,
            gap, 1 if clamp else 0, dest + r0 * stride, stride, threshold, col_tol,
            seg, cap, done,
        )
        if not parts and done[0] == h:
            return buf[:n]  # the usual case: the whole batch in one pass
        chunk = buf[:n].copy()
        chunk[:, 0] += r0
        parts.append(chunk)
        r0 += done[0]
        up = dest + (r0 - 1) * stride
    return np.concatenate(parts) if parts else buf[:0]


def regions_merge(
    segments: np.ndarray,
    i0: int,
    h: int,
    col_tolerance: int,
    row_tolerance: int,
    active: np.ndarray,
    finished: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Run the compiled region merge of rows ``i0 .. i0 + h - 1``;
    :func:`load` must have succeeded.

    ``segments`` is a C-contiguous ``(n, 6)`` int64 array sorted by row,
    then column (rows counted from ``i0``); ``active`` and ``finished``
    are C-contiguous int64 tables of 11 Region fields a row, with room for
    every segment to open a region, and ``counts`` their two lengths,
    updated in place with the tables.
    """
    ffi, lib = _handle
    buf = ffi.from_buffer
    lib.regions_merge(
        buf("int64_t[]", segments), len(segments), i0, h, col_tolerance, row_tolerance,
        buf("int64_t[]", active), buf("int64_t[]", finished), buf("int64_t[]", counts),
    )


def lanes(
    table: np.ndarray,
    query: np.ndarray,
    gap: int,
    row: np.ndarray,
    best: np.ndarray,
) -> None:
    """Run the compiled ``lanes`` over the whole query; :func:`load` must
    have succeeded.

    The caller guarantees the layout: ``table`` is a C-contiguous
    ``(n_codes, chunks, n, w)`` profile covering every code of ``query``
    (contiguous uint8), ``row`` a C-contiguous ``(chunks, n + 1, w)`` block
    advanced in place, ``best`` a contiguous ``(chunks * w,)`` vector;
    ``table``, ``row`` and ``best`` are all int16 or all int32.  A chunk is
    ``w`` lanes of 32 bytes, whose cells are contiguous; anything else is
    refused, as the loop walks whole chunks.
    """
    chunks, n1, w = row.shape
    if (
        w * row.itemsize != LANE_CHUNK_BYTES
        or table.shape[1:] != (chunks, n1 - 1, w)
        or best.size != chunks * w
    ):
        raise ValueError(f"lanes needs 32-byte lane chunks, got {row.shape} {row.dtype}")
    ffi, lib = _handle
    lib.lanes(
        ffi.from_buffer(table),
        ffi.from_buffer("uint8_t[]", query),
        query.size,
        n1 - 1,
        chunks * w,
        w,
        gap,
        row.itemsize,
        ffi.from_buffer(row),
        ffi.from_buffer(best),
    )


def stripes(table, query, gap: int, cap: int, best, overflowed) -> None:
    """Run the compiled ``stripes`` over the whole query; :func:`load` must
    have succeeded.  ``table`` is a C-contiguous ``(n_codes, seg, p, k)``
    profile in the lane dtype covering every code of ``query`` (contiguous
    uint8); ``best`` (lane dtype) and ``overflowed`` (bool) are zeroed
    ``(k,)`` vectors, updated in place."""
    ffi, lib = _handle
    _, seg, p, k = table.shape
    buf, dt = ffi.from_buffer, table.dtype
    state = np.zeros((2, seg, p, k), dtype=dt)  # the ping-pong row blocks
    carry, rowmax = np.empty((p, k), dtype=dt), np.empty(k, dtype=dt)
    lib.stripes(
        buf(table), buf("uint8_t[]", query), query.size, seg, p, k, gap, cap, dt.itemsize,
        buf(state), buf(carry), buf(rowmax), buf(best), buf("uint8_t[]", overflowed.view(np.uint8)),
    )


def bound_index(codes: np.ndarray, k: int | None):
    """The :class:`~repro.core.bounds.BoundIndex` of one ``(lanes, width)``
    uint8 code matrix from the compiled loop, bit for bit what
    :func:`~repro.core.bounds.build_bound_index` builds; None when the
    compiled path is off or ``codes`` is not such a matrix, and the caller
    then runs that numpy builder."""
    handle = load()
    if handle is None or codes.ndim != 2 or codes.dtype != np.uint8:
        return None
    from .bounds import BoundIndex, kmer_id_dtype

    ffi, lib = handle
    codes = np.ascontiguousarray(codes)
    lanes, width = codes.shape
    counts = np.empty((lanes, 4), dtype=np.int64)
    ids = None
    if k is not None:
        ids = np.empty((lanes, max(width - k + 1, 0)), dtype=kmer_id_dtype(k))
    lib.bound_index(
        ffi.from_buffer("uint8_t[]", codes),
        lanes,
        width,
        k or 0,
        ffi.from_buffer("int64_t[]", counts),
        ffi.NULL if ids is None else ffi.from_buffer(ids),
        2 if ids is None else ids.itemsize,
    )
    return BoundIndex(k, ids, counts)


def kmer_hits(ids, lengths: np.ndarray, k: int, table: np.ndarray) -> np.ndarray | None:
    """Every lane's k-mer hit count over a whole database from the compiled
    loop; None when the compiled path is off, and the caller then runs
    :func:`~repro.core.bounds.kmer_hits` bucket by bucket.

    ``ids`` holds each bucket's window ids (:attr:`BoundIndex.kmer_ids
    <repro.core.bounds.BoundIndex>` for this ``k``, so none exceeds the
    sentinel ``4**k`` and the loop reads only table slots), ``lengths`` every
    lane's length, bucket after bucket, and ``table`` the query's
    ``4**k + 1`` slot bool presence table
    (:attr:`~repro.core.bounds.QueryBoundContext.kmer_table`).  The counts
    come back in the order of ``lengths``, equal to the numpy gather's
    over the same indexes concatenated: a lane's windows past
    ``length - k + 1`` touch padding, hold the sentinel and are not read.
    """
    handle = load()
    if handle is None:
        return None
    from .bounds import kmer_id_dtype

    dtype = kmer_id_dtype(k)
    ids = [np.ascontiguousarray(a) for a in ids]
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    shape = np.array([a.shape for a in ids], dtype=np.int64).reshape(-1, 2)
    if (
        any(a.dtype != dtype for a in ids)
        or int(shape[:, 0].sum()) != lengths.size
        or table.dtype != np.bool_
        or table.size != 4**k + 1
    ):
        raise ValueError(f"kmer_hits needs k={k} window ids, their lane lengths and table")
    ffi, lib = handle
    buffers = [ffi.from_buffer(a) for a in ids]  # alive until the call returns
    hits = np.empty(lengths.size, dtype=np.int64)
    lib.kmer_hits(
        ffi.new("void *[]", buffers),
        ffi.from_buffer("int64_t[]", shape),
        len(ids),
        ffi.from_buffer("int64_t[]", lengths),
        k,
        ffi.from_buffer("uint8_t[]", table.view(np.uint8)),
        ffi.from_buffer("int64_t[]", hits),
        dtype.itemsize,
    )
    return hits
