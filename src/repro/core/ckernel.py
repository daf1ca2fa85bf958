"""Compiled kernel paths: the one checked-in C source behind the kernels.

The paper's unit of work (the band x block tile of §4.3, the NW rows of
§4.4 phase 2) runs one DP row at a time through numpy, about eight ufunc
calls per row; on 100 x 100 tiles that dispatch is the whole cost.  The
database search (one query against many packed targets) pays the same
per-row dispatch, once per query residue.  ``ckernel.c`` holds the four
loops that replace them:

* ``rows`` -- the linear-gap recurrence over a whole tile, behind
  :meth:`KernelWorkspace.sw_rows`, ``nw_rows`` and ``sw_rows_slice``;
* ``band_segments`` -- the above-threshold segment scan behind
  :meth:`StreamingRegionFinder.feed_rows`;
* ``lanes`` -- a whole query down a packed batch, one 32-byte chunk of
  lanes at a time (each chunk's cells contiguous), behind
  :meth:`MultiSequenceWorkspace.sw_best_scores`, in int16 or int32 lanes;
* ``stripes`` -- a whole query through a packed ``(seg, p, k)`` striped
  block, behind :meth:`StripedMultiWorkspace.sw_best_scores`, in int8,
  int16 or int32 lanes that wrap exactly as the numpy scan's do.

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
to load on another machine.  The lane chunk loop and the striped row
instead ask gcc (x86-64 Linux) for an AVX2 clone beside the baseline one,
picked per CPU at load time.

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

from .scoring import SCORE_DTYPE

__all__ = ["available", "band_segments", "lanes", "load", "rows", "stripes"]

_SOURCE = Path(__file__).with_name("ckernel.c")

#: Bytes of lanes in one chunk of the compiled ``lanes`` loop (16 int16 or
#: 8 int32 lanes, W in ``ckernel.c``): callers pad their batch to whole
#: chunks.
LANE_CHUNK_BYTES = 32

_CDEF = """
void rows(const int32_t *profile, int64_t w, const int32_t *prev,
          const int32_t *lefts, const uint8_t *s_codes, int64_t h,
          int32_t gap, int clamp, int32_t *out, int64_t out_stride);
int64_t band_segments(const int32_t *band, int64_t h, int64_t w,
                      int64_t stride, int64_t threshold, int64_t col_tol,
                      int64_t *seg, int64_t cap, int64_t *rows_done);
void lanes(const void *profile, const uint8_t *query, int64_t m, int64_t n,
           int64_t k, int64_t w, int32_t gap, int itemsize, void *row,
           void *best);
void stripes(const void *profile, const uint8_t *query, int64_t m,
             int64_t seg, int64_t p, int64_t k, int32_t gap, int32_t cap,
             int itemsize, void *state, void *carry, void *rowmax,
             void *best, uint8_t *ovf);
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
) -> None:
    """Run the compiled ``rows`` into ``out``; :func:`load` must have succeeded.

    The caller guarantees the layout: ``table`` is a C-contiguous int32
    ``(n_codes, w)`` profile covering every code, ``prev`` a contiguous
    int32 row of ``w + 1`` cells, ``lefts`` contiguous int32 (or None for
    zeros), ``codes`` contiguous uint8, and ``out`` an int32 ``(h, w + 1)``
    array whose columns are contiguous.
    """
    ffi, lib = _handle
    lib.rows(
        _ptr(ffi, "int32_t[]", table),
        table.shape[1],
        _ptr(ffi, "int32_t[]", prev),
        ffi.NULL if lefts is None else _ptr(ffi, "int32_t[]", lefts),
        _ptr(ffi, "uint8_t[]", codes),
        codes.size,
        gap,
        1 if clamp else 0,
        _ptr(ffi, "int32_t[]", out),
        out.strides[0] // out.itemsize,
    )


def band_segments(band: np.ndarray, threshold: int, col_tolerance: int) -> list | None:
    """Per-row hit segments ``[row, j_lo, j_hi, peak_j, score, n]`` of a band.

    ``band`` is ``(h, w + 1)`` with the boundary column at index 0.  Returns
    None when the compiled path is off or the band's layout does not suit
    it (not int32, or columns not contiguous); the caller then cuts the
    segments row by row in numpy.
    """
    handle = load()
    if (
        handle is None
        or band.ndim != 2
        or band.dtype != SCORE_DTYPE
        or band.strides[1] != band.itemsize
    ):
        return None
    ffi, lib = handle
    h, w = band.shape[0], band.shape[1] - 1
    cap = max(w, 1) + 4 * h
    buf = np.empty((cap, 6), dtype=np.int64)
    done = ffi.new("int64_t *")
    out: list = []
    r0 = 0
    while r0 < h:
        n = lib.band_segments(
            _ptr(ffi, "int32_t[]", band[r0:]),
            h - r0,
            w,
            band.strides[0] // band.itemsize,
            threshold,
            col_tolerance,
            _ptr(ffi, "int64_t[]", buf),
            cap,
            done,
        )
        chunk = buf[:n]
        if r0:
            chunk[:, 0] += r0
        out.extend(chunk.tolist())
        r0 += done[0]
    return out


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
