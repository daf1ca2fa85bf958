/* Compiled phase-1 paths: linear-gap DP rows, a hit-segment scan, the
 * inter-sequence search lanes and the striped search scan.
 *
 * The numpy kernels in engine.py / regions.py / multi_engine.py / striped.py
 * are the
 * reference; these loops must stay bitwise equal to them
 * (tests/core/test_ckernel.py is the guard).  Keep this file small: no check
 * rule reads C.
 */
#include <stdint.h>

/* Advance h rows of H[j] = max(diag, up + gap, [0 if clamp], H[j-1] + gap).
 *
 * profile  (n_codes x w) substitution rows; row c scores query code c
 * prev     the w + 1 cells above the first row (prev[0] is the corner)
 * lefts    column 0 of each row, never clamped; NULL means all zeros
 * out      row r starts at out + r * out_stride; out may alias prev
 *
 * Sums are taken in int64, so the result is exact whenever the true scores
 * fit int32 (numpy's int64 "wide" regime gives the same values).
 */
void rows(const int32_t *profile, int64_t w, const int32_t *prev,
          const int32_t *lefts, const uint8_t *s_codes, int64_t h,
          int32_t gap, int clamp, int32_t *out, int64_t out_stride)
{
    /* Branch-free maxima: on random sequences every comparison is a coin
     * flip, and mispredicted branches cost 4x the whole cell. */
    const int64_t bottom = clamp ? 0 : INT64_MIN;
    const int32_t *up = prev;
    for (int64_t r = 0; r < h; r++) {
        const int32_t *sub = profile + (int64_t)s_codes[r] * w;
        int32_t *cur = out + r * out_stride;
        int64_t diag = up[0];
        int64_t left = lefts ? lefts[r] : 0;
        cur[0] = (int32_t)left;
        for (int64_t j = 1; j <= w; j++) {
            int64_t above = up[j];
            int64_t v = diag + sub[j - 1];
            int64_t g = above + gap;
            v = v > g ? v : g;
            v = v > bottom ? v : bottom;
            g = left + gap;
            v = v > g ? v : g;
            diag = above;
            cur[j] = (int32_t)v;
            left = v;
        }
        up = cur;
    }
}

/* Above-threshold segments of each row of a band, as StreamingRegionFinder
 * cuts them: columns 1..w, split where consecutive hits are more than
 * col_tol apart.  Each segment is six int64s (row, j_lo, j_hi, peak_j,
 * score, n); peak_j is the first maximum, as np.argmax picks it.
 *
 * Only whole rows are written: the scan stops before a row that might not
 * fit in the cap segments left (a row has at most w), stores the number of
 * rows done in *rows_done and returns the number of segments written.
 */
int64_t band_segments(const int32_t *band, int64_t h, int64_t w,
                      int64_t stride, int64_t threshold, int64_t col_tol,
                      int64_t *seg, int64_t cap, int64_t *rows_done)
{
    int64_t n = 0;
    int64_t r = 0;
    for (; r < h && cap - n >= w; r++) {
        const int32_t *row = band + r * stride;
        int64_t *s = 0;
        int64_t last = 0;
        for (int64_t j = 1; j <= w; j++) {
            int64_t v = row[j];
            if (v < threshold)
                continue;
            if (s && j - last <= col_tol) {
                s[2] = j;
                s[5] += 1;
                if (v > s[4]) {
                    s[3] = j;
                    s[4] = v;
                }
            } else {
                s = seg + 6 * n++;
                s[0] = r;
                s[1] = j;
                s[2] = j;
                s[3] = j;
                s[4] = v;
                s[5] = 1;
            }
            last = j;
        }
    }
    *rows_done = r;
    return n;
}

/* Signed byte and 32-bit max are SSE4.1 (pmaxsb, pmaxsd): on the baseline
 * x86-64 target the striped int8 rung and the int32 lanes emulate them with
 * compare and blend.  Where the loader supports it, gcc builds an AVX2
 * clone of the striped row and of the lane chunk loop as well and picks one
 * per CPU at load time, so the cached build stays safe on any x86-64
 * machine.  Both clones compile the same integer C, so their results are
 * identical. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__linux__)
#define SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define SIMD_CLONES
#endif

/* Inlined side by side into their dispatcher, the two lane loops lose
 * gcc's vectorization (the int16 diagonal goes to sixteen stack slots). */
#if defined(__GNUC__)
#define NOINLINE __attribute__((noinline))
#else
#define NOINLINE
#endif

/* The search lanes: a whole query down a packed Smith-Waterman block,
 * H = max(up_diag + profile, up + gap, left + gap, 0) per cell, in the lane
 * dtype T.
 *
 * Layout: the k lanes are cut into chunks of W (32 bytes of lanes), and
 * each chunk's cells are contiguous: position j of lane l of chunk c sits at
 * (c, j, l).  Loop order: chunks outermost, then query rows, then target
 * columns.  Each chunk walks the whole target with its diagonal, left cell
 * and running best in W-wide local arrays; the fixed-trip lane loop lets
 * gcc keep them in vector registers (at -O3), so per cell only the row cell
 * above (overwritten in place) and the profile go through memory, both
 * read at unit stride from a chunk-sized block.  Lanes never depend on each
 * other, so neither changes a value.  k must be a multiple of W:
 * MultiSequenceWorkspace pads its batch with PAD_CODE lanes of length 0,
 * which score 0 and are never returned.
 *
 * Sums are truncated to T before every max, as numpy's same-dtype adds are;
 * the caller picks T so that nothing wraps (MultiSequenceWorkspace's
 * regimes).
 */
#define LANES_CHUNK(NAME, T, W)                                               \
SIMD_CLONES NOINLINE static void NAME(const T *restrict profile,              \
                 const uint8_t *restrict query, int64_t m, int64_t n,         \
                 int64_t k, T gap, T *restrict row, T *restrict best,         \
                 int64_t step)                                                \
{                                                                             \
    const int64_t block = n * k;                                              \
    for (int64_t c = 0; c < k / W; c++) {                                     \
        T top[W];                                                             \
        for (int l = 0; l < W; l++)                                           \
            top[l] = best[c * W + l];                                         \
        for (int64_t i = 0; i < m; i++) {                                     \
            const T *restrict p = profile + query[i] * block + c * n * step;  \
            T *restrict cur = row + c * (n + 1) * step;                       \
            T diag[W], left[W];                                               \
            for (int l = 0; l < W; l++)                                       \
                diag[l] = left[l] = cur[l]; /* column 0, never written */     \
            for (int64_t j = 1; j <= n; j++) {                                \
                cur += step;                                                  \
                for (int l = 0; l < W; l++) {                                 \
                    T up = cur[l];                                            \
                    T v = (T)(diag[l] + p[l]);                                \
                    T g = (T)(up + gap);                                      \
                    v = v > g ? v : g;                                        \
                    g = (T)(left[l] + gap);                                   \
                    v = v > g ? v : g;                                        \
                    v = v > 0 ? v : 0;                                        \
                    diag[l] = up;                                             \
                    left[l] = v;                                              \
                    cur[l] = v;                                               \
                    top[l] = top[l] > v ? top[l] : v;                         \
                }                                                             \
                p += step;                                                    \
            }                                                                 \
        }                                                                     \
        for (int l = 0; l < W; l++)                                           \
            best[c * W + l] = top[l];                                         \
    }                                                                         \
}

LANES_CHUNK(lanes16, int16_t, 16)
LANES_CHUNK(lanes32, int32_t, 8)

/* Advance every lane of a packed Smith-Waterman block through a whole
 * query, with a running per-lane best.
 *
 * profile  (n_codes, k / W, n, W) substitution blocks; block c scores query
 *          code c against every target position of every lane (PAD cells
 *          included)
 * row      the (k / W, n + 1, W) block, advanced in place; column 0 stays
 *          as given
 * best     k running maxima, updated in place
 * w        W: 16 for int16 lanes, 8 for int32; k is a multiple of it
 * itemsize 2 for int16 lanes, 4 for int32 (every buffer has that dtype)
 *
 * w is the chunk's step from one target position to the next.  It comes
 * from the caller at run time on purpose: given the step as a compile-time
 * constant, gcc's vectorizer puts the int16 diagonal in sixteen stack slots
 * instead of registers, and the loop runs 5-10x slower.
 */
void lanes(const void *profile, const uint8_t *query, int64_t m, int64_t n,
           int64_t k, int64_t w, int32_t gap, int itemsize, void *row,
           void *best)
{
    if (itemsize == 2)
        lanes16(profile, query, m, n, k, (int16_t)gap, row, best, w);
    else
        lanes32(profile, query, m, n, k, gap, row, best, w);
}

/* Wrapping lane add: the sum truncated to T, as numpy's same-dtype adds are
 * (unsigned arithmetic, so an int32 wrap is not undefined behaviour). */
#define WRAP(T, U, a, b) ((T)((U)(a) + (U)(b)))

/* The striped scan of striped.py (_StripedScan._row), one query row at a
 * time over a (seg, p, k) block: plane r holds target position c*seg + r of
 * segment c of every lane, lanes contiguous.  Every sum wraps in T exactly
 * where numpy's does, so scores and overflow flags match the numpy scan bit
 * for bit, flagged (wrapped) lanes included.
 *
 * One change of schedule, not of values: numpy clamps the finished row at
 * 0 in a read-write pass of its own.  Here the row is stored unclamped,
 * every read of it clamps (MAX0), and the row maximum only reads it (a
 * maximum from 0 up is the maximum of the clamped cells).
 */
#define MAX(a, b) ((a) > (b) ? (a) : (b))
#define MAX0(a) ((a) > 0 ? (a) : 0)

#define STRIPES_ROW(NAME, T, U)                                               \
SIMD_CLONES static void NAME(const T *restrict prof, int64_t seg, int64_t p, int64_t k,  \
                 T gap, const T *restrict h, T *restrict o,                   \
                 T *restrict carry, T *restrict rowmax)                       \
{                                                                             \
    const int64_t plane = p * k;                                              \
    const int64_t gi = -(int64_t)gap;                                         \
    /* Phase 1: diagonal + vertical, fused with the within-segment chain.    \
     * Plane 0's diagonal is the last plane of the segment before (0 for     \
     * the first segment). */                                                 \
    const T *hlast = h + (seg - 1) * plane;                                   \
    for (int64_t i = 0; i < k; i++) {                                         \
        T u = WRAP(T, U, MAX0(h[i]), gap);                                    \
        o[i] = MAX(prof[i], u);                                               \
    }                                                                         \
    for (int64_t i = k; i < plane; i++) {                                     \
        T v = WRAP(T, U, MAX0(hlast[i - k]), prof[i]);                        \
        T u = WRAP(T, U, MAX0(h[i]), gap);                                    \
        o[i] = MAX(v, u);                                                     \
    }                                                                         \
    for (int64_t r = 1; r < seg; r++) {                                       \
        const T *hr = h + r * plane;                                          \
        const T *pr = prof + r * plane;                                       \
        T *or_ = o + r * plane;                                               \
        for (int64_t i = 0; i < plane; i++) {                                 \
            T v = WRAP(T, U, MAX0(hr[i - plane]), pr[i]);                     \
            T u = MAX(MAX0(hr[i]), or_[i - plane]);                           \
            u = WRAP(T, U, u, gap);                                           \
            or_[i] = MAX(v, u);                                               \
        }                                                                     \
    }                                                                         \
    /* Phase 2: cross-segment carries; carry[c] enters segment c.  Only an   \
     * end value above span can cross a whole segment, so the serial chain  \
     * runs only then. */                                                     \
    const T *tend = o + (seg - 1) * plane;                                    \
    T tm = 0; /* below 1 it neither takes the chain nor injects */          \
    for (int64_t i = 0; i < plane; i++)                                       \
        tm = MAX(tm, tend[i]);                                                \
    for (int64_t l = 0; l < k; l++)                                           \
        carry[l] = 0;                                                         \
    if ((int64_t)tm > gi * seg) {                                             \
        const T gseg = (T)(gap * seg);                                        \
        for (int64_t i = k; i < plane; i++) {                                 \
            T e = i < 2 * k ? tend[i - k]                                     \
                            : WRAP(T, U, carry[i - k], gseg);                 \
            carry[i] = MAX(e, tend[i - k]);                                   \
        }                                                                     \
        tm = 0;                                                               \
        for (int64_t i = 0; i < plane; i++)                                   \
            tm = MAX(tm, carry[i]);                                           \
    } else {                                                                  \
        for (int64_t i = k; i < plane; i++)                                   \
            carry[i] = tend[i - k];                                           \
    }                                                                         \
    /* Phase 3: inject the carries down to the depth d the row maximum can  \
     * still reach. */                                                        \
    int64_t d = tm >= 1 ? ((int64_t)tm - 1) / gi : 0;                         \
    d = d < seg ? d : seg;                                                    \
    for (int64_t r = 0; r < d; r++) {                                         \
        T *or_ = o + r * plane;                                               \
        const T decay = (T)(gap * (r + 1));                                   \
        for (int64_t i = 0; i < plane; i++)                                   \
            or_[i] = MAX(or_[i], WRAP(T, U, carry[i], decay));                \
    }                                                                         \
    /* The per-lane row maximum: fold the seg planes into carry (free now)  \
     * with plane-wide maxima, then the p segments of each lane. */           \
    for (int64_t i = 0; i < plane; i++)                                       \
        carry[i] = o[i];                                                      \
    for (int64_t r = 1; r < seg; r++) {                                       \
        const T *or_ = o + r * plane;                                         \
        for (int64_t i = 0; i < plane; i++)                                   \
            carry[i] = MAX(carry[i], or_[i]);                                 \
    }                                                                         \
    for (int64_t l = 0; l < k; l++)                                           \
        rowmax[l] = 0;                                                        \
    for (int64_t c = 0; c < p; c++) {                                         \
        const T *cc = carry + c * k;                                          \
        for (int64_t l = 0; l < k; l++)                                       \
            rowmax[l] = MAX(rowmax[l], cc[l]);                                \
    }                                                                         \
}                                                                             \
                                                                              \
static void NAME##_scan(const T *profile, const uint8_t *query, int64_t m,   \
                        int64_t seg, int64_t p, int64_t k, T gap, T cap,     \
                        T *state, T *carry, T *rowmax, T *best,               \
                        uint8_t *ovf)                                         \
{                                                                             \
    const int64_t block = seg * p * k;                                        \
    T *h = state;                                                             \
    T *o = state + block;                                                     \
    for (int64_t i = 0; i < m; i++) {                                         \
        NAME(profile + query[i] * block, seg, p, k, gap, h, o, carry,         \
             rowmax);                                                         \
        for (int64_t l = 0; l < k; l++) {                                     \
            best[l] = MAX(best[l], rowmax[l]);                                \
            ovf[l] |= rowmax[l] >= cap;                                       \
        }                                                                     \
        T *t = h;                                                             \
        h = o;                                                                \
        o = t;                                                                \
    }                                                                         \
}

STRIPES_ROW(stripes_row8, int8_t, uint8_t)
STRIPES_ROW(stripes_row16, int16_t, uint16_t)
STRIPES_ROW(stripes_row32, int32_t, uint32_t)

/* Run a whole query through a packed (seg, p, k) striped block.
 *
 * profile  (n_codes, seg, p, k) striped profiles; block c scores query
 *          code c against every position of every lane (PAD cells hold
 *          the lane dtype's pad score)
 * state    (2, seg, p, k) all zeros on entry: the ping-pong row blocks
 * carry    (p, k) scratch; rowmax (k,) scratch
 * best     k running maxima, updated in place
 * ovf      k sticky overflow flags (rowmax >= cap), or-ed in place
 * itemsize 1, 2 or 4 for int8, int16 or int32 lanes (every T buffer)
 */
void stripes(const void *profile, const uint8_t *query, int64_t m,
             int64_t seg, int64_t p, int64_t k, int32_t gap, int32_t cap,
             int itemsize, void *state, void *carry, void *rowmax,
             void *best, uint8_t *ovf)
{
    if (itemsize == 1)
        stripes_row8_scan(profile, query, m, seg, p, k, (int8_t)gap,
                          (int8_t)cap, state, carry, rowmax, best, ovf);
    else if (itemsize == 2)
        stripes_row16_scan(profile, query, m, seg, p, k, (int16_t)gap,
                           (int16_t)cap, state, carry, rowmax, best, ovf);
    else
        stripes_row32_scan(profile, query, m, seg, p, k, gap, cap, state,
                           carry, rowmax, best, ovf);
}
