/* Compiled phase-1 paths: linear-gap DP rows, a hit-segment scan and the
 * inter-sequence search lanes.
 *
 * The numpy kernels in engine.py / regions.py / multi_engine.py are the
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

/* One query row over a packed lanes-contiguous block, in the lane dtype T.
 *
 * Column j of every lane is k contiguous cells, so the innermost loop runs
 * over lanes with no cross-lane dependency: the compiler vectorizes it as
 * written (at -O3; -O2's cheap cost model leaves it scalar).  Sums are
 * truncated to T before every max, as numpy's same-dtype adds are; the
 * caller picks T so that nothing wraps (MultiSequenceWorkspace's regimes).
 */
#define LANES_ROW(NAME, T)                                                    \
static void NAME(const T *restrict sub, int64_t n, int64_t k, T gap,         \
                 T *restrict row, T *restrict diag, T *restrict best)        \
{                                                                             \
    for (int64_t l = 0; l < k; l++)                                           \
        diag[l] = row[l];                                                     \
    for (int64_t j = 1; j <= n; j++) {                                        \
        T *restrict cur = row + j * k;                                        \
        const T *restrict left = cur - k;                                     \
        const T *restrict p = sub + (j - 1) * k;                              \
        for (int64_t l = 0; l < k; l++) {                                     \
            T up = cur[l];                                                    \
            T v = (T)(diag[l] + p[l]);                                        \
            T g = (T)(up + gap);                                              \
            v = v > g ? v : g;                                                \
            g = (T)(left[l] + gap);                                           \
            v = v > g ? v : g;                                                \
            v = v > 0 ? v : 0;                                                \
            diag[l] = up;                                                     \
            cur[l] = v;                                                       \
            best[l] = best[l] > v ? best[l] : v;                              \
        }                                                                     \
    }                                                                         \
}

LANES_ROW(lanes_row16, int16_t)
LANES_ROW(lanes_row32, int32_t)

/* Advance every lane of a packed (n + 1, k) Smith-Waterman block through a
 * whole query: H = max(up_diag + profile, up + gap, left + gap, 0), with a
 * running per-lane best.
 *
 * profile  (n_codes, n, k) substitution blocks; block c scores query code c
 *          against every target position of every lane (PAD cells included)
 * row      the (n + 1, k) block, advanced in place; column 0 stays as given
 * diag     k cells of scratch
 * best     k running maxima, updated in place
 * itemsize 2 for int16 lanes, 4 for int32 (every buffer has that dtype)
 */
void lanes(const void *profile, const uint8_t *query, int64_t m, int64_t n,
           int64_t k, int32_t gap, int itemsize, void *row, void *diag,
           void *best)
{
    const int64_t block = n * k;
    for (int64_t i = 0; i < m; i++) {
        if (itemsize == 2)
            lanes_row16((const int16_t *)profile + query[i] * block, n, k,
                        (int16_t)gap, row, diag, best);
        else
            lanes_row32((const int32_t *)profile + query[i] * block, n, k,
                        gap, row, diag, best);
    }
}
