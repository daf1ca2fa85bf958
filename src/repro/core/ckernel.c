/* Compiled phase-1 paths: linear-gap DP rows with a fused hit-segment cut
 * (8 int32 lanes a row on AVX2 CPUs), the region merge, the inter-sequence
 * search lanes, the striped search scan, the search prefilter's bound index
 * and its k-mer hit sweep.
 *
 * The numpy kernels in engine.py / regions.py / multi_engine.py / striped.py
 * / bounds.py are the reference; these loops must stay bitwise equal to them
 * (tests/core/test_ckernel.py is the guard).  Keep this file small: no check
 * rule reads C.
 */
#include <stdint.h>

#define MAX(a, b) ((a) > (b) ? (a) : (b))
#define MIN(a, b) ((a) < (b) ? (a) : (b))

#if defined(__GNUC__)
#define INLINE inline __attribute__((always_inline))
#else
#define INLINE inline
#endif

/* One cell at or above the threshold at column j of row r: it extends the
 * open segment (the first maximum stays its peak) when the last hit is at
 * most col_tol columns back, else it closes that segment into seg and opens
 * one.  The segment state is the caller's locals lo, last, peak, top, hits
 * and n. */
#define SEG_CLOSE()                                                           \
    do {                                                                      \
        int64_t *s_ = seg + 6 * n++;                                          \
        s_[0] = r; s_[1] = lo; s_[2] = last;                                  \
        s_[3] = peak; s_[4] = top; s_[5] = hits;                              \
    } while (0)

#define SEG_HIT(j, cell)                                                      \
    do {                                                                      \
        if (hits && (j) - last <= col_tol) {                                  \
            hits++;                                                           \
            if ((cell) > top) {                                               \
                top = (cell);                                                 \
                peak = (j);                                                   \
            }                                                                 \
        } else {                                                              \
            if (hits)                                                         \
                SEG_CLOSE();                                                  \
            lo = peak = (j);                                                  \
            top = (cell);                                                     \
            hits = 1;                                                         \
        }                                                                     \
        last = (j);                                                           \
    } while (0)

/* A row's state where its vector chunks hand over to its scalar columns:
 * the row-above cell of the next diagonal, the left cell, the open segment
 * and the number of segments written. */
struct row_state {
    int64_t diag, left, lo, last, peak, top, hits, n;
};

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define ROW_AVX2 __attribute__((target("avx2")))

/* 1 when this CPU runs the AVX2 row body (row_lanes() is 8). */
static int row_simd(void)
{
    static int known = -1;
    if (known < 0) {
        __builtin_cpu_init();
        known = __builtin_cpu_supports("avx2") ? 1 : 0;
    }
    return known;
}

/* The range rule: 1 when no value a call can reach, and no intermediate of
 * row_chunks, leaves int32, so its 32-bit lanes equal the int64 loop.
 * Every cell of columns 1..w is reached from a border cell (prev, lefts)
 * or the clamp's 0 by at most min(h, w) diagonal steps, each at most the
 * largest substitution score, and vertical and horizontal steps that only
 * add gap <= 0.  So cells lie in [lo, hi] with
 *     hi = max(borders, 0) + min(h, w) * max(s_max, 0)
 *     lo = min(borders) + h * gap
 * and the body adds at most s_max above them and min(s_min, 8 * gap) below.
 * The profile's extremes are those of the codes that occur in s_codes. */
ROW_AVX2 static int rows_fit_int32(const int32_t *profile, int64_t w,
                                   const int32_t *prev, const int32_t *lefts,
                                   const uint8_t *s_codes, int64_t h, int32_t gap)
{
    if (gap > 0 || w < 8 || w > INT32_MAX - 16 || h > INT32_MAX
        || 8 * (int64_t)gap < INT32_MIN)
        return 0;
    int32_t b_min = 0, b_max = 0;  /* lefts NULL: column 0 is all zeros */
    for (int64_t j = 0; j <= w; j++) {
        b_min = MIN(b_min, prev[j]);
        b_max = MAX(b_max, prev[j]);
    }
    if (lefts)
        for (int64_t r = 0; r < h; r++) {
            b_min = MIN(b_min, lefts[r]);
            b_max = MAX(b_max, lefts[r]);
        }
    uint8_t seen[256] = {0};
    for (int64_t r = 0; r < h; r++)
        seen[s_codes[r]] = 1;
    int32_t s_min = 0, s_max = 0;
    for (int c = 0; c < 256; c++) {
        if (!seen[c])
            continue;
        const int32_t *sub = profile + (int64_t)c * w;
        int32_t a = sub[0], b = sub[0];
        for (int64_t j = 1; j < w; j++) {
            a = MIN(a, sub[j]);
            b = MAX(b, sub[j]);
        }
        s_min = MIN(s_min, a);
        s_max = MAX(s_max, b);
    }
    const int64_t hi = (int64_t)b_max + MIN(h, w) * (int64_t)s_max + s_max;
    const int64_t lo = (int64_t)b_min + h * (int64_t)gap + MIN(s_min, 8 * (int64_t)gap);
    return hi <= INT32_MAX && lo >= INT32_MIN;
}

/* Largest (smallest) lane of x, in every lane. */
ROW_AVX2 static inline __m256i hmax8(__m256i x)
{
    x = _mm256_max_epi32(x, _mm256_permute2x128_si256(x, x, 1));
    x = _mm256_max_epi32(x, _mm256_shuffle_epi32(x, _MM_SHUFFLE(1, 0, 3, 2)));
    return _mm256_max_epi32(x, _mm256_shuffle_epi32(x, _MM_SHUFFLE(2, 3, 0, 1)));
}

ROW_AVX2 static inline __m256i hmin8(__m256i x)
{
    x = _mm256_min_epi32(x, _mm256_permute2x128_si256(x, x, 1));
    x = _mm256_min_epi32(x, _mm256_shuffle_epi32(x, _MM_SHUFFLE(1, 0, 3, 2)));
    return _mm256_min_epi32(x, _mm256_shuffle_epi32(x, _MM_SHUFFLE(2, 3, 0, 1)));
}

/* Fold a run of whole-hit chunks (per lane: its maximum and the first
 * column it was reached at) into the open segment's (top, peak): a higher
 * maximum wins, at the lowest column that holds it. */
ROW_AVX2 static inline void fold_run(__m256i run_top, __m256i run_col, int64_t *top,
                                     int64_t *peak)
{
    const __m256i best = hmax8(run_top);
    const int32_t t = _mm256_cvtsi256_si32(best);
    if (t > *top) {
        const __m256i at = _mm256_blendv_epi8(_mm256_set1_epi32(INT32_MAX), run_col,
                                              _mm256_cmpeq_epi32(run_top, best));
        *top = t;
        *peak = _mm256_cvtsi256_si32(hmin8(at));
    }
}

/* Columns 1 .. 8k of row r (8k <= w) eight at a time, in int32 lanes; the
 * caller's scalar loop takes columns 8k + 1 .. w from st.  Per chunk:
 *
 *   v = max(diag + sub, up + gap, [0])  two unaligned loads of the row above
 *   v = max(v, v << s + s * gap)        s = 1, 2, 4: the horizontal chain
 *                                       H[j] = max(v[j], H[j-1] + gap) as an
 *                                       in-vector prefix maximum (a shift
 *                                       is one vpermd; its low lanes read
 *                                       themselves, and v + s * gap <= v)
 *   H = max(v, left + (1..8) * gap)     the carry from the chunk before
 *   left = max(v[7], left + 8 * gap)    so the chain between chunks is one
 *                                       add and one max per 8 cells
 *
 * out may alias the row above (a one-row batch): each chunk loads the next
 * chunk's diagonal, whose lane 0 it is about to overwrite, before it
 * stores, and hands the remainder's diagonal over from a register.
 *
 * The cut: a chunk without hits costs one compare.  A chunk of 8 hits that
 * extends the open segment only counts them and keeps a per-lane running
 * maximum with the first column it was reached at; the run is folded into
 * (top, peak) when it ends (strictly greater wins, then the lowest column
 * of the maximum, so the peak is still the first maximum).  Any other
 * chunk with hits takes SEG_HIT cell by cell. */
ROW_AVX2 static int64_t row_chunks(const int32_t *sub, const int32_t *up, int32_t *cur,
                                   int64_t w, int32_t gap, int clamp, int cut, int32_t thr,
                                   int64_t col_tol, int64_t *seg, int64_t r,
                                   struct row_state *st)
{
    const __m256i vgap = _mm256_set1_epi32(gap);
    const __m256i gap2 = _mm256_set1_epi32(2 * gap), gap4 = _mm256_set1_epi32(4 * gap);
    const __m256i gap8 = _mm256_set1_epi32(8 * gap);
    const __m256i ramp = _mm256_mullo_epi32(vgap, _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8));
    const __m256i shl1 = _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6);
    const __m256i shl2 = _mm256_setr_epi32(0, 1, 0, 1, 2, 3, 4, 5);
    const __m256i shl4 = _mm256_setr_epi32(0, 1, 2, 3, 0, 1, 2, 3);
    const __m256i lane7 = _mm256_set1_epi32(7);
    const __m256i bottom = _mm256_set1_epi32(clamp ? 0 : INT32_MIN);
    const __m256i below = _mm256_set1_epi32(thr == INT32_MIN ? 0 : thr - 1);
    const __m256i eight = _mm256_set1_epi32(8);
    const int all_hit = thr == INT32_MIN; /* every int32 cell is a hit */
    __m256i left = _mm256_set1_epi32((int32_t)st->left);
    __m256i diag = _mm256_loadu_si256((const __m256i *)up);
    __m256i above = diag;
    __m256i col = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8);
    __m256i run_top = diag, run_col = col;
    int run = 0;
    int64_t lo = 0, last = 0, peak = 0, top = 0, hits = 0, n = st->n;
    int64_t j = 1;
    for (; j + 7 <= w; j += 8) {
        above = _mm256_loadu_si256((const __m256i *)(up + j));
        const __m256i s = _mm256_loadu_si256((const __m256i *)(sub + j - 1));
        __m256i v = _mm256_max_epi32(_mm256_add_epi32(diag, s), _mm256_add_epi32(above, vgap));
        v = _mm256_max_epi32(v, bottom);
        v = _mm256_max_epi32(v, _mm256_add_epi32(_mm256_permutevar8x32_epi32(v, shl1), vgap));
        v = _mm256_max_epi32(v, _mm256_add_epi32(_mm256_permutevar8x32_epi32(v, shl2), gap2));
        v = _mm256_max_epi32(v, _mm256_add_epi32(_mm256_permutevar8x32_epi32(v, shl4), gap4));
        const __m256i cells = _mm256_max_epi32(v, _mm256_add_epi32(left, ramp));
        left = _mm256_max_epi32(_mm256_permutevar8x32_epi32(v, lane7),
                                _mm256_add_epi32(left, gap8));
        if (j + 15 <= w)
            diag = _mm256_loadu_si256((const __m256i *)(up + j + 7));
        _mm256_storeu_si256((__m256i *)(cur + j), cells);
        if (cut) {
            const unsigned m = all_hit ? 0xFFu : (unsigned)_mm256_movemask_ps(
                _mm256_castsi256_ps(_mm256_cmpgt_epi32(cells, below)));
            if (m == 0xFFu && hits && j - last <= col_tol) {
                if (run) {
                    const __m256i gain = _mm256_cmpgt_epi32(cells, run_top);
                    run_top = _mm256_max_epi32(run_top, cells);
                    run_col = _mm256_blendv_epi8(run_col, col, gain);
                } else {
                    run_top = cells;
                    run_col = col;
                    run = 1;
                }
                hits += 8;
                last = j + 7;
            } else if (m) {
                if (run) {
                    fold_run(run_top, run_col, &top, &peak);
                    run = 0;
                }
                for (unsigned b = m; b; b &= b - 1) {
                    const int64_t jj = j + __builtin_ctz(b);
                    const int32_t cell = cur[jj];
                    SEG_HIT(jj, cell);
                }
            }
            col = _mm256_add_epi32(col, eight);
        }
    }
    if (run)
        fold_run(run_top, run_col, &top, &peak);
    st->diag = _mm256_extract_epi32(above, 7);
    st->left = _mm256_cvtsi256_si32(left);
    st->lo = lo;
    st->last = last;
    st->peak = peak;
    st->top = top;
    st->hits = hits;
    st->n = n;
    return j;
}
#else
static int row_simd(void) { return 0; }
#endif

/* 8 when the rows run the AVX2 body on this CPU (whenever the range rule
 * lets them), 1 when every row runs the scalar loop. */
int row_lanes(void)
{
    return row_simd() ? 8 : 1;
}

/* Advance h rows of H[j] = max(diag, up + gap, [0 if clamp], H[j-1] + gap).
 *
 * profile  (n_codes x w) substitution rows; row c scores query code c
 * prev     the w + 1 cells above the first row (prev[0] is the corner)
 * lefts    column 0 of each row, never clamped; NULL means all zeros
 * out      row r starts at out + r * out_stride; out may alias prev
 *
 * The scalar loop takes its sums in int64, so the result is exact whenever
 * the true scores fit int32 (numpy's int64 "wide" regime gives the same
 * values).  On an AVX2 CPU columns 1 .. 8k of each row run in 8 int32 lanes
 * instead (row_chunks), and column 0 and the last w % 8 columns in the
 * scalar loop.  Two rules keep the lanes equal to the int64 loop:
 *
 * range     rows_fit_int32 bounds every value and intermediate of the
 *           call from prev, lefts, the profile's extremes, h and w; a call
 *           that might leave int32 runs the scalar loop throughout.
 * aliasing  out may alias prev for a one-row batch (the in-place reverse
 *           scan): each chunk reads the row above up to the next chunk's
 *           diagonal before it stores over it, and column 0 is stored last.
 *
 * With cut (a constant in each instantiation, so the plain loop carries
 * none of it) the loop also cuts each row's above-threshold segments as
 * its cells are computed (StreamingRegionFinder's cut): columns 1..w,
 * split where consecutive hits are more than col_tol apart.  Each segment
 * is six int64s (row, j_lo, j_hi, peak_j, score, n); peak_j is the first
 * maximum, as np.argmax picks it.  The cut reads the stored int32 cell, as
 * the numpy cut reads the finished row, and compares it in 32 bits (about
 * a fifth of the cut's cost on the align-pool tiles).  The open segment
 * lives in registers and is stored when the next one opens or the row
 * ends.  Only whole rows are computed: the loop stops before a row that
 * might not fit in the cap segments left (a row has at most w), stores the
 * number of rows done in *rows_done and returns the number of segments
 * written; the caller resumes from there.
 */
static INLINE int64_t dp_rows(const int32_t *profile, int64_t w, const int32_t *prev,
                              const int32_t *lefts, const uint8_t *s_codes, int64_t h,
                              int32_t gap, int clamp, int32_t *out, int64_t out_stride,
                              const int cut, int32_t thr, int64_t col_tol,
                              int64_t *seg, int64_t cap, int64_t *rows_done)
{
#ifdef ROW_AVX2
    const int vec = row_simd() && rows_fit_int32(profile, w, prev, lefts, s_codes, h, gap);
#endif
    /* Branch-free maxima: on random sequences every comparison is a coin
     * flip, and mispredicted branches cost 4x the whole cell. */
    const int64_t bottom = clamp ? 0 : INT64_MIN;
    const int32_t *up = prev;
    int64_t n = 0;
    int64_t r = 0;
    for (; r < h && (!cut || cap - n >= w); r++) {
        const int32_t *sub = profile + (int64_t)s_codes[r] * w;
        int32_t *cur = out + r * out_stride;
        int64_t diag = up[0];
        const int64_t left0 = lefts ? lefts[r] : 0;
        int64_t left = left0;
        int64_t lo = 0, last = 0, peak = 0, top = 0, hits = 0;
        int64_t j = 1;
#ifdef ROW_AVX2
        if (vec) {
            struct row_state st = {.left = left, .n = n};
            j = row_chunks(sub, up, cur, w, gap, clamp, cut, thr, col_tol, seg, r, &st);
            diag = st.diag;
            left = st.left;
            lo = st.lo;
            last = st.last;
            peak = st.peak;
            top = st.top;
            hits = st.hits;
            n = st.n;
        }
#endif
        for (; j <= w; j++) {
            int64_t above = up[j];
            int64_t v = diag + sub[j - 1];
            int64_t g = above + gap;
            v = v > g ? v : g;
            v = v > bottom ? v : bottom;
            g = left + gap;
            v = v > g ? v : g;
            diag = above;
            const int32_t cell = (int32_t)v;
            cur[j] = cell;
            left = v;
            if (cut && cell >= thr)
                SEG_HIT(j, cell);
        }
        cur[0] = (int32_t)left0;
        if (cut && hits)
            SEG_CLOSE();
        up = cur;
    }
    if (rows_done)
        *rows_done = r;
    return n;
}

/* dp_rows without the cut, or with it when seg is given (NULL: the other
 * cut arguments are ignored).  A threshold above INT32_MAX has no hits in
 * int32 cells, so it cuts nothing; one below INT32_MIN passes every cell,
 * as INT32_MIN does. */
int64_t rows(const int32_t *profile, int64_t w, const int32_t *prev,
             const int32_t *lefts, const uint8_t *s_codes, int64_t h,
             int32_t gap, int clamp, int32_t *out, int64_t out_stride,
             int64_t threshold, int64_t col_tol, int64_t *seg, int64_t cap,
             int64_t *rows_done)
{
    if (seg && threshold <= INT32_MAX) {
        const int32_t thr = threshold < INT32_MIN ? INT32_MIN : (int32_t)threshold;
        return dp_rows(profile, w, prev, lefts, s_codes, h, gap, clamp, out,
                       out_stride, 1, thr, col_tol, seg, cap, rows_done);
    }
    return dp_rows(profile, w, prev, lefts, s_codes, h, gap, clamp, out,
                   out_stride, 0, 0, 0, 0, 0, rows_done);
}

/* StreamingRegionFinder's merge over the segments of rows i0 .. i0 + h - 1.
 *
 * A region is REGION int64s in Region's field order: s_start, s_end,
 * t_start, t_end, score, peak_i, peak_j, n_hits, last_row, cur_lo, cur_hi.
 * act and fin are the active and finished tables, counts[0] and counts[1]
 * their lengths; the caller sizes them for every segment to open a region.
 *
 * seg holds (row - i0, j_lo, j_hi, peak_j, score, n) sorted by row, then
 * column.  Consecutive segments of one row at most col_tol apart are first
 * joined (tile cuts meet at block borders): the later peak wins only if it
 * scores strictly higher.  Then, row by row, the same steps as the Python
 * merge in the same order: _retire, and _add_segment with _absorb, so the
 * tables hold the same regions in the same order as its lists.
 */
#define REGION 11
enum { S0, S1, T0, T1, SCORE, PEAK_I, PEAK_J, HITS, LAST, CUR_LO, CUR_HI };

static void absorb(int64_t *t, const int64_t *e)
{
    t[S0] = MIN(t[S0], e[S0]);
    t[S1] = MAX(t[S1], e[S1]);
    t[T0] = MIN(t[T0], e[T0]);
    t[T1] = MAX(t[T1], e[T1]);
    t[HITS] += e[HITS];
    if (e[LAST] >= t[LAST]) {
        t[CUR_LO] = MIN(t[CUR_LO], e[CUR_LO]);
        t[CUR_HI] = MAX(t[CUR_HI], e[CUR_HI]);
    }
    if (e[SCORE] > t[SCORE]) {
        t[SCORE] = e[SCORE];
        t[PEAK_I] = e[PEAK_I];
        t[PEAK_J] = e[PEAK_J];
    }
}

void regions_merge(const int64_t *seg, int64_t n, int64_t i0, int64_t h,
                   int64_t col_tol, int64_t row_tol, int64_t *act,
                   int64_t *fin, int64_t *counts)
{
    int64_t na = counts[0], nf = counts[1];
    int64_t k = 0;
    for (int64_t r = 0; r < h; r++) {
        const int64_t i = i0 + r;
        /* _retire: regions idle for more than row_tol rows finish */
        int64_t keep = 0;
        for (int64_t a = 0; a < na; a++) {
            int64_t *reg = act + REGION * a;
            int64_t *dst = i - reg[LAST] > row_tol ? fin + REGION * nf++
                                                   : act + REGION * keep++;
            if (dst != reg)
                for (int f = 0; f < REGION; f++)
                    dst[f] = reg[f];
        }
        na = keep;
        for (; k < n && seg[6 * k] == r; ) {
            const int64_t *s = seg + 6 * k++;
            const int64_t lo = s[1];
            int64_t hi = s[2], peak = s[3], score = s[4], hits = s[5];
            for (; k < n && seg[6 * k] == r && seg[6 * k + 1] - hi <= col_tol; k++) {
                const int64_t *x = seg + 6 * k;
                hi = x[2];
                hits += x[5];
                if (x[4] > score) {
                    score = x[4];
                    peak = x[3];
                }
            }
            /* _add_segment: the first matching region absorbs the others */
            int64_t *target = 0;
            keep = 0;
            for (int64_t a = 0; a < na; a++) {
                int64_t *reg = act + REGION * a;
                const int match = lo <= reg[CUR_HI] + col_tol + (i - reg[LAST])
                                  && hi >= reg[CUR_LO] - col_tol;
                if (match && target) {
                    absorb(target, reg);
                    continue;
                }
                int64_t *dst = act + REGION * keep++;
                if (dst != reg)
                    for (int f = 0; f < REGION; f++)
                        dst[f] = reg[f];
                if (match)
                    target = dst;
            }
            na = keep;
            if (!target) {
                int64_t *g = act + REGION * na++;
                g[S0] = i - 1;
                g[S1] = i;
                g[T0] = lo - 1;
                g[T1] = hi;
                g[SCORE] = score;
                g[PEAK_I] = i;
                g[PEAK_J] = peak;
                g[HITS] = hits;
                g[LAST] = i;
                g[CUR_LO] = lo;
                g[CUR_HI] = hi;
                continue;
            }
            target[S1] = i;
            target[T0] = MIN(target[T0], lo - 1);
            target[T1] = MAX(target[T1], hi);
            target[HITS] += hits;
            if (target[LAST] == i) {
                target[CUR_LO] = MIN(target[CUR_LO], lo);
                target[CUR_HI] = MAX(target[CUR_HI], hi);
            } else {
                target[CUR_LO] = lo;
                target[CUR_HI] = hi;
            }
            target[LAST] = i;
            if (score > target[SCORE]) {
                target[SCORE] = score;
                target[PEAK_I] = i;
                target[PEAK_J] = peak;
            }
        }
    }
    counts[0] = na;
    counts[1] = nf;
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

/* The prefilter's bound index of a packed (lanes x width) code matrix, as
 * bounds.build_bound_index builds it: per lane the counts of codes 0..3,
 * and the base-4 id (first code most significant) of every window of k
 * codes, or the sentinel 4**k when the window holds a code >= 4 (PAD or a
 * non-ACGT code).  A window holds one iff the OR of its codes has a bit
 * above the low two set.
 *
 * Both loops are shaped for gcc's vectorizer.  The counts are summed in
 * byte accumulators over runs of at most 255 codes.  The ids are built
 * BOUND_TILE windows at a time: k passes each shift one code into every
 * window's id (and OR it into the window's flag) in fixed-size local
 * arrays, then the tile is stored; the last windows of a lane, fewer than
 * a tile, go one at a time.
 *
 * counts   (lanes, 4) int64
 * ids      (lanes, width - k + 1) ids; NULL, with k 0, for counts only
 */
#define BOUND_TILE 64

#define BOUND_INDEX(NAME, T)                                                  \
SIMD_CLONES static void NAME(const uint8_t *restrict codes, int64_t lanes,    \
                             int64_t width, int64_t k,                        \
                             int64_t *restrict counts, T *restrict ids)       \
{                                                                             \
    const int64_t n_win = width >= k ? width - k + 1 : 0;                     \
    const T mask = (T)((1ull << (2 * k)) - 1);                                \
    for (int64_t lane = 0; lane < lanes; lane++) {                            \
        const uint8_t *row = codes + lane * width;                            \
        int64_t *n = counts + 4 * lane;                                       \
        n[0] = n[1] = n[2] = n[3] = 0;                                        \
        for (int64_t j0 = 0; j0 < width; j0 += 255) {                         \
            const int64_t j1 = width - j0 < 255 ? width : j0 + 255;           \
            uint8_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;                           \
            for (int64_t j = j0; j < j1; j++) {                               \
                a0 += row[j] == 0;                                            \
                a1 += row[j] == 1;                                            \
                a2 += row[j] == 2;                                            \
                a3 += row[j] == 3;                                            \
            }                                                                 \
            n[0] += a0;                                                       \
            n[1] += a1;                                                       \
            n[2] += a2;                                                       \
            n[3] += a3;                                                       \
        }                                                                     \
        if (!ids)                                                             \
            continue;                                                         \
        T *out = ids + lane * n_win;                                          \
        int64_t w = 0;                                                        \
        for (; w + BOUND_TILE <= n_win; w += BOUND_TILE) {                    \
            T id[BOUND_TILE] = {0};                                           \
            uint8_t flag[BOUND_TILE] = {0};                                   \
            for (int64_t i = 0; i < k; i++) {                                 \
                const uint8_t *col = row + w + i;                             \
                for (int t = 0; t < BOUND_TILE; t++) {                        \
                    id[t] = (T)(id[t] * 4 + (col[t] & 3));                    \
                    flag[t] |= col[t];                                        \
                }                                                             \
            }                                                                 \
            for (int t = 0; t < BOUND_TILE; t++)                              \
                out[w + t] = flag[t] > 3 ? (T)(mask + 1) : (T)(id[t] & mask); \
        }                                                                     \
        for (; w < n_win; w++) {                                              \
            T id = 0;                                                         \
            uint8_t flag = 0;                                                 \
            for (int64_t i = 0; i < k; i++) {                                 \
                id = (T)(id * 4 + (row[w + i] & 3));                          \
                flag |= row[w + i];                                           \
            }                                                                 \
            out[w] = flag > 3 ? (T)(mask + 1) : (T)(id & mask);               \
        }                                                                     \
    }                                                                         \
}

BOUND_INDEX(bound_index16, uint16_t)
BOUND_INDEX(bound_index32, uint32_t)

/* itemsize 2 or 4 for uint16 or uint32 ids; k is 0 for counts only. */
void bound_index(const uint8_t *codes, int64_t lanes, int64_t width, int64_t k,
                 int64_t *counts, void *ids, int itemsize)
{
    if (itemsize == 2)
        bound_index16(codes, lanes, width, k, counts, ids);
    else
        bound_index32(codes, lanes, width, k, counts, ids);
}

/* The k-mer tier's hit count of a whole database, as bounds.kmer_hits
 * gathers it bucket by bucket: per lane, how many of its window ids are
 * present in the query's table (one byte per id, the sentinel 4**k
 * absent).  A lane of length L has L - k + 1 windows clear of padding; the
 * index's later windows touch PAD, hold the sentinel and never count, so
 * the loop stops there.  In a bucket whose lanes differ in length that
 * skips up to half its slots.
 *
 * ids      per bucket, its (lanes[b], n_win[b]) window ids
 * lengths  every lane's length, bucket after bucket
 * hits     every lane's count, in the order of lengths
 */
#define KMER_HITS(NAME, T)                                                    \
static void NAME(const void *const *ids, const int64_t *shape,                \
                 int64_t n_buckets, const int64_t *restrict lengths,          \
                 int64_t k, const uint8_t *restrict table,                    \
                 int64_t *restrict hits)                                      \
{                                                                             \
    for (int64_t b = 0; b < n_buckets; b++) {                                 \
        const int64_t lanes = shape[2 * b], n_win = shape[2 * b + 1];         \
        const T *restrict row = (const T *)ids[b];                            \
        for (int64_t lane = 0; lane < lanes; lane++, row += n_win) {          \
            const int64_t n = MIN(lengths[lane] - k + 1, n_win);              \
            int64_t h0 = 0, h1 = 0, h2 = 0, h3 = 0;                           \
            int64_t w = 0;                                                    \
            for (; w + 3 < n; w += 4) {                                       \
                h0 += table[row[w]];                                          \
                h1 += table[row[w + 1]];                                      \
                h2 += table[row[w + 2]];                                      \
                h3 += table[row[w + 3]];                                      \
            }                                                                 \
            for (; w < n; w++)                                                \
                h0 += table[row[w]];                                          \
            hits[lane] = h0 + h1 + h2 + h3;                                   \
        }                                                                     \
        lengths += lanes;                                                     \
        hits += lanes;                                                        \
    }                                                                         \
}

KMER_HITS(kmer_hits16, uint16_t)
KMER_HITS(kmer_hits32, uint32_t)

/* itemsize 2 or 4 for uint16 or uint32 ids; shape holds (lanes, n_win)
 * per bucket. */
void kmer_hits(const void *const *ids, const int64_t *shape, int64_t n_buckets,
               const int64_t *lengths, int64_t k, const uint8_t *table,
               int64_t *hits, int itemsize)
{
    if (itemsize == 2)
        kmer_hits16(ids, shape, n_buckets, lengths, k, table, hits);
    else
        kmer_hits32(ids, shape, n_buckets, lengths, k, table, hits);
}
