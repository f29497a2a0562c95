/* Native kernels of the repro codec and imagery synthesis.
 *
 * Built on first use by repro.codec._ckernels (which hashes this file's
 * bytes and the compiler flags into the cached library's name) and called
 * through ctypes.  Every kernel reproduces a specification kept in the
 * test oracles: the per-bit plane coder and range coder of
 * tests/codec_oracle.py, and the per-sample DWT loops, scalar plane walk,
 * per-octave value noise, per-pass band render, numpy base map and
 * per-cell change blocks of tests/sim_oracle.py.
 * Float kernels must round exactly like those numpy expressions, so the
 * library is built with -ffp-contract=off and without fast-math. */

#include <stdint.h>
#include <math.h>
#include <string.h>

#define MASK32 0xFFFFFFFFULL
#define RC_TOP (1ULL << 24)
#define RC_BOTTOM (1ULL << 16)
#define RC_MAX_TOTAL (1LL << 12)

/* ------------------------------------------------------------------ */
/* Subbotin range coder                                               */
/* ------------------------------------------------------------------ */

/* Adaptive-decode one bit under context `ctx`.  Returns 0, or 1 when the
 * decoder ran more than 64 bytes past the end of data (BitstreamError in
 * the caller).  Context counts commit before renormalization, exactly as
 * in the oracle's ArithmeticDecoder. */
static inline int rc_decode_bit(const uint8_t *data, int64_t n_data,
                                int64_t limit, int64_t *pos, uint64_t *low,
                                uint64_t *rng, uint64_t *code,
                                int64_t *count0, int64_t *count1,
                                int64_t ctx, int *bit_out) {
    int64_t n0 = count0[ctx];
    int64_t n1 = count1[ctx];
    uint64_t p0 = (uint64_t)((n0 << 16) / (n0 + n1));
    uint64_t split = (*rng >> 16) * p0;
    int bit;
    if (((*code - *low) & MASK32) < split) {
        bit = 0;
        *rng = split;
        n0 += 1;
    } else {
        bit = 1;
        *low = (*low + split) & MASK32;
        *rng -= split;
        n1 += 1;
    }
    if (n0 + n1 >= RC_MAX_TOTAL) {
        n0 = (n0 + 1) >> 1;
        n1 = (n1 + 1) >> 1;
    }
    count0[ctx] = n0;
    count1[ctx] = n1;
    for (;;) {
        if ((*low ^ (*low + *rng)) < RC_TOP) {
        } else if (*rng < RC_BOTTOM) {
            *rng = (0 - *low) & (RC_BOTTOM - 1);
        } else {
            break;
        }
        uint64_t byte = (*pos < n_data) ? data[*pos] : 0;
        *pos += 1;
        if (*pos > limit) return 1;
        *code = ((*code << 8) | byte) & MASK32;
        *low = (*low << 8) & MASK32;
        *rng = (*rng << 8) & MASK32;
    }
    *bit_out = bit;
    return 0;
}

/* Significance context of an insignificant coefficient with `n` of its
 * 8 neighbours significant at the start of the plane: 0 / 1-2 / 3+. */
static inline int64_t sig_context(uint8_t n) {
    return n >= 3 ? 2 : (n >= 1 ? 1 : 0);
}

/* Record that (y, x) turned significant: bump the neighbour count of each
 * of its (up to 8) in-band neighbours.  Called once per coefficient,
 * after the significance pass of the plane it turned significant in, so
 * the counts describe the start-of-plane state every context reads. */
static inline void count_significant(uint8_t *nbr, int64_t h, int64_t w,
                                     int64_t y, int64_t x) {
    int64_t y0 = y > 0 ? y - 1 : y, y1 = y + 1 < h ? y + 1 : y;
    int64_t x0 = x > 0 ? x - 1 : x, x1 = x + 1 < w ? x + 1 : x;
    for (int64_t yy = y0; yy <= y1; yy++)
        for (int64_t xx = x0; xx <= x1; xx++)
            nbr[yy * w + xx] += 1;
    nbr[y * w + x] -= 1; /* not its own neighbour */
}

/* One whole plane, fused: walk every band's significance and refinement
 * passes (the decision order of the oracle's SubbandPlaneCoder) and
 * feed each decision straight through the adaptive model + range coder.
 * Bands are coded in order against one shared context table; each band's
 * significance state and neighbour counts update after its significance
 * pass, before the next band's.  Fresh coder state + 4-byte flush.
 * Returns bytes written, or -1 when `cap` is too small. */
static int64_t encode_plane(const int64_t *mags, const uint8_t *signs,
                            uint8_t *sigs, uint8_t *nbrs,
                            const int64_t *heights, const int64_t *widths,
                            const int64_t *bases, int64_t n_bands,
                            int64_t plane, int64_t *count0, int64_t *count1,
                            uint8_t *out, int64_t cap) {
    uint64_t low = 0, rng = MASK32;
    int64_t len = 0;
    int64_t off = 0;

/* Adaptive-encode one bit: model probability, count update + halving,
 * then the Subbotin renormalization. */
#define RC_PUT_BIT(bit_v, ctx_v)                                          \
    do {                                                                  \
        int64_t ctx_ = (ctx_v);                                           \
        int64_t n0_ = count0[ctx_], n1_ = count1[ctx_];                   \
        uint64_t p0_ = (uint64_t)((n0_ << 16) / (n0_ + n1_));             \
        uint64_t split_ = (rng >> 16) * p0_;                              \
        if (bit_v) {                                                      \
            low = (low + split_) & MASK32;                                \
            rng -= split_;                                                \
            n1_ += 1;                                                     \
        } else {                                                          \
            rng = split_;                                                 \
            n0_ += 1;                                                     \
        }                                                                 \
        if (n0_ + n1_ >= RC_MAX_TOTAL) {                                  \
            n0_ = (n0_ + 1) >> 1;                                         \
            n1_ = (n1_ + 1) >> 1;                                         \
        }                                                                 \
        count0[ctx_] = n0_;                                               \
        count1[ctx_] = n1_;                                               \
        for (;;) {                                                        \
            if ((low ^ (low + rng)) < RC_TOP) {                           \
            } else if (rng < RC_BOTTOM) {                                 \
                rng = (0 - low) & (RC_BOTTOM - 1);                        \
            } else {                                                      \
                break;                                                    \
            }                                                             \
            if (len >= cap) return -1;                                    \
            out[len++] = (uint8_t)((low >> 24) & 0xFF);                   \
            low = (low << 8) & MASK32;                                    \
            rng = (rng << 8) & MASK32;                                    \
        }                                                                 \
    } while (0)

    for (int64_t b = 0; b < n_bands; b++) {
        int64_t h = heights[b], w = widths[b];
        const int64_t *mag = mags + off;
        const uint8_t *sgn = signs + off;
        uint8_t *sig = sigs + off;
        uint8_t *nbr = nbrs + off;
        off += h * w;
        int64_t base = bases[b];
        int64_t sign_ctx = base + 3; /* _SIGN_OFFSET */
        int64_t ref_ctx = base + 4;  /* _REF_OFFSET */
        /* Significance pass: row-major over previously-insignificant
         * positions, context from the start-of-plane neighbour counts,
         * each 1 bit followed by its sign bit. */
        for (int64_t i = 0; i < h * w; i++) {
            if (sig[i]) continue;
            int bit = (int)((mag[i] >> plane) & 1);
            RC_PUT_BIT(bit, base + sig_context(nbr[i]));
            if (bit)
                RC_PUT_BIT(sgn[i], sign_ctx);
        }
        /* Refinement pass over the start-of-plane significant set, one
         * shared context.  This plane's arrivals update the state along
         * the way: each sets only its own flag, which the pass has just
         * read, and bumps counts that the next plane reads first. */
        for (int64_t y = 0; y < h; y++) {
            for (int64_t x = 0; x < w; x++) {
                int64_t i = y * w + x;
                int bit = (int)((mag[i] >> plane) & 1);
                if (sig[i]) {
                    RC_PUT_BIT(bit, ref_ctx);
                } else if (bit) {
                    sig[i] = 1;
                    count_significant(nbr, h, w, y, x);
                }
            }
        }
    }
#undef RC_PUT_BIT
    for (int k = 0; k < 4; k++) {
        if (len >= cap) return -1;
        out[len++] = (uint8_t)((low >> 24) & 0xFF);
        low = (low << 8) & MASK32;
    }
    return len;
}

/* A whole tile in one call: every plane from `max_plane` down to 0, each
 * flushed into its own codeword, back to back in `out`; `seg_lens`
 * receives each plane's byte length, most significant first.  The tile's
 * bands lie back to back, in coding order, in each of `mags` (int64
 * magnitudes), `signs`, `sigs` (significance map) and `nbrs`
 * (significant-neighbour counts); the last two start zeroed.  Returns
 * the total bytes written, or -1 when `cap` is too small. */
int64_t rc_encode_tile(const int64_t *mags, const uint8_t *signs,
                       uint8_t *sigs, uint8_t *nbrs, const int64_t *heights,
                       const int64_t *widths, const int64_t *bases,
                       int64_t n_bands, int64_t max_plane, int64_t *count0,
                       int64_t *count1, uint8_t *out, int64_t cap,
                       int64_t *seg_lens) {
    int64_t total = 0;
    for (int64_t plane = max_plane; plane >= 0; plane--) {
        int64_t len = encode_plane(mags, signs, sigs, nbrs, heights, widths,
                                   bases, n_bands, plane, count0, count1,
                                   out + total, cap - total);
        if (len < 0) return -1;
        seg_lens[max_plane - plane] = len;
        total += len;
    }
    return total;
}

/* Decode one whole plane segment, the mirror of encode_plane: prime a
 * fresh decoder (four bytes, zero-filled past the end, like the
 * oracle's ArithmeticDecoder), then per band in order against the shared context
 * table run the significance pass with its sign bits, the refinement
 * pass, and the significance update.  Contexts and the refinement set
 * come from the start-of-plane state, so a coefficient that turns
 * significant mid-pass is marked 2 in `sig` and becomes 1, with its
 * neighbour counts bumped, only in the update.  Returns 0, or 1 when the
 * decoder ran more than 64 bytes past the end of data (BitstreamError in
 * the caller). */
static int decode_plane(const uint8_t *data, int64_t n_data, int64_t *mags,
                        uint8_t *signs, uint8_t *sigs, uint8_t *nbrs,
                        const int64_t *heights, const int64_t *widths,
                        const int64_t *bases, int64_t n_bands, int64_t plane,
                        int64_t *count0, int64_t *count1) {
    int64_t limit = n_data + 64;
    int64_t pos = 0;
    int64_t off = 0;
    uint64_t low = 0, rng = MASK32, code = 0;
    for (int k = 0; k < 4; k++, pos++)
        code = ((code << 8) | (pos < n_data ? data[pos] : 0)) & MASK32;
    int64_t plane_value = (int64_t)1 << plane;
#define RC_GET_BIT(bit_out, ctx_v)                                        \
    do {                                                                  \
        if (rc_decode_bit(data, n_data, limit, &pos, &low, &rng, &code,   \
                          count0, count1, (ctx_v), &(bit_out)))           \
            return 1;                                                     \
    } while (0)

    for (int64_t b = 0; b < n_bands; b++) {
        int64_t h = heights[b], w = widths[b];
        int64_t *mag = mags + off;
        uint8_t *sgn = signs + off;
        uint8_t *sig = sigs + off;
        uint8_t *nbr = nbrs + off;
        off += h * w;
        int64_t base = bases[b];
        int64_t sign_ctx = base + 3; /* _SIGN_OFFSET */
        int64_t ref_ctx = base + 4;  /* _REF_OFFSET */
        for (int64_t i = 0; i < h * w; i++) {
            if (sig[i]) continue;
            int bit, sbit;
            RC_GET_BIT(bit, base + sig_context(nbr[i]));
            if (bit) {
                RC_GET_BIT(sbit, sign_ctx);
                mag[i] += plane_value;
                sgn[i] = (uint8_t)sbit;
                sig[i] = 2;
            }
        }
        /* Refinement over the start-of-plane significant set; the update
         * of mid-plane arrivals rides along (each sets only its own flag,
         * which this loop has already passed, and bumps counts that the
         * next plane reads first). */
        for (int64_t y = 0; y < h; y++) {
            for (int64_t x = 0; x < w; x++) {
                int64_t i = y * w + x;
                if (sig[i] == 1) {
                    int bit;
                    RC_GET_BIT(bit, ref_ctx);
                    if (bit) mag[i] += plane_value;
                } else if (sig[i] == 2) {
                    sig[i] = 1;
                    count_significant(nbr, h, w, y, x);
                }
            }
        }
    }
#undef RC_GET_BIT
    return 0;
}

/* Decode a tile's kept segments in one call, the mirror of
 * rc_encode_tile over the same band layout (every buffer zeroed):
 * segment s (plane max_plane - s) is the next seg_lens[s] bytes of
 * `data`, decoded by its own fresh decoder with its own 64-byte overrun
 * limit.  Returns 0, or 1 when some segment's decoder ran more than 64
 * bytes past the end of that segment (BitstreamError in the caller;
 * later segments are not decoded). */
int rc_decode_tile(const uint8_t *data, const int64_t *seg_lens,
                   int64_t n_segments, int64_t *mags, uint8_t *signs,
                   uint8_t *sigs, uint8_t *nbrs, const int64_t *heights,
                   const int64_t *widths, const int64_t *bases,
                   int64_t n_bands, int64_t max_plane, int64_t *count0,
                   int64_t *count1) {
    int64_t off = 0;
    for (int64_t s = 0; s < n_segments; s++) {
        if (decode_plane(data + off, seg_lens[s], mags, signs, sigs, nbrs,
                         heights, widths, bases, n_bands, max_plane - s,
                         count0, count1))
            return 1;
        off += seg_lens[s];
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* DWT lifting (whole-point symmetric extension along axis 0,          */
/* m contiguous columns)                                               */
/* ------------------------------------------------------------------ */

/* CDF 9/7 lifting constants (ITU-T T.800 Annex F). */
static const double ALPHA = -1.586134342059924;
static const double BETA = -0.052980118572961;
static const double GAMMA = 0.882911075530934;
static const double DELTA = 0.443506852043971;
static const double KAPPA = 1.230174104914001;

/* Mirrored source index of sample 2i+2 (always even), divided by 2. */
static int64_t predict_right(int64_t i, int64_t length) {
    int64_t period = 2 * (length - 1);
    int64_t idx = (2 * i + 2) % period;
    if (idx >= length) idx = period - idx;
    return idx / 2;
}

static void dwt97_analysis(const double *x, int64_t length, int64_t m,
                           double *even, double *odd) {
    int64_t n_even = (length + 1) / 2;
    int64_t n_odd = length / 2;
    for (int64_t i = 0; i < n_even; i++)
        memcpy(even + i * m, x + 2 * i * m, (size_t)m * sizeof(double));
    for (int64_t i = 0; i < n_odd; i++)
        memcpy(odd + i * m, x + (2 * i + 1) * m, (size_t)m * sizeof(double));
    for (int64_t i = 0; i < n_odd; i++) {
        const double *r1 = even + predict_right(i, length) * m;
        const double *e = even + i * m;
        double *o = odd + i * m;
        for (int64_t j = 0; j < m; j++) o[j] += ALPHA * (e[j] + r1[j]);
    }
    for (int64_t i = 0; i < n_even; i++) {
        int64_t dl = i - 1 < 0 ? 0 : (i - 1 >= n_odd ? n_odd - 1 : i - 1);
        int64_t dr = i >= n_odd ? n_odd - 1 : i;
        const double *ol = odd + dl * m;
        const double *orr = odd + dr * m;
        double *e = even + i * m;
        for (int64_t j = 0; j < m; j++) e[j] += BETA * (ol[j] + orr[j]);
    }
    for (int64_t i = 0; i < n_odd; i++) {
        int64_t sr = i + 1 >= n_even ? n_even - 1 : i + 1;
        const double *e = even + i * m;
        const double *er = even + sr * m;
        double *o = odd + i * m;
        for (int64_t j = 0; j < m; j++) o[j] += GAMMA * (e[j] + er[j]);
    }
    for (int64_t i = 0; i < n_even; i++) {
        int64_t dl = i - 1 < 0 ? 0 : (i - 1 >= n_odd ? n_odd - 1 : i - 1);
        int64_t dr = i >= n_odd ? n_odd - 1 : i;
        const double *ol = odd + dl * m;
        const double *orr = odd + dr * m;
        double *e = even + i * m;
        for (int64_t j = 0; j < m; j++) e[j] += DELTA * (ol[j] + orr[j]);
    }
    for (int64_t i = 0; i < n_even * m; i++) even[i] *= KAPPA;
    for (int64_t i = 0; i < n_odd * m; i++) odd[i] /= KAPPA;
}

static void dwt97_synthesis(const double *approx, const double *detail,
                            int64_t length, int64_t m, double *out) {
    int64_t n_even = (length + 1) / 2;
    int64_t n_odd = length / 2;
    /* even[i] lives at out[2i], odd[i] at out[2i+1] (strided rows). */
#define EV(i) (out + 2 * (i) * m)
#define OD(i) (out + (2 * (i) + 1) * m)
    for (int64_t i = 0; i < n_even; i++) {
        const double *a = approx + i * m;
        double *e = EV(i);
        for (int64_t j = 0; j < m; j++) e[j] = a[j] / KAPPA;
    }
    for (int64_t i = 0; i < n_odd; i++) {
        const double *d = detail + i * m;
        double *o = OD(i);
        for (int64_t j = 0; j < m; j++) o[j] = d[j] * KAPPA;
    }
    for (int64_t i = 0; i < n_even; i++) {
        int64_t dl = i - 1 < 0 ? 0 : (i - 1 >= n_odd ? n_odd - 1 : i - 1);
        int64_t dr = i >= n_odd ? n_odd - 1 : i;
        const double *ol = OD(dl);
        const double *orr = OD(dr);
        double *e = EV(i);
        for (int64_t j = 0; j < m; j++) e[j] -= DELTA * (ol[j] + orr[j]);
    }
    for (int64_t i = 0; i < n_odd; i++) {
        int64_t sr = i + 1 >= n_even ? n_even - 1 : i + 1;
        const double *e = EV(i);
        const double *er = EV(sr);
        double *o = OD(i);
        for (int64_t j = 0; j < m; j++) o[j] -= GAMMA * (e[j] + er[j]);
    }
    for (int64_t i = 0; i < n_even; i++) {
        int64_t dl = i - 1 < 0 ? 0 : (i - 1 >= n_odd ? n_odd - 1 : i - 1);
        int64_t dr = i >= n_odd ? n_odd - 1 : i;
        const double *ol = OD(dl);
        const double *orr = OD(dr);
        double *e = EV(i);
        for (int64_t j = 0; j < m; j++) e[j] -= BETA * (ol[j] + orr[j]);
    }
    for (int64_t i = 0; i < n_odd; i++) {
        const double *e = EV(i);
        const double *er = EV(predict_right(i, length));
        double *o = OD(i);
        for (int64_t j = 0; j < m; j++) o[j] -= ALPHA * (e[j] + er[j]);
    }
#undef EV
#undef OD
}

static void dwt53_analysis(const int64_t *x, int64_t length, int64_t m,
                           int64_t *even, int64_t *odd) {
    int64_t n_even = (length + 1) / 2;
    int64_t n_odd = length / 2;
    for (int64_t i = 0; i < n_even; i++)
        memcpy(even + i * m, x + 2 * i * m, (size_t)m * sizeof(int64_t));
    for (int64_t i = 0; i < n_odd; i++)
        memcpy(odd + i * m, x + (2 * i + 1) * m, (size_t)m * sizeof(int64_t));
    for (int64_t i = 0; i < n_odd; i++) {
        const int64_t *r = even + predict_right(i, length) * m;
        const int64_t *e = even + i * m;
        int64_t *o = odd + i * m;
        for (int64_t j = 0; j < m; j++) o[j] -= (e[j] + r[j]) >> 1;
    }
    for (int64_t i = 0; i < n_even; i++) {
        int64_t dl = i - 1 < 0 ? 0 : (i - 1 >= n_odd ? n_odd - 1 : i - 1);
        int64_t dr = i >= n_odd ? n_odd - 1 : i;
        const int64_t *ol = odd + dl * m;
        const int64_t *orr = odd + dr * m;
        int64_t *e = even + i * m;
        for (int64_t j = 0; j < m; j++) e[j] += (ol[j] + orr[j] + 2) >> 2;
    }
}

static void dwt53_synthesis(const int64_t *approx, const int64_t *detail,
                            int64_t length, int64_t m, int64_t *out) {
    int64_t n_even = (length + 1) / 2;
    int64_t n_odd = length / 2;
#define EV(i) (out + 2 * (i) * m)
#define OD(i) (out + (2 * (i) + 1) * m)
    for (int64_t i = 0; i < n_even; i++) {
        int64_t dl = i - 1 < 0 ? 0 : (i - 1 >= n_odd ? n_odd - 1 : i - 1);
        int64_t dr = i >= n_odd ? n_odd - 1 : i;
        const int64_t *ol = detail + dl * m;
        const int64_t *orr = detail + dr * m;
        const int64_t *a = approx + i * m;
        int64_t *e = EV(i);
        for (int64_t j = 0; j < m; j++)
            e[j] = a[j] - ((ol[j] + orr[j] + 2) >> 2);
    }
    for (int64_t i = 0; i < n_odd; i++) {
        const int64_t *e = EV(i);
        const int64_t *er = EV(predict_right(i, length));
        const int64_t *d = detail + i * m;
        int64_t *o = OD(i);
        for (int64_t j = 0; j < m; j++) o[j] = d[j] + ((e[j] + er[j]) >> 1);
    }
#undef EV
#undef OD
}

/* ------------------------------------------------------------------ */
/* Fused multilevel 2-D DWT of an (n, h, w) stack                      */
/* ------------------------------------------------------------------ */

/* Each level runs the passes above along H on every image (its w
 * columns are the pass's m columns), then along W on the low rows and
 * on the high rows, transposed so that W is the pass axis and every row
 * of the stack is a column.  The passes treat each column on its own,
 * so a layout change moves values between columns but never changes
 * their arithmetic.  A length-1 axis is not lifted: 9/7 scales it
 * (x * KAPPA forward, x / KAPPA inverse) and 5/3 copies it, exactly as
 * the oracle's per-sample lifting loops do.
 *
 * Subband buffer layout (n*h*w values; dwt._subband_layout mirrors it):
 * finest level first, each level's HL (n, he, wo), LH (n, ho, we) and
 * HH (n, ho, wo) stacks, then the coarsest LL stack, where he/ho and
 * we/wo are the ceil/floor halves of that level's rows and columns.
 * `work` is scratch space for 4*n*h*w values.  Both element types are
 * 8 bytes wide, so the layout code below counts in bytes and shares one
 * driver per direction. */

typedef void (*analysis_fn)(const void *x, int64_t length, int64_t m,
                            void *even, void *odd);
typedef void (*synthesis_fn)(const void *approx, const void *detail,
                             int64_t length, int64_t m, void *out);

static void analysis97(const void *x, int64_t length, int64_t m, void *even,
                       void *odd) {
    if (length == 1) {
        const double *s = x;
        double *e = even;
        for (int64_t j = 0; j < m; j++) e[j] = s[j] * KAPPA;
    } else {
        dwt97_analysis(x, length, m, even, odd);
    }
}

static void synthesis97(const void *approx, const void *detail,
                        int64_t length, int64_t m, void *out) {
    if (length == 1) {
        const double *a = approx;
        double *o = out;
        for (int64_t j = 0; j < m; j++) o[j] = a[j] / KAPPA;
    } else {
        dwt97_synthesis(approx, detail, length, m, out);
    }
}

static void analysis53(const void *x, int64_t length, int64_t m, void *even,
                       void *odd) {
    if (length == 1)
        memcpy(even, x, (size_t)m * sizeof(int64_t));
    else
        dwt53_analysis(x, length, m, even, odd);
}

static void synthesis53(const void *approx, const void *detail,
                        int64_t length, int64_t m, void *out) {
    if (length == 1)
        memcpy(out, approx, (size_t)m * sizeof(int64_t));
    else
        dwt53_synthesis(approx, detail, length, m, out);
}

/* (rows, cols) -> (cols, rows) of 8-byte values; memcpy keeps float bit
 * patterns exact and is alias-safe for both element types. */
static void transpose8(const char *src, int64_t rows, int64_t cols,
                       char *dst) {
    for (int64_t r = 0; r < rows; r++)
        for (int64_t c = 0; c < cols; c++)
            memcpy(dst + (c * rows + r) * 8, src + (r * cols + c) * 8, 8);
}

/* Rows per transposed chunk of the W pass: a chunk of any tile row
 * length stays cache-resident, and its transposed stride is never a
 * large power of two. */
#define ROW_CHUNK 32

/* Analysis along the last axis of a (rows, len) block into low
 * (rows, ceil(len/2)) and high (rows, floor(len/2)), ROW_CHUNK rows at a
 * time; `tr` and `eo` are scratch for ROW_CHUNK*len values each. */
static void analyze_rows(analysis_fn analysis, const char *src, int64_t rows,
                         int64_t len, char *tr, char *eo, char *low,
                         char *high) {
    int64_t n_even = (len + 1) / 2, n_odd = len / 2;
    for (int64_t r = 0; r < rows; r += ROW_CHUNK) {
        int64_t m = rows - r < ROW_CHUNK ? rows - r : ROW_CHUNK;
        transpose8(src + r * len * 8, m, len, tr);
        analysis(tr, len, m, eo, eo + n_even * m * 8);
        transpose8(eo, n_even, m, low + r * n_even * 8);
        transpose8(eo + n_even * m * 8, n_odd, m, high + r * n_odd * 8);
    }
}

/* Inverse of analyze_rows: low and high back to dst (rows, len). */
static void synthesize_rows(synthesis_fn synthesis, const char *low,
                            const char *high, int64_t rows, int64_t len,
                            char *tr, char *res, char *dst) {
    int64_t n_even = (len + 1) / 2, n_odd = len / 2;
    for (int64_t r = 0; r < rows; r += ROW_CHUNK) {
        int64_t m = rows - r < ROW_CHUNK ? rows - r : ROW_CHUNK;
        transpose8(low + r * n_even * 8, m, n_even, tr);
        transpose8(high + r * n_odd * 8, m, n_odd, tr + n_even * m * 8);
        synthesis(tr, tr + n_even * m * 8, len, m, res);
        transpose8(res, len, m, dst + r * len * 8);
    }
}

/* Rows and columns of level `l` (0 = finest) and the byte offset of its
 * HL stack in the subband buffer (of the LL stack for l == levels). */
static int64_t level_geometry(int64_t n, int64_t h, int64_t w, int64_t l,
                              int64_t *rows, int64_t *cols) {
    int64_t off = 0;
    for (int64_t k = 0; k < l; k++) {
        int64_t he = (h + 1) / 2, ho = h / 2, we = (w + 1) / 2, wo = w / 2;
        off += n * (he * wo + ho * we + ho * wo) * 8;
        h = he;
        w = we;
    }
    *rows = h;
    *cols = w;
    return off;
}

static void dwt2d_forward(analysis_fn analysis, const char *x, int64_t n,
                          int64_t h, int64_t w, int64_t levels, char *out,
                          char *work) {
    int64_t total = n * h * w * 8;
    char *lo = work, *tr = work + total, *eo = work + 2 * total;
    char *next = work + 3 * total;
    const char *cur = x;
    for (int64_t l = 0; l < levels; l++) {
        int64_t he = (h + 1) / 2, ho = h / 2, we = (w + 1) / 2, wo = w / 2;
        char *hi = lo + n * he * w * 8;
        for (int64_t i = 0; i < n; i++)
            analysis(cur + i * h * w * 8, h, w, lo + i * he * w * 8,
                     hi + i * ho * w * 8);
        char *hl = out;
        char *lh = hl + n * he * wo * 8;
        char *hh = lh + n * ho * we * 8;
        out = hh + n * ho * wo * 8;
        char *ll = l + 1 == levels ? out : next;
        analyze_rows(analysis, lo, n * he, w, tr, eo, ll, hl);
        analyze_rows(analysis, hi, n * ho, w, tr, eo, lh, hh);
        cur = ll;
        h = he;
        w = we;
    }
}

static void dwt2d_inverse(synthesis_fn synthesis, const char *coeffs,
                          int64_t n, int64_t h, int64_t w, int64_t levels,
                          char *out, char *work) {
    int64_t total = n * h * w * 8;
    char *lo = work, *tr = work + total, *res = work + 2 * total;
    char *next = work + 3 * total;
    int64_t rows, cols;
    const char *cur = coeffs + level_geometry(n, h, w, levels, &rows, &cols);
    if (levels == 0) memcpy(out, cur, (size_t)total);
    for (int64_t l = levels - 1; l >= 0; l--) {
        const char *hl = coeffs + level_geometry(n, h, w, l, &rows, &cols);
        int64_t he = (rows + 1) / 2, ho = rows / 2;
        int64_t we = (cols + 1) / 2, wo = cols / 2;
        const char *lh = hl + n * he * wo * 8;
        const char *hh = lh + n * ho * we * 8;
        char *hi = lo + n * he * cols * 8;
        synthesize_rows(synthesis, cur, hl, n * he, cols, tr, res, lo);
        synthesize_rows(synthesis, lh, hh, n * ho, cols, tr, res, hi);
        char *dst = l == 0 ? out : next;
        for (int64_t i = 0; i < n; i++)
            synthesis(lo + i * he * cols * 8, hi + i * ho * cols * 8, rows,
                      cols, dst + i * rows * cols * 8);
        cur = dst;
    }
}

void dwt97_forward2d(const double *x, int64_t n, int64_t h, int64_t w,
                     int64_t levels, double *out, double *work) {
    dwt2d_forward(analysis97, (const char *)x, n, h, w, levels, (char *)out,
                  (char *)work);
}

void dwt97_inverse2d(const double *coeffs, int64_t n, int64_t h, int64_t w,
                     int64_t levels, double *out, double *work) {
    dwt2d_inverse(synthesis97, (const char *)coeffs, n, h, w, levels,
                  (char *)out, (char *)work);
}

void dwt53_forward2d(const int64_t *x, int64_t n, int64_t h, int64_t w,
                     int64_t levels, int64_t *out, int64_t *work) {
    dwt2d_forward(analysis53, (const char *)x, n, h, w, levels, (char *)out,
                  (char *)work);
}

void dwt53_inverse2d(const int64_t *coeffs, int64_t n, int64_t h, int64_t w,
                     int64_t levels, int64_t *out, int64_t *work) {
    dwt2d_inverse(synthesis53, (const char *)coeffs, n, h, w, levels,
                  (char *)out, (char *)work);
}

/* ------------------------------------------------------------------ */
/* Rate model kernels                                                  */
/* ------------------------------------------------------------------ */

/* Top-bit histogram of floor(|x| / step) per row.  counts is a zeroed
 * (n_rows, n_bins_cap) matrix; top bits at or above the cap are clamped
 * into the last bin but reported truthfully in `tops`, so the caller's
 * >= 31 wrap check can defer that regime to its int32 quantizer path. */
void rc_magnitude_histogram(const double *data, int64_t n_rows, int64_t size,
                            double step, int64_t *counts, int64_t n_bins_cap,
                            int64_t *tops) {
    for (int64_t r = 0; r < n_rows; r++) {
        const double *row = data + r * size;
        int64_t *crow = counts + r * n_bins_cap;
        int64_t top = -1;
        for (int64_t j = 0; j < size; j++) {
            double mag = floor(fabs(row[j]) / step);
            if (mag > 0.0) {
                int64_t t = (int64_t)ilogb(mag);
                if (t > top) top = t;
                crow[t < n_bins_cap ? t : n_bins_cap - 1] += 1;
            }
        }
        tops[r] = top;
    }
}

/* Descending plane walk over top-bit histograms.  The entropy matrix is
 * precomputed by the caller (numpy log2) so transcendental rounding
 * matches the oracle's scalar walk bit for bit; this kernel replays only
 * the integer statistics and the three accumulator additions per plane,
 * in the exact order of that walk. */
void rc_plane_walk_bits(const int64_t *counts, const int64_t *tops,
                        const int64_t *sizes, const double *entropy_mat,
                        int64_t n_rows, int64_t n_planes, double *bits_out) {
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t *crow = counts + r * n_planes;
        const double *erow = entropy_mat + r * n_planes;
        double bits = 0.0;
        int64_t n_sig = 0;
        for (int64_t p = n_planes - 1; p >= 0; p--) {
            int64_t n_insig = sizes[r] - n_sig;
            int active = p <= tops[r];
            int contributes = active && n_insig > 0;
            if (contributes) {
                bits += (double)n_insig * erow[p];
                bits += (double)crow[p];
            }
            if (active) bits += 0.95 * (double)n_sig;
            n_sig += crow[p];
        }
        bits_out[r] = bits;
    }
}

/* Fused dead-zone dequantize: sign(q) * (|q| + offset) * step, 0 stays 0.
 * The magnitude is the WRAPPING int32 absolute value — np.abs on int32
 * leaves INT32_MIN negative, and bit-exactness with numpy's dequantize wins
 * over mathematical niceness in that (quantizer-overflow) corner. */
void rc_dequantize(const int32_t *q, int64_t n, double step, double offset,
                   double *out) {
    for (int64_t i = 0; i < n; i++) {
        int32_t v = q[i];
        if (v == 0) {
            out[i] = 0.0;
        } else {
            int32_t wrapped =
                (int32_t)(v < 0 ? (uint32_t)0 - (uint32_t)v : (uint32_t)v);
            double s = v > 0 ? 1.0 : -1.0;
            out[i] = s * ((double)wrapped + offset) * step;
        }
    }
}

/* Multi-block variants: one library call per batch instead of one per
 * (tile group, subband), amortizing the ctypes call overhead that
 * dominates these tiny per-subband kernels.  Block data stays in place —
 * the caller passes raw array addresses (int64) rather than copying the
 * blocks into one buffer. */

void rc_magnitude_histogram_multi(const int64_t *ptrs, const int64_t *rows,
                                  const int64_t *sizes, const double *steps,
                                  int64_t n_blocks, int64_t *counts,
                                  int64_t n_bins_cap, int64_t *tops) {
    int64_t row0 = 0;
    for (int64_t b = 0; b < n_blocks; b++) {
        rc_magnitude_histogram((const double *)(uintptr_t)ptrs[b], rows[b],
                               sizes[b], steps[b],
                               counts + row0 * n_bins_cap, n_bins_cap,
                               tops + row0);
        row0 += rows[b];
    }
}

void rc_dequantize_multi(const int64_t *ptrs, const int64_t *ns,
                         const double *steps, double offset,
                         int64_t n_blocks, double *out) {
    int64_t off = 0;
    for (int64_t b = 0; b < n_blocks; b++) {
        rc_dequantize((const int32_t *)(uintptr_t)ptrs[b], ns[b], steps[b],
                      offset, out + off);
        off += ns[b];
    }
}

/* ------------------------------------------------------------------ */
/* Imagery: fractal value noise and the per-band capture render        */
/* ------------------------------------------------------------------ */

/* The per-pixel loops below run in blocks of LANES with a fixed-length
 * inner loop, which gcc vectorizes at -O2 (its cheap cost model skips a
 * loop of unknown length); each element's arithmetic is unchanged. */
#define LANES 8

/* Horizontal Hermite blend of one lattice row at every pixel column:
 *   out[x] = row[x0[x]] * (1 - tx[x]) + row[x0[x] + 1] * tx[x]
 * the top (or bottom) term of the oracle's value-noise blend, element
 * for element. */
static void blend_lattice_row(const double *row, const int64_t *x0,
                              const double *tx, int64_t width,
                              double *out) {
    for (int64_t x = 0; x < width; x++) {
        double wx = tx[x];
        out[x] = row[x0[x]] * (1.0 - wx) + row[x0[x] + 1] * wx;
    }
}

/* One octave's term added to one pixel row of the running total:
 *   total += amplitude * (top * (1 - wy) + bottom * wy) */
static inline double octave_sum(double total, double top, double bottom,
                                double wy, double amplitude) {
    return total + amplitude * (top * (1.0 - wy) + bottom * wy);
}

static void add_octave_row(double *restrict total,
                           const double *restrict top,
                           const double *restrict bottom, double wy,
                           double amplitude, int64_t width) {
    int64_t x = 0;
    for (; x + LANES <= width; x += LANES)
        for (int j = 0; j < LANES; j++)
            total[x + j] =
                octave_sum(total[x + j], top[x + j], bottom[x + j], wy,
                           amplitude);
    for (; x < width; x++)
        total[x] = octave_sum(total[x], top[x], bottom[x], wy, amplitude);
}

/* The minimum and maximum of v[0..n).  Exact in any order: the values
 * are finite and never -0.0 (sums of non-negative terms from +0.0). */
static void value_range(const double *v, int64_t n, double *lo,
                        double *hi) {
    double lows[LANES], highs[LANES];
    for (int j = 0; j < LANES; j++) {
        lows[j] = INFINITY;
        highs[j] = -INFINITY;
    }
    int64_t i = 0;
    for (; i + LANES <= n; i += LANES)
        for (int j = 0; j < LANES; j++) {
            lows[j] = v[i + j] < lows[j] ? v[i + j] : lows[j];
            highs[j] = v[i + j] > highs[j] ? v[i + j] : highs[j];
        }
    for (; i < n; i++) {
        lows[0] = v[i] < lows[0] ? v[i] : lows[0];
        highs[0] = v[i] > highs[0] ? v[i] : highs[0];
    }
    *lo = lows[0];
    *hi = highs[0];
    for (int j = 1; j < LANES; j++) {
        *lo = lows[j] < *lo ? lows[j] : *lo;
        *hi = highs[j] > *hi ? highs[j] : *hi;
    }
}

/* (total / amplitude_sum - lo) / span, element by element. */
static inline double normalized(double total, double amplitude_sum,
                                double lo, double span) {
    return (total / amplitude_sum - lo) / span;
}

/* The octave sum of a fractal-noise field, into `out`, operation for
 * operation the oracle's per-octave numpy sum (no fused multiply-add:
 * built with -ffp-contract=off):
 *   total += amplitude[k] * (top * (1 - ty) + bottom * ty)   per octave
 * Octave k's lattice starts at lattices + offsets[k] with cols[k] values
 * per row; its pixel geometry is y0/ty at k * height (each pixel row's
 * upper lattice row and Hermite weight) and x0/tx at k * width (each
 * column's left lattice column and weight).  Pixel rows sharing a
 * lattice row pair share its two horizontal blends, computed once into
 * `scratch` (2 * width doubles).  Returns the span hi - lo of
 * total / amplitude_sum and sets *lo: rounding is monotonic, so the
 * min/max of total / amplitude_sum are the min/max of total, divided. */
static double octave_total(const double *lattices, const int64_t *offsets,
                           const int64_t *cols, const int64_t *y0,
                           const double *ty, const int64_t *x0,
                           const double *tx, const double *amplitudes,
                           int64_t octaves, double amplitude_sum,
                           int64_t height, int64_t width, double *scratch,
                           double *out, double *lo) {
    int64_t n = height * width;
    for (int64_t i = 0; i < n; i++) out[i] = 0.0;
    for (int64_t k = 0; k < octaves; k++) {
        const double *lattice = lattices + offsets[k];
        int64_t stride = cols[k];
        const int64_t *rows = y0 + k * height;
        const double *wys = ty + k * height;
        const int64_t *lefts = x0 + k * width;
        const double *wxs = tx + k * width;
        double *top = scratch, *bottom = scratch + width;
        int64_t upper = -1;
        for (int64_t y = 0; y < height; y++) {
            int64_t r = rows[y];
            if (r != upper) {
                if (upper >= 0 && r == upper + 1) {
                    double *swap = top;
                    top = bottom;
                    bottom = swap;
                } else {
                    blend_lattice_row(lattice + r * stride, lefts, wxs,
                                      width, top);
                }
                blend_lattice_row(lattice + (r + 1) * stride, lefts, wxs,
                                  width, bottom);
                upper = r;
            }
            add_octave_row(out + y * width, top, bottom, wys[y],
                           amplitudes[k], width);
        }
    }
    double low, high;
    value_range(out, n, &low, &high);
    *lo = low / amplitude_sum;
    return high / amplitude_sum - *lo;
}

/* A whole fractal-noise field in one call, operation for operation the
 * oracle's per-octave numpy sum: the octave total (octave_total), then
 *   total /= amplitude_sum, then (total - lo) / (hi - lo)
 * with lo/hi the field's min/max, or zeros when hi - lo < 1e-12.  One
 * pass finds the range and one more divides and normalizes. */
void fractal_field(const double *lattices, const int64_t *offsets,
                   const int64_t *cols, const int64_t *y0, const double *ty,
                   const int64_t *x0, const double *tx,
                   const double *amplitudes, int64_t octaves,
                   double amplitude_sum, int64_t height, int64_t width,
                   double *scratch, double *out) {
    int64_t n = height * width;
    double lo;
    double span = octave_total(lattices, offsets, cols, y0, ty, x0, tx,
                               amplitudes, octaves, amplitude_sum, height,
                               width, scratch, out, &lo);
    if (span < 1e-12) {
        for (int64_t i = 0; i < n; i++) out[i] = 0.0;
        return;
    }
    int64_t i = 0;
    for (; i + LANES <= n; i += LANES)
        for (int j = 0; j < LANES; j++)
            out[i + j] = normalized(out[i + j], amplitude_sum, lo, span);
    for (; i < n; i++) out[i] = normalized(out[i], amplitude_sum, lo, span);
}

/* numpy's clip to [0, 1]: min(max(v, 0), 1), each bound winning ties. */
static inline double clip_unit(double v) {
    v = v > 0.0 ? v : 0.0;
    return v < 1.0 ? v : 1.0;
}

/* One pixel of a band: illumination, the cloud blend and the noise add,
 * clipped.  A zero alpha or noise leaves the pixel as it was: v is never
 * -0.0, so v * (1 - 0) + c * 0 and v + 0.0 are v. */
static inline double observed(double surface, double gain, double offset,
                              double alpha, double cloud_value,
                              double noise) {
    double v = clip_unit(surface * gain + offset);
    v = v * (1.0 - alpha) + cloud_value * alpha;
    return clip_unit(v + noise);
}

/* render_band's loop, inlined into one copy per combination of present
 * arrays so that every copy vectorizes without a branch per pixel. */
static inline __attribute__((always_inline)) void render_pixels_of(
    double *restrict pixels, int64_t n, double gain, double offset,
    const double *restrict alpha, double cloud_value,
    const double *restrict noise) {
    int64_t i = 0;
    for (; i + LANES <= n; i += LANES)
        for (int j = 0; j < LANES; j++)
            pixels[i + j] = observed(pixels[i + j], gain, offset,
                                     alpha ? alpha[i + j] : 0.0,
                                     cloud_value,
                                     noise ? noise[i + j] : 0.0);
    for (; i < n; i++)
        pixels[i] = observed(pixels[i], gain, offset,
                             alpha ? alpha[i] : 0.0, cloud_value,
                             noise ? noise[i] : 0.0);
}

/* One band of a capture in one pass, in place over the ground truth in
 * `pixels`, operation for operation the numpy expressions of the
 * oracle's render (render_pixels_reference):
 *   v = clip(surface * gain + offset)                illumination
 *   v = v * (1 - alpha) + cloud_value * alpha        cloud composite
 *   pixel = clip(v + noise)                          sensor noise
 * `alpha` (zero off the cloud mask) is NULL for a cloud-free capture and
 * `noise` NULL for a noise-free one; neither overlaps `pixels`. */
void render_band(double *restrict pixels, int64_t n, double gain,
                 double offset, const double *restrict alpha,
                 double cloud_value, const double *restrict noise) {
    if (alpha && noise)
        render_pixels_of(pixels, n, gain, offset, alpha, cloud_value, noise);
    else if (alpha)
        render_pixels_of(pixels, n, gain, offset, alpha, cloud_value, NULL);
    else if (noise)
        render_pixels_of(pixels, n, gain, offset, NULL, cloud_value, noise);
    else
        render_pixels_of(pixels, n, gain, offset, NULL, cloud_value, NULL);
}

/* ------------------------------------------------------------------ */
/* Imagery: the static base map and the change-cell blocks             */
/* ------------------------------------------------------------------ */

/* A location's base map for one band, in place over its texture field,
 * operation for operation the oracle's numpy expression
 * (base_map_reference):
 *   pixel = clip(reflectance[c] + amplitude[c] * (texture - 0.5) * 2.0)
 * with c the pixel's terrain class, an index into both tables. */
void base_map(double *restrict pixels, const int8_t *restrict classes,
              int64_t n, const double *reflectance,
              const double *amplitude) {
    for (int64_t i = 0; i < n; i++) {
        int64_t c = classes[i];
        pixels[i] = clip_unit(reflectance[c] +
                              amplitude[c] * (pixels[i] - 0.5) * 2.0);
    }
}

/* The int64 fields of one field plan and of one cell in change_blocks. */
enum { PLAN_FIELDS = 8, CELL_FIELDS = 5 };

/* One change-cell block pixel: the base map under it plus the patch
 * amplitude times the normalized patch value less one half, clipped. */
static inline double blended(double under, double amplitude, double patch) {
    return clip_unit(under + amplitude * (patch - 0.5));
}

/* One row of a change-cell block, in place over its octave total: each
 * value normalized as fractal_field does, then blended with the base-map
 * row under it. */
static void blend_patch_row(double *restrict row,
                            const double *restrict under, int64_t width,
                            double amplitude, double amplitude_sum,
                            double lo, double span) {
    int64_t x = 0;
    for (; x + LANES <= width; x += LANES)
        for (int j = 0; j < LANES; j++)
            row[x + j] = blended(
                under[x + j], amplitude,
                normalized(row[x + j], amplitude_sum, lo, span));
    for (; x < width; x++)
        row[x] = blended(under[x], amplitude,
                         normalized(row[x], amplitude_sum, lo, span));
}

/* Every missing change-cell block of one surface in one call.  Cell c
 * sums the octaves of its plan's fractal field over its own lattices
 * into its own block (octave_total), then normalizes each value as
 * fractal_field does and blends it with the base map under the cell,
 * operation for operation the oracle's cell_block_uncached:
 *   block = clip(under + patch_amplitudes[c] * (patch - 0.5))
 * `plans` holds PLAN_FIELDS int64 per plan: the field's height and width,
 * then the addresses of its offsets, cols, y0, ty, x0 and tx arrays (laid
 * out as fractal_field reads them).  `cells` holds CELL_FIELDS int64 per
 * cell: its plan, the start of its lattices in `lattices`, the base-map
 * row and column of its top-left pixel, and the address of its block
 * (height x width doubles).  Every plan shares `octaves`, `amplitudes`
 * and `amplitude_sum`; `scratch` holds twice the widest plan's width. */
void change_blocks(const double *lattices, const int64_t *plans,
                   const int64_t *cells, const double *patch_amplitudes,
                   int64_t n_cells, const double *amplitudes,
                   int64_t octaves, double amplitude_sum,
                   const double *base, int64_t base_width,
                   double *scratch) {
    for (int64_t c = 0; c < n_cells; c++) {
        const int64_t *cell = cells + c * CELL_FIELDS;
        const int64_t *plan = plans + cell[0] * PLAN_FIELDS;
        int64_t height = plan[0], width = plan[1];
        double *block = (double *)(uintptr_t)cell[4];
        double lo;
        double span = octave_total(
            lattices + cell[1], (const int64_t *)(uintptr_t)plan[2],
            (const int64_t *)(uintptr_t)plan[3],
            (const int64_t *)(uintptr_t)plan[4],
            (const double *)(uintptr_t)plan[5],
            (const int64_t *)(uintptr_t)plan[6],
            (const double *)(uintptr_t)plan[7], amplitudes, octaves,
            amplitude_sum, height, width, scratch, block, &lo);
        double amplitude = patch_amplitudes[c];
        const double *under = base + cell[2] * base_width + cell[3];
        for (int64_t y = 0; y < height; y++) {
            double *row = block + y * width;
            const double *base_row = under + y * base_width;
            if (span < 1e-12) { /* a flat patch normalizes to zeros */
                for (int64_t x = 0; x < width; x++)
                    row[x] = blended(base_row[x], amplitude, 0.0);
            } else {
                blend_patch_row(row, base_row, width, amplitude,
                                amplitude_sum, lo, span);
            }
        }
    }
}
