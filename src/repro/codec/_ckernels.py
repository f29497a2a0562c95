"""Build and load the compiled codec kernels (C via the system toolchain).

The ``compiled`` backend promises the exact arithmetic of the reference
coder at native speed.  numba is not part of the baked toolchain, so the
kernels are plain C99 compiled on first use with the system compiler
(``cc``/``gcc``/``clang``) into a cached shared object and called through
:mod:`ctypes`.  Every kernel is a line-for-line port of the corresponding
Python inner loop:

* the bit-plane coder, one call per tile each way (every plane, every
  band): the significance / sign / refinement passes of
  ``VectorizedPlaneCoder`` fused with the Subbotin range coder of
  ``BatchRangeEncoder`` / ``BatchRangeDecoder`` and the same 32-bit
  masking discipline — state is held in ``uint64_t`` and masked exactly
  where the Python code masks, so the unmasked ``low ^ (low + range)``
  renormalization test is preserved verbatim.  Each band keeps a count
  of its significant neighbours, bumped once when a coefficient turns
  significant, so a significance context is one lookup;
* the multilevel 2-D DWT, fused: one call per transform runs every level
  and both axes of an (n, h, w) stack for 5/3 or 9/7, built from the
  numpy lifting's 1-D passes (transposing so every pass runs along the
  leading axis) and compiled with ``-ffp-contract=off`` (no fused
  multiply-add, no fast-math) so every float operation rounds exactly
  like the numpy elementwise pipeline;
* the rate model's magnitude→top-bit histogram and descending plane walk
  (the entropy matrix stays in numpy — ``np.log2`` — so transcendental
  rounding can never drift between backends);
* imagery synthesis, one call per field: a fractal-noise field sums every
  octave's Hermite-blended lattice and normalizes it, and a capture band
  is rendered (illumination, cloud composite, sensor noise, clips) in
  one pass; the lattices and the noise stay numpy draws.

Float identity therefore holds to the last ulp, and the integer kernels
are trivially exact; the differential/golden/corruption suites enforce
both.  When no C compiler is available the build fails soft:
:func:`load` returns None, :func:`unavailable_reason` says why, and the
backend registry falls back to ``vectorized`` with a warning.

Set ``REPRO_CODEC_CC`` to choose a specific compiler, or to the empty
string to simulate a machine without a toolchain (used by the CI
fallback job).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_C_SOURCE = r"""
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
 * in BatchRangeDecoder. */
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
 * passes (exactly the decision stream _prepare_band_plane assembles) and
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
 * fresh decoder (four bytes, zero-filled past the end, like
 * BatchRangeDecoder), then per band in order against the shared context
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
 * the numpy lifting in dwt.py does.
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
 * >= 31 wrap check fires exactly like the numpy path. */
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
 * matches the vectorized path bit for bit; this kernel replays only the
 * integer statistics and the three accumulator additions per plane, in
 * the exact order of the numpy walk. */
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
 * leaves INT32_MIN negative, and bit-exactness with the numpy path wins
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
 * the top (or bottom) term of numpy's value-noise blend, element for
 * element. */
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

/* A whole fractal-noise field in one call, operation for operation the
 * numpy path of fractal_noise (no fused multiply-add: built with
 * -ffp-contract=off):
 *   total += amplitude[k] * (top * (1 - ty) + bottom * ty)   per octave
 *   total /= amplitude_sum, then (total - lo) / (hi - lo)
 * with lo/hi the field's min/max, or zeros when hi - lo < 1e-12.
 * Octave k's lattice starts at lattices + offsets[k] with cols[k] values
 * per row; its pixel geometry is y0/ty at k * height (each pixel row's
 * upper lattice row and Hermite weight) and x0/tx at k * width (each
 * column's left lattice column and weight).  Pixel rows sharing a
 * lattice row pair share its two horizontal blends, computed once into
 * `scratch` (2 * width doubles).  Rounding is monotonic, so the min/max
 * of total / amplitude_sum are the min/max of total, divided: one pass
 * finds them and one more divides and normalizes. */
void fractal_field(const double *lattices, const int64_t *offsets,
                   const int64_t *cols, const int64_t *y0, const double *ty,
                   const int64_t *x0, const double *tx,
                   const double *amplitudes, int64_t octaves,
                   double amplitude_sum, int64_t height, int64_t width,
                   double *scratch, double *out) {
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
    double lo, hi;
    value_range(out, n, &lo, &hi);
    lo = lo / amplitude_sum;
    hi = hi / amplitude_sum;
    double span = hi - lo;
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
 * `pixels`, operation for operation the numpy path of render_pixels:
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
"""

#: Compiler candidates tried in order when REPRO_CODEC_CC is unset.
_COMPILERS = ("cc", "gcc", "clang")

#: Flags that guarantee float identity with the numpy pipeline: no FMA
#: contraction, no fast-math value changes.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

_ENV_CC = "REPRO_CODEC_CC"

_cached: "CompiledKernels | None" = None
_cached_reason: str | None = None
_probed = False


def _find_compiler() -> str | None:
    """The compiler to use, or None when the toolchain is unavailable."""
    override = os.environ.get(_ENV_CC)
    if override is not None:
        if override.strip() == "":
            return None  # explicit "no toolchain" (CI fallback job)
        return shutil.which(override) or None
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> Path:
    try:
        base = Path.home() / ".cache" / "repro" / "ckernels"
        base.mkdir(parents=True, exist_ok=True)
        return base
    except OSError:
        return Path(tempfile.gettempdir()) / "repro-ckernels"


def _build(compiler: str) -> Path:
    """Compile the kernel library (cached by source+compiler+flags hash)."""
    tag = hashlib.sha256(
        "\x00".join([_C_SOURCE, compiler, " ".join(_CFLAGS)]).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    lib_path = cache / f"repro_ckernels_{tag}.so"
    if lib_path.exists():
        return lib_path
    # Every builder compiles its own private copy of the source into a
    # unique temp library, then renames it into place: concurrent builders
    # (sweep workers) never write a file another builder's compiler is
    # reading, and os.replace is atomic.
    src_fd, tmp_src = tempfile.mkstemp(suffix=".c", dir=str(cache))
    out_fd, tmp_out = tempfile.mkstemp(suffix=".so", dir=str(cache))
    os.close(out_fd)
    try:
        with os.fdopen(src_fd, "w") as handle:
            handle.write(_C_SOURCE)
        subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp_out, tmp_src, "-lm"],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp_out, lib_path)
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(
            f"kernel compilation failed: {exc.stderr.strip()[:500]}"
        ) from exc
    finally:
        for path in (tmp_src, tmp_out):
            if os.path.exists(path):
                os.unlink(path)
    return lib_path


def _check_tile_buffers(
    magnitudes: np.ndarray,
    signs: np.ndarray,
    significant: np.ndarray,
    neighbours: np.ndarray,
    heights: np.ndarray,
    widths: np.ndarray,
    bases: np.ndarray,
    count0: np.ndarray,
    count1: np.ndarray,
) -> None:
    """Refuse buffers the tile kernels would index out of bounds.

    Every array must be contiguous with its kernel dtype; the four band
    buffers must hold exactly the bands ``heights`` x ``widths`` describe,
    and the context table every id from each band's base up to base + 4.
    """
    n_bands = heights.size
    for array, dtype in (
        (magnitudes, np.int64),
        (signs, np.bool_),
        (significant, np.uint8),
        (neighbours, np.uint8),
        (heights, np.int64),
        (widths, np.int64),
        (bases, np.int64),
        (count0, np.int64),
        (count1, np.int64),
    ):
        if array.dtype != dtype or not array.flags.c_contiguous:
            raise ValueError(
                f"tile kernels need contiguous {np.dtype(dtype).name} "
                f"buffers, got {array.dtype}"
            )
    size = int(heights @ widths)
    n_contexts = int(bases.max()) + 5 if n_bands else 0
    band_buffers = (magnitudes, signs, significant, neighbours)
    if (
        widths.size != n_bands
        or bases.size != n_bands
        or any(buffer.size != size for buffer in band_buffers)
        or min(count0.size, count1.size) < n_contexts
    ):
        raise ValueError(
            f"tile buffers do not match {n_bands} bands of {size} "
            f"coefficients and {n_contexts} contexts"
        )


def _address(array: "np.ndarray | None") -> ctypes.c_void_p:
    """A buffer's data address for a kernel argument (NULL for None)."""
    return ctypes.c_void_p(None if array is None else array.ctypes.data)


class CompiledKernels:
    """numpy-facing wrappers over the compiled kernel library."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        lib.rc_encode_tile.restype = i64
        lib.rc_encode_tile.argtypes = (
            [ptr] * 7 + [i64, i64] + [ptr] * 3 + [i64, ptr]
        )
        lib.rc_decode_tile.restype = ctypes.c_int
        lib.rc_decode_tile.argtypes = (
            [ptr, ptr, i64] + [ptr] * 7 + [i64, i64, ptr, ptr]
        )
        for name in (
            "dwt97_forward2d",
            "dwt97_inverse2d",
            "dwt53_forward2d",
            "dwt53_inverse2d",
            "rc_magnitude_histogram",
            "rc_magnitude_histogram_multi",
            "rc_plane_walk_bits",
            "rc_dequantize",
            "rc_dequantize_multi",
            "fractal_field",
            "render_band",
        ):
            getattr(lib, name).restype = None

    # -- range coder ---------------------------------------------------
    def encode_tile(
        self,
        magnitudes: np.ndarray,
        signs: np.ndarray,
        significant: np.ndarray,
        neighbours: np.ndarray,
        heights: np.ndarray,
        widths: np.ndarray,
        bases: np.ndarray,
        max_plane: int,
        count0: np.ndarray,
        count1: np.ndarray,
    ) -> list[bytes]:
        """Fused encode of every plane of a tile, ``max_plane`` down to 0.

        The first four arrays are flat and contiguous and hold the tile's
        bands back to back in coding order: int64 magnitudes, bool signs,
        and the zeroed uint8 significance maps and significant-neighbour
        counts; ``heights``, ``widths`` and ``bases`` are each band's
        int64 shape and context base.  The last two buffers and the
        shared ``count0``/``count1`` context table update in place,
        exactly as the per-decision reference coder would.  Returns one
        flushed codeword per plane, most significant first.

        The call mutates coder state, so it cannot be retried with a
        bigger buffer — the cap is a hard bound instead: the range coder
        emits at most 2 bytes per decision (each decision shrinks the
        range by at least 2^-16, each output byte grows it by 2^8), a
        plane codes at most 2 decisions per coefficient (significance +
        sign, or refinement), and the tile's cap is that per-plane bound
        summed over its planes.
        """
        _check_tile_buffers(
            magnitudes, signs, significant, neighbours,
            heights, widths, bases, count0, count1,
        )
        n_planes = max(max_plane + 1, 0)
        cap = n_planes * (4 * magnitudes.size + 64)
        out = np.empty(cap, dtype=np.uint8)
        seg_lens = np.empty(n_planes, dtype=np.int64)
        written = self._lib.rc_encode_tile(
            ctypes.c_void_p(magnitudes.ctypes.data),
            ctypes.c_void_p(signs.ctypes.data),
            ctypes.c_void_p(significant.ctypes.data),
            ctypes.c_void_p(neighbours.ctypes.data),
            ctypes.c_void_p(heights.ctypes.data),
            ctypes.c_void_p(widths.ctypes.data),
            ctypes.c_void_p(bases.ctypes.data),
            ctypes.c_int64(heights.size),
            ctypes.c_int64(max_plane),
            ctypes.c_void_p(count0.ctypes.data),
            ctypes.c_void_p(count1.ctypes.data),
            ctypes.c_void_p(out.ctypes.data),
            ctypes.c_int64(cap),
            ctypes.c_void_p(seg_lens.ctypes.data),
        )
        if written < 0:  # unreachable by the bound above
            raise RuntimeError("rc_encode_tile output exceeded hard bound")
        ends = np.cumsum(seg_lens).tolist()
        return [
            out[start:end].tobytes() for start, end in zip([0, *ends], ends)
        ]

    def decode_tile(
        self,
        datas: "list[bytes]",
        magnitudes: np.ndarray,
        signs: np.ndarray,
        significant: np.ndarray,
        neighbours: np.ndarray,
        heights: np.ndarray,
        widths: np.ndarray,
        bases: np.ndarray,
        max_plane: int,
        count0: np.ndarray,
        count1: np.ndarray,
    ) -> bool:
        """Fused decode of a tile's kept plane segments, in one call.

        The mirror of :meth:`encode_tile` over the same band layout, with
        every buffer zeroed: ``datas[k]`` is the codeword of plane
        ``max_plane - k``, and the decoded bits land in the buffers and
        the shared ``count0``/``count1`` table in place.  Returns False
        when some segment's decoder ran more than 64 bytes past the end
        of that segment (a malformed stream); the segments after it are
        left undecoded.
        """
        _check_tile_buffers(
            magnitudes, signs, significant, neighbours,
            heights, widths, bases, count0, count1,
        )
        if len(datas) > max(max_plane + 1, 0):
            raise ValueError(
                f"{len(datas)} segments from plane {max_plane} reach "
                "below plane 0"
            )
        buf = np.frombuffer(b"".join(datas), dtype=np.uint8)
        seg_lens = np.fromiter(map(len, datas), np.int64, count=len(datas))
        status = self._lib.rc_decode_tile(
            ctypes.c_void_p(buf.ctypes.data),
            ctypes.c_void_p(seg_lens.ctypes.data),
            ctypes.c_int64(seg_lens.size),
            ctypes.c_void_p(magnitudes.ctypes.data),
            ctypes.c_void_p(signs.ctypes.data),
            ctypes.c_void_p(significant.ctypes.data),
            ctypes.c_void_p(neighbours.ctypes.data),
            ctypes.c_void_p(heights.ctypes.data),
            ctypes.c_void_p(widths.ctypes.data),
            ctypes.c_void_p(bases.ctypes.data),
            ctypes.c_int64(heights.size),
            ctypes.c_int64(max_plane),
            ctypes.c_void_p(count0.ctypes.data),
            ctypes.c_void_p(count1.ctypes.data),
        )
        return status == 0

    # -- DWT -----------------------------------------------------------
    def dwt_forward(
        self, stack: np.ndarray, levels: int, reversible: bool
    ) -> np.ndarray:
        """Fused multilevel 2-D analysis of a contiguous (n, h, w) stack.

        One call runs every level and both axes: LeGall 5/3 on an int64
        stack when ``reversible``, else CDF 9/7 on a float64 stack.
        Returns the flat subband buffer (``n*h*w`` values, finest level's
        HL/LH/HH stacks first, coarsest LL last — the layout documented
        in the C source and mirrored by ``dwt._subband_layout``).
        """
        dtype = np.int64 if reversible else np.float64
        if (
            stack.ndim != 3
            or stack.dtype != dtype
            or not stack.flags.c_contiguous
        ):
            raise ValueError(
                f"dwt_forward needs a C-contiguous (n, h, w) {dtype.__name__} "
                f"stack, got {stack.dtype} {stack.shape}"
            )
        n, h, w = stack.shape
        out = np.empty(stack.size, dtype=dtype)
        work = np.empty(4 * stack.size, dtype=dtype)
        lib = self._lib
        kernel = lib.dwt53_forward2d if reversible else lib.dwt97_forward2d
        kernel(
            ctypes.c_void_p(stack.ctypes.data),
            ctypes.c_int64(n),
            ctypes.c_int64(h),
            ctypes.c_int64(w),
            ctypes.c_int64(levels),
            ctypes.c_void_p(out.ctypes.data),
            ctypes.c_void_p(work.ctypes.data),
        )
        return out

    def dwt_inverse(
        self,
        coeffs: np.ndarray,
        shape: "tuple[int, int, int]",
        levels: int,
        reversible: bool,
    ) -> np.ndarray:
        """Inverse of :meth:`dwt_forward`: flat subband buffer to an
        ``shape`` = (n, h, w) stack, in one call."""
        dtype = np.int64 if reversible else np.float64
        n, h, w = shape
        if (
            coeffs.ndim != 1
            or coeffs.size != n * h * w
            or coeffs.dtype != dtype
            or not coeffs.flags.c_contiguous
        ):
            raise ValueError(
                f"dwt_inverse needs a contiguous {dtype.__name__} buffer of "
                f"{n * h * w} values, got {coeffs.dtype} {coeffs.shape}"
            )
        out = np.empty(shape, dtype=dtype)
        work = np.empty(4 * coeffs.size, dtype=dtype)
        lib = self._lib
        kernel = lib.dwt53_inverse2d if reversible else lib.dwt97_inverse2d
        kernel(
            ctypes.c_void_p(coeffs.ctypes.data),
            ctypes.c_int64(n),
            ctypes.c_int64(h),
            ctypes.c_int64(w),
            ctypes.c_int64(levels),
            ctypes.c_void_p(out.ctypes.data),
            ctypes.c_void_p(work.ctypes.data),
        )
        return out

    # -- rate model ----------------------------------------------------
    def magnitude_histogram(
        self, stack: np.ndarray, step: float, n_bins_cap: int = 64
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-bit histogram of floor(|stack| / step) per row.

        ``stack`` must be a contiguous (n_rows, size) float64 array.
        Returns ``(counts, tops)`` with counts shaped (n_rows,
        n_bins_cap); the caller trims to the occupied planes.
        """
        n_rows, size = stack.shape
        counts = np.zeros((n_rows, n_bins_cap), dtype=np.int64)
        tops = np.empty(n_rows, dtype=np.int64)
        self._lib.rc_magnitude_histogram(
            ctypes.c_void_p(stack.ctypes.data),
            ctypes.c_int64(n_rows),
            ctypes.c_int64(size),
            ctypes.c_double(step),
            ctypes.c_void_p(counts.ctypes.data),
            ctypes.c_int64(n_bins_cap),
            ctypes.c_void_p(tops.ctypes.data),
        )
        return counts, tops

    def magnitude_histogram_multi(
        self,
        ptrs: np.ndarray,
        rows: np.ndarray,
        sizes: np.ndarray,
        steps: np.ndarray,
        n_bins_cap: int = 64,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`magnitude_histogram` over many row blocks.

        The block description comes prebuilt, so a caller that histograms
        the same blocks at many steps builds it once: ``ptrs``, ``rows``
        and ``sizes`` are int64 arrays holding each block's data address,
        row count and row length, and ``steps`` is its float64 step.  Each
        block must be a contiguous (rows, size) float64 array that the
        caller keeps alive.  The block results land consecutively in one
        ``(total_rows, n_bins_cap)`` counts matrix and ``(total_rows,)``
        tops vector, in block order.
        """
        n_blocks = len(ptrs)
        for array, dtype in (
            (ptrs, np.int64),
            (rows, np.int64),
            (sizes, np.int64),
            (steps, np.float64),
        ):
            if (
                array.dtype != dtype
                or array.shape != (n_blocks,)
                or not array.flags.c_contiguous
            ):
                raise ValueError(
                    "block arrays must be contiguous, one entry per block"
                )
        total = int(rows.sum())
        counts = np.zeros((total, n_bins_cap), dtype=np.int64)
        tops = np.empty(total, dtype=np.int64)
        self._lib.rc_magnitude_histogram_multi(
            ctypes.c_void_p(ptrs.ctypes.data),
            ctypes.c_void_p(rows.ctypes.data),
            ctypes.c_void_p(sizes.ctypes.data),
            ctypes.c_void_p(steps.ctypes.data),
            ctypes.c_int64(n_blocks),
            ctypes.c_void_p(counts.ctypes.data),
            ctypes.c_int64(n_bins_cap),
            ctypes.c_void_p(tops.ctypes.data),
        )
        return counts, tops

    def plane_walk_bits(
        self,
        counts: np.ndarray,
        tops: np.ndarray,
        sizes: np.ndarray,
        entropy_mat: np.ndarray,
    ) -> np.ndarray:
        """Descending plane walk (same accumulation order as numpy)."""
        n_rows, n_planes = counts.shape
        bits = np.empty(n_rows, dtype=np.float64)
        self._lib.rc_plane_walk_bits(
            ctypes.c_void_p(counts.ctypes.data),
            ctypes.c_void_p(tops.ctypes.data),
            ctypes.c_void_p(sizes.ctypes.data),
            ctypes.c_void_p(entropy_mat.ctypes.data),
            ctypes.c_int64(n_rows),
            ctypes.c_int64(n_planes),
            ctypes.c_void_p(bits.ctypes.data),
        )
        return bits

    def dequantize(
        self, q: np.ndarray, step: float, offset: float
    ) -> np.ndarray:
        """Fused dead-zone dequantize of a contiguous int32 array."""
        out = np.empty(q.shape, dtype=np.float64)
        self._lib.rc_dequantize(
            ctypes.c_void_p(q.ctypes.data),
            ctypes.c_int64(q.size),
            ctypes.c_double(step),
            ctypes.c_double(offset),
            ctypes.c_void_p(out.ctypes.data),
        )
        return out

    def dequantize_multi(
        self,
        blocks: "list[np.ndarray]",
        steps: "list[float]",
        offset: float,
    ) -> "list[np.ndarray]":
        """Batched :meth:`dequantize` over many contiguous int32 arrays.

        Returns one float64 array per block (views into a single shared
        buffer), each shaped like its input block.
        """
        n_blocks = len(blocks)
        ptrs = np.fromiter(
            (b.ctypes.data for b in blocks), dtype=np.int64, count=n_blocks
        )
        ns = np.fromiter(
            (b.size for b in blocks), dtype=np.int64, count=n_blocks
        )
        steps_arr = np.fromiter(steps, dtype=np.float64, count=n_blocks)
        total = int(ns.sum())
        out = np.empty(total, dtype=np.float64)
        self._lib.rc_dequantize_multi(
            ctypes.c_void_p(ptrs.ctypes.data),
            ctypes.c_void_p(ns.ctypes.data),
            ctypes.c_void_p(steps_arr.ctypes.data),
            ctypes.c_double(offset),
            ctypes.c_int64(n_blocks),
            ctypes.c_void_p(out.ctypes.data),
        )
        views = []
        off = 0
        for block in blocks:
            views.append(out[off : off + block.size].reshape(block.shape))
            off += block.size
        return views

    # -- imagery -------------------------------------------------------
    def fractal_field(
        self,
        lattices: np.ndarray,
        offsets: np.ndarray,
        cols: np.ndarray,
        rows: "tuple[np.ndarray, np.ndarray]",
        columns: "tuple[np.ndarray, np.ndarray]",
        amplitudes: np.ndarray,
        amplitude_sum: float,
        shape: "tuple[int, int]",
    ) -> np.ndarray:
        """One normalized fractal-noise field, every octave in one call.

        ``lattices`` holds every octave's float64 lattice back to back,
        octave ``k`` starting at ``offsets[k]`` with ``cols[k]`` values
        per row.  ``rows`` is each octave's per-pixel-row upper lattice
        row (int64) and Hermite weight (float64), back to back by
        octave; ``columns`` likewise per pixel column.  Bit-identical to
        the numpy path of :func:`repro.imagery.noise.fractal_noise`.
        """
        height, width = shape
        octaves = amplitudes.size
        y0, ty = rows
        x0, tx = columns
        for array, dtype, size in (
            (offsets, np.int64, octaves),
            (cols, np.int64, octaves),
            (y0, np.int64, octaves * height),
            (ty, np.float64, octaves * height),
            (x0, np.int64, octaves * width),
            (tx, np.float64, octaves * width),
            (amplitudes, np.float64, octaves),
            (lattices, np.float64, lattices.size),
        ):
            if (
                array.dtype != dtype
                or array.size != size
                or not array.flags.c_contiguous
            ):
                raise ValueError(
                    "fractal_field needs contiguous field plan arrays"
                )
        out = np.empty(shape, dtype=np.float64)
        scratch = np.empty(2 * width, dtype=np.float64)
        self._lib.fractal_field(
            ctypes.c_void_p(lattices.ctypes.data),
            ctypes.c_void_p(offsets.ctypes.data),
            ctypes.c_void_p(cols.ctypes.data),
            ctypes.c_void_p(y0.ctypes.data),
            ctypes.c_void_p(ty.ctypes.data),
            ctypes.c_void_p(x0.ctypes.data),
            ctypes.c_void_p(tx.ctypes.data),
            ctypes.c_void_p(amplitudes.ctypes.data),
            ctypes.c_int64(octaves),
            ctypes.c_double(amplitude_sum),
            ctypes.c_int64(height),
            ctypes.c_int64(width),
            ctypes.c_void_p(scratch.ctypes.data),
            ctypes.c_void_p(out.ctypes.data),
        )
        return out

    def render_band(
        self,
        surface: np.ndarray,
        gain: float,
        offset: float,
        alpha: "np.ndarray | None",
        cloud_value: float,
        noise: "np.ndarray | None",
    ) -> np.ndarray:
        """Render one band of a capture in place over ``surface``.

        ``surface`` is a writable, contiguous float64 image; it comes
        back as the observed band: illumination (``gain``, ``offset``,
        clip), the blend towards ``cloud_value`` with weight ``alpha``
        (zero off the cloud mask), the ``noise`` add and the final clip.
        ``alpha`` is None for a cloud-free capture and ``noise`` None for
        a noise-free one.  Bit-identical to the numpy path of
        :func:`repro.imagery.sensor.render_pixels`.
        """
        for array in (surface, alpha, noise):
            if array is not None and (
                array.dtype != np.float64
                or array.shape != surface.shape
                or not array.flags.c_contiguous
            ):
                raise ValueError(
                    "render_band needs contiguous float64 arrays shaped "
                    f"like the surface {surface.shape}"
                )
        if not surface.flags.writeable or any(
            array is not None and np.may_share_memory(array, surface)
            for array in (alpha, noise)
        ):
            raise ValueError(
                "render_band renders in place: the surface must be "
                "writable and overlap no other input"
            )
        self._lib.render_band(
            _address(surface),
            ctypes.c_int64(surface.size),
            ctypes.c_double(gain),
            ctypes.c_double(offset),
            _address(alpha),
            ctypes.c_double(cloud_value),
            _address(noise),
        )
        return surface


def load() -> CompiledKernels | None:
    """Build (first use) and load the kernels; None when unavailable."""
    global _cached, _cached_reason, _probed
    if _probed:
        return _cached
    _probed = True
    compiler = _find_compiler()
    if compiler is None:
        override = os.environ.get(_ENV_CC)
        if override is not None and override.strip() == "":
            _cached_reason = f"disabled via {_ENV_CC}="
        elif override is not None:
            _cached_reason = f"{_ENV_CC}={override!r} not found on PATH"
        else:
            _cached_reason = (
                "no C compiler found (tried " + ", ".join(_COMPILERS) + ")"
            )
        return None
    try:
        lib_path = _build(compiler)
        _cached = CompiledKernels(ctypes.CDLL(str(lib_path)))
    except (OSError, RuntimeError, AttributeError) as exc:
        _cached = None
        _cached_reason = str(exc)
    return _cached


def unavailable_reason() -> str | None:
    """Why :func:`load` returned None (None when kernels are available)."""
    load()
    return _cached_reason


def reset_for_tests() -> None:
    """Forget the cached probe so tests can flip ``REPRO_CODEC_CC``."""
    global _cached, _cached_reason, _probed
    _cached = None
    _cached_reason = None
    _probed = False
    from repro.codec import registry

    registry.reset_kernels_cache()
