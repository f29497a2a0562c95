"""Build and load the compiled codec kernels (C via the system toolchain).

The ``compiled`` backend promises the exact arithmetic of the reference
coder at native speed.  numba is not part of the baked toolchain, so the
kernels are plain C99 compiled on first use with the system compiler
(``cc``/``gcc``/``clang``) into a cached shared object and called through
:mod:`ctypes`.  Every kernel is a line-for-line port of the corresponding
Python inner loop:

* the bit-plane coder, one call per plane each way: the significance /
  sign / refinement passes of ``VectorizedPlaneCoder`` fused with the
  Subbotin range coder of ``BatchRangeEncoder`` / ``BatchRangeDecoder``
  and the same 32-bit masking discipline — state is held in ``uint64_t``
  and masked exactly where the Python code masks, so the unmasked
  ``low ^ (low + range)`` renormalization test is preserved verbatim;
* the 5/3 and 9/7 DWT lifting passes, compiled with ``-ffp-contract=off``
  (no fused multiply-add, no fast-math) so every float operation rounds
  exactly like the numpy elementwise pipeline;
* the rate model's magnitude→top-bit histogram and descending plane walk
  (the entropy matrix stays in numpy — ``np.log2`` — so transcendental
  rounding can never drift between backends).

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

/* Significance context bucket of position (y, x): 0 / 1-2 / 3+ of its
 * 8 neighbours significant at the start of the plane (bit 0 of `sig`;
 * the decoder marks coefficients that turn significant mid-plane with
 * bit 1, which this ignores). */
static inline int64_t sig_bucket(const uint8_t *sig, int64_t h, int64_t w,
                                 int64_t y, int64_t x) {
    int nb = 0;
    for (int64_t dy = -1; dy <= 1; dy++) {
        int64_t yy = y + dy;
        if (yy < 0 || yy >= h) continue;
        for (int64_t dx = -1; dx <= 1; dx++) {
            int64_t xx = x + dx;
            if (xx < 0 || xx >= w || (dy == 0 && dx == 0)) continue;
            nb += sig[yy * w + xx] & 1;
        }
    }
    return nb >= 3 ? 2 : (nb >= 1 ? 1 : 0);
}

/* One whole plane, fused: walk every band's significance and refinement
 * passes (exactly the decision stream _prepare_band_plane assembles) and
 * feed each decision straight through the adaptive model + range coder.
 * Bands are coded in order against one shared context table; each band's
 * significance state updates after its two passes, before the next
 * band's.  Fresh coder state + 4-byte flush per call.  Returns bytes
 * written, or -1 when `cap` is too small. */
int64_t rc_encode_plane(const int64_t *mag_ptrs, const int64_t *sign_ptrs,
                        const int64_t *sig_ptrs, const int64_t *heights,
                        const int64_t *widths, const int64_t *bases,
                        int64_t n_bands, int64_t plane,
                        int64_t *count0, int64_t *count1,
                        uint8_t *out, int64_t cap) {
    uint64_t low = 0, rng = MASK32;
    int64_t len = 0;

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
        const int64_t *mag = (const int64_t *)(uintptr_t)mag_ptrs[b];
        const uint8_t *sgn = (const uint8_t *)(uintptr_t)sign_ptrs[b];
        uint8_t *sig = (uint8_t *)(uintptr_t)sig_ptrs[b];
        int64_t h = heights[b], w = widths[b];
        int64_t base = bases[b];
        int64_t sign_ctx = base + 3; /* _SIGN_OFFSET */
        int64_t ref_ctx = base + 4;  /* _REF_OFFSET */
        /* Significance pass: row-major over previously-insignificant
         * positions, context from the pre-plane neighbour state, each 1
         * bit followed by its sign bit. */
        for (int64_t y = 0; y < h; y++) {
            for (int64_t x = 0; x < w; x++) {
                int64_t i = y * w + x;
                if (sig[i]) continue;
                int bit = (int)((mag[i] >> plane) & 1);
                RC_PUT_BIT(bit, base + sig_bucket(sig, h, w, y, x));
                if (bit)
                    RC_PUT_BIT(sgn[i], sign_ctx);
            }
        }
        /* Refinement pass: previously-significant positions, row-major,
         * one shared context. */
        for (int64_t i = 0; i < h * w; i++) {
            if (!sig[i]) continue;
            RC_PUT_BIT((int)((mag[i] >> plane) & 1), ref_ctx);
        }
        /* Both passes read the pre-plane state; update it now. */
        for (int64_t i = 0; i < h * w; i++)
            if ((mag[i] >> plane) & 1) sig[i] = 1;
    }
#undef RC_PUT_BIT
    for (int k = 0; k < 4; k++) {
        if (len >= cap) return -1;
        out[len++] = (uint8_t)((low >> 24) & 0xFF);
        low = (low << 8) & MASK32;
    }
    return len;
}

/* Decode one whole plane segment, the mirror of rc_encode_plane: prime a
 * fresh decoder (four bytes, zero-filled past the end, like
 * BatchRangeDecoder), then per band in order against the shared context
 * table run the significance pass with its sign bits, the refinement
 * pass, and the significance update.  Contexts and the refinement set
 * come from the start-of-plane state, so a coefficient that turns
 * significant mid-pass is marked 2 in `sig` (bit 0 clear) and becomes 1
 * only in the update.  Returns 0, or 1 when the decoder ran more than 64
 * bytes past the end of data (BitstreamError in the caller). */
int rc_decode_plane(const uint8_t *data, int64_t n_data,
                    const int64_t *mag_ptrs, const int64_t *sign_ptrs,
                    const int64_t *sig_ptrs, const int64_t *heights,
                    const int64_t *widths, const int64_t *bases,
                    int64_t n_bands, int64_t plane,
                    int64_t *count0, int64_t *count1) {
    int64_t limit = n_data + 64;
    int64_t pos = 0;
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
        int64_t *mag = (int64_t *)(uintptr_t)mag_ptrs[b];
        uint8_t *sgn = (uint8_t *)(uintptr_t)sign_ptrs[b];
        uint8_t *sig = (uint8_t *)(uintptr_t)sig_ptrs[b];
        int64_t h = heights[b], w = widths[b];
        int64_t base = bases[b];
        int64_t sign_ctx = base + 3; /* _SIGN_OFFSET */
        int64_t ref_ctx = base + 4;  /* _REF_OFFSET */
        for (int64_t y = 0; y < h; y++) {
            for (int64_t x = 0; x < w; x++) {
                int64_t i = y * w + x;
                if (sig[i]) continue;
                int bit, sbit;
                RC_GET_BIT(bit, base + sig_bucket(sig, h, w, y, x));
                if (bit) {
                    RC_GET_BIT(sbit, sign_ctx);
                    mag[i] += plane_value;
                    sgn[i] = (uint8_t)sbit;
                    sig[i] = 2;
                }
            }
        }
        /* Refinement over the start-of-plane significant set; the update
         * of mid-plane arrivals rides along (it only touches positions
         * this loop has already passed). */
        for (int64_t i = 0; i < h * w; i++) {
            if (sig[i] == 1) {
                int bit;
                RC_GET_BIT(bit, ref_ctx);
                if (bit) mag[i] += plane_value;
            } else if (sig[i] == 2) {
                sig[i] = 1;
            }
        }
    }
#undef RC_GET_BIT
    return 0;
}

/* ------------------------------------------------------------------ */
/* DWT lifting (whole-point symmetric extension along axis 0,          */
/* m contiguous columns)                                               */
/* ------------------------------------------------------------------ */

/* Mirrored source index of sample 2i+2 (always even), divided by 2. */
static int64_t predict_right(int64_t i, int64_t length) {
    int64_t period = 2 * (length - 1);
    int64_t idx = (2 * i + 2) % period;
    if (idx >= length) idx = period - idx;
    return idx / 2;
}

void dwt97_analysis(const double *x, int64_t length, int64_t m,
                    double *even, double *odd) {
    const double ALPHA = -1.586134342059924;
    const double BETA = -0.052980118572961;
    const double GAMMA = 0.882911075530934;
    const double DELTA = 0.443506852043971;
    const double KAPPA = 1.230174104914001;
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

void dwt97_synthesis(const double *approx, const double *detail,
                     int64_t length, int64_t m, double *out) {
    const double ALPHA = -1.586134342059924;
    const double BETA = -0.052980118572961;
    const double GAMMA = 0.882911075530934;
    const double DELTA = 0.443506852043971;
    const double KAPPA = 1.230174104914001;
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

void dwt53_analysis(const int64_t *x, int64_t length, int64_t m,
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

void dwt53_synthesis(const int64_t *approx, const int64_t *detail,
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

/* Bilinear value-noise interpolation: gather four lattice corners per
 * pixel and blend with precomputed Hermite weights.  The arithmetic is
 * exactly numpy's broadcast expression, term for term:
 *   top    = v00 * (1 - tx) + v01 * tx
 *   bottom = v10 * (1 - tx) + v11 * tx
 *   out    = top * (1 - ty) + bottom * ty
 * (no fused multiply-add: built with -ffp-contract=off). */
void noise_bilerp(const double *lattice, int64_t stride,
                  const int64_t *flat00, const double *ty, const double *tx,
                  int64_t height, int64_t width, double *out) {
    for (int64_t y = 0; y < height; y++) {
        double wy = ty[y];
        const int64_t *f = flat00 + y * width;
        double *o = out + y * width;
        for (int64_t x = 0; x < width; x++) {
            const double *cell = lattice + f[x];
            double wx = tx[x];
            double top = cell[0] * (1.0 - wx) + cell[1] * wx;
            double bottom =
                cell[stride] * (1.0 - wx) + cell[stride + 1] * wx;
            o[x] = top * (1.0 - wy) + bottom * wy;
        }
    }
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
    src_path = cache / f"repro_ckernels_{tag}.c"
    src_path.write_text(_C_SOURCE)
    # Build to a unique temp name then rename: concurrent builders (tile
    # pool workers) race benignly, os.replace is atomic.
    fd, tmp_out = tempfile.mkstemp(suffix=".so", dir=str(cache))
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp_out, str(src_path), "-lm"],
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
        if os.path.exists(tmp_out):
            os.unlink(tmp_out)
    return lib_path


class CompiledKernels:
    """numpy-facing wrappers over the compiled kernel library."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        lib.rc_encode_plane.restype = ctypes.c_int64
        lib.rc_decode_plane.restype = ctypes.c_int
        for name in (
            "dwt97_analysis",
            "dwt97_synthesis",
            "dwt53_analysis",
            "dwt53_synthesis",
            "rc_magnitude_histogram",
            "rc_magnitude_histogram_multi",
            "rc_plane_walk_bits",
            "rc_dequantize",
            "rc_dequantize_multi",
            "noise_bilerp",
        ):
            getattr(lib, name).restype = None

    # -- range coder ---------------------------------------------------
    def encode_plane(
        self,
        mag_ptrs: np.ndarray,
        sign_ptrs: np.ndarray,
        sig_ptrs: np.ndarray,
        heights: np.ndarray,
        widths: np.ndarray,
        bases: np.ndarray,
        plane: int,
        count0: np.ndarray,
        count1: np.ndarray,
        total_size: int,
    ) -> bytes:
        """Fused encode of one whole plane across all bands.

        The pointer/shape arrays describe each band's contiguous int64
        magnitudes, uint8 signs, and uint8 significance map (the caller
        builds them once per encode); the significance maps and the
        shared ``count0``/``count1`` context table update in place,
        exactly as the per-decision reference coder would.

        The call mutates coder state, so it cannot be retried with a
        bigger buffer — the cap is a hard bound instead: the range coder
        emits at most 2 bytes per decision (each decision shrinks the
        range by at least 2^-16, each output byte grows it by 2^8) and a
        plane codes at most 2 decisions per coefficient (significance +
        sign, or refinement).
        """
        cap = 4 * total_size + 64
        out = np.empty(cap, dtype=np.uint8)
        written = self._lib.rc_encode_plane(
            ctypes.c_void_p(mag_ptrs.ctypes.data),
            ctypes.c_void_p(sign_ptrs.ctypes.data),
            ctypes.c_void_p(sig_ptrs.ctypes.data),
            ctypes.c_void_p(heights.ctypes.data),
            ctypes.c_void_p(widths.ctypes.data),
            ctypes.c_void_p(bases.ctypes.data),
            ctypes.c_int64(mag_ptrs.size),
            ctypes.c_int64(plane),
            ctypes.c_void_p(count0.ctypes.data),
            ctypes.c_void_p(count1.ctypes.data),
            ctypes.c_void_p(out.ctypes.data),
            ctypes.c_int64(cap),
        )
        if written < 0:  # unreachable by the bound above
            raise RuntimeError("rc_encode_plane output exceeded hard bound")
        return out[:written].tobytes()

    def decode_plane(
        self,
        data: bytes,
        mag_ptrs: np.ndarray,
        sign_ptrs: np.ndarray,
        sig_ptrs: np.ndarray,
        heights: np.ndarray,
        widths: np.ndarray,
        bases: np.ndarray,
        plane: int,
        count0: np.ndarray,
        count1: np.ndarray,
    ) -> bool:
        """Fused decode of one whole plane segment across all bands.

        The mirror of :meth:`encode_plane` over the same pointer/shape
        arrays (int64 magnitudes, uint8 signs and significance maps, all
        zeroed before the first plane): the decoded bits land in those
        arrays and the shared ``count0``/``count1`` table in place.
        Returns False when the decoder ran more than 64 bytes past the
        end of ``data`` (a malformed stream).
        """
        buf = np.frombuffer(data, dtype=np.uint8)
        status = self._lib.rc_decode_plane(
            ctypes.c_void_p(buf.ctypes.data),
            ctypes.c_int64(buf.size),
            ctypes.c_void_p(mag_ptrs.ctypes.data),
            ctypes.c_void_p(sign_ptrs.ctypes.data),
            ctypes.c_void_p(sig_ptrs.ctypes.data),
            ctypes.c_void_p(heights.ctypes.data),
            ctypes.c_void_p(widths.ctypes.data),
            ctypes.c_void_p(bases.ctypes.data),
            ctypes.c_int64(mag_ptrs.size),
            ctypes.c_int64(plane),
            ctypes.c_void_p(count0.ctypes.data),
            ctypes.c_void_p(count1.ctypes.data),
        )
        return status == 0

    # -- DWT lifting ---------------------------------------------------
    def dwt97_analysis(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """9/7 analysis of a contiguous (length, m) float64 array."""
        length, m = x.shape
        even = np.empty(((length + 1) // 2, m), dtype=np.float64)
        odd = np.empty((length // 2, m), dtype=np.float64)
        self._lib.dwt97_analysis(
            ctypes.c_void_p(x.ctypes.data),
            ctypes.c_int64(length),
            ctypes.c_int64(m),
            ctypes.c_void_p(even.ctypes.data),
            ctypes.c_void_p(odd.ctypes.data),
        )
        return even, odd

    def dwt97_synthesis(
        self, approx: np.ndarray, detail: np.ndarray, length: int
    ) -> np.ndarray:
        """9/7 synthesis back to a (length, m) float64 array."""
        m = approx.shape[1]
        out = np.empty((length, m), dtype=np.float64)
        self._lib.dwt97_synthesis(
            ctypes.c_void_p(approx.ctypes.data),
            ctypes.c_void_p(detail.ctypes.data),
            ctypes.c_int64(length),
            ctypes.c_int64(m),
            ctypes.c_void_p(out.ctypes.data),
        )
        return out

    def dwt53_analysis(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """5/3 analysis of a contiguous (length, m) int64 array."""
        length, m = x.shape
        even = np.empty(((length + 1) // 2, m), dtype=np.int64)
        odd = np.empty((length // 2, m), dtype=np.int64)
        self._lib.dwt53_analysis(
            ctypes.c_void_p(x.ctypes.data),
            ctypes.c_int64(length),
            ctypes.c_int64(m),
            ctypes.c_void_p(even.ctypes.data),
            ctypes.c_void_p(odd.ctypes.data),
        )
        return even, odd

    def dwt53_synthesis(
        self, approx: np.ndarray, detail: np.ndarray, length: int
    ) -> np.ndarray:
        """5/3 synthesis back to a (length, m) int64 array."""
        m = approx.shape[1]
        out = np.empty((length, m), dtype=np.int64)
        self._lib.dwt53_synthesis(
            ctypes.c_void_p(approx.ctypes.data),
            ctypes.c_void_p(detail.ctypes.data),
            ctypes.c_int64(length),
            ctypes.c_int64(m),
            ctypes.c_void_p(out.ctypes.data),
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
        stacks: "list[np.ndarray]",
        steps: "list[float]",
        n_bins_cap: int = 64,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`magnitude_histogram` over many subband stacks.

        Each stack must be a contiguous (n_rows, size) float64 array; the
        block results land consecutively in one ``(total_rows,
        n_bins_cap)`` counts matrix and ``(total_rows,)`` tops vector, in
        block order.
        """
        n_blocks = len(stacks)
        ptrs = np.fromiter(
            (s.ctypes.data for s in stacks), dtype=np.int64, count=n_blocks
        )
        rows = np.fromiter(
            (s.shape[0] for s in stacks), dtype=np.int64, count=n_blocks
        )
        sizes = np.fromiter(
            (s.shape[1] for s in stacks), dtype=np.int64, count=n_blocks
        )
        steps_arr = np.fromiter(steps, dtype=np.float64, count=n_blocks)
        total = int(rows.sum())
        counts = np.zeros((total, n_bins_cap), dtype=np.int64)
        tops = np.empty(total, dtype=np.int64)
        self._lib.rc_magnitude_histogram_multi(
            ctypes.c_void_p(ptrs.ctypes.data),
            ctypes.c_void_p(rows.ctypes.data),
            ctypes.c_void_p(sizes.ctypes.data),
            ctypes.c_void_p(steps_arr.ctypes.data),
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

    # -- procedural noise ----------------------------------------------
    def noise_bilerp(
        self,
        lattice: np.ndarray,
        stride: int,
        flat00: np.ndarray,
        ty: np.ndarray,
        tx: np.ndarray,
    ) -> np.ndarray:
        """Bilinear lattice interpolation for one value-noise octave.

        ``lattice`` is the contiguous float64 lattice (raveled indexing),
        ``flat00`` the contiguous (height, width) int64 flat index of each
        pixel's top-left corner, ``ty``/``tx`` the contiguous per-row /
        per-column Hermite weights.  Bit-identical to the numpy broadcast
        blend in :func:`repro.imagery.noise.value_noise`.
        """
        height, width = flat00.shape
        out = np.empty((height, width), dtype=np.float64)
        self._lib.noise_bilerp(
            ctypes.c_void_p(lattice.ctypes.data),
            ctypes.c_int64(stride),
            ctypes.c_void_p(flat00.ctypes.data),
            ctypes.c_void_p(ty.ctypes.data),
            ctypes.c_void_p(tx.ctypes.data),
            ctypes.c_int64(height),
            ctypes.c_int64(width),
            ctypes.c_void_p(out.ctypes.data),
        )
        return out


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
