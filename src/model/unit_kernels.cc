#include "model/unit_kernels.hh"

#include <algorithm>
#include <cstring>

#include "tensor/ops.hh"
#include "util/simd.hh"

namespace afsb::model::unitk {

using tensor::gemmAcc;

std::vector<float> &
tlsScratchA()
{
    thread_local std::vector<float> v;
    return v;
}

std::vector<float> &
tlsScratchB()
{
    thread_local std::vector<float> v;
    return v;
}

/* The exp pass carries no reduction so it vectorizes without
 * -ffast-math; four partial sums break the serial float add chain
 * the compiler may not reassociate. The row max runs on integer
 * keys for the same reason: integer max is associative, so the
 * compiler splits it across lanes, while a float max chain stays
 * one dependent compare per logit. */
AFSB_SIMD_CLONES
void
softmaxRowsFast(float *AFSB_RESTRICT m, size_t rows, size_t n)
{
    for (size_t r = 0; r < rows; ++r) {
        float *AFSB_RESTRICT row = m + r * n;
        int32_t key = floatOrderKey(row[0]);
        for (size_t i = 1; i < n; ++i)
            key = std::max(key, floatOrderKey(row[i]));
        const float mx = floatFromOrderKey(key);
        AFSB_VECTORIZE_LOOP
        for (size_t i = 0; i < n; ++i)
            row[i] = fastExpf(row[i] - mx);
        float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
        size_t i = 0;
        for (; i + 4 <= n; i += 4) {
            s0 += row[i];
            s1 += row[i + 1];
            s2 += row[i + 2];
            s3 += row[i + 3];
        }
        for (; i < n; ++i)
            s0 += row[i];
        const float inv = 1.0f / ((s0 + s1) + (s2 + s3));
        AFSB_VECTORIZE_LOOP
        for (size_t i2 = 0; i2 < n; ++i2)
            row[i2] *= inv;
    }
}

void
packTriBiasRows(float *pack, const float *bias, size_t n,
                size_t heads, bool starting, size_t r0, size_t r1)
{
    for (size_t r = r0; r < r1; ++r) {
        const size_t h = r / n;
        const size_t x = r % n;
        float *AFSB_RESTRICT dst = pack + (h * n + x) * n;
        if (starting) {
            const float *AFSB_RESTRICT src =
                bias + x * n * heads + h;
            for (size_t y = 0; y < n; ++y)
                dst[y] = src[y * heads];
        } else {
            const float *AFSB_RESTRICT src = bias + x * heads + h;
            for (size_t y = 0; y < n; ++y)
                dst[y] = src[y * n * heads];
        }
    }
}

void
triAttnUnit(float *ctx, const float *qs, const float *k,
            const float *v, const float *biasPack, size_t n,
            size_t heads, size_t dh, bool starting, size_t u,
            std::vector<float> &ktpScratch,
            std::vector<float> &logitScratch)
{
    const size_t hd = heads * dh;
    ktpScratch.resize(dh * n);
    logitScratch.resize(n * n);
    float *AFSB_RESTRICT ktp = ktpScratch.data();
    float *AFSB_RESTRICT logits = logitScratch.data();

    const size_t line = u / heads;
    const size_t h = u % heads;
    const size_t ho = h * dh;

    // Line bases: starting fixes i = line (unit rows sweep j, logits
    // columns sweep kk along row i); ending fixes j = line (rows
    // sweep i, columns sweep kk down column j).  Row strides through
    // the (N, N, hd) tensors follow.
    const size_t lineBase = starting ? line * n * hd : line * hd;
    const size_t rowStride = starting ? hd : n * hd;

    // K^T slab: ktp[d][kk] = K(kk)[d] for this line/head.
    const float *AFSB_RESTRICT kbase = k + lineBase + ho;
    for (size_t kk = 0; kk < n; ++kk) {
        const float *AFSB_RESTRICT kv = kbase + kk * rowStride;
        for (size_t d = 0; d < dh; ++d)
            ktp[d * n + kk] = kv[d];
    }

    // logits = bias pack, then += Qs * K^T.
    std::memcpy(logits, biasPack + h * n * n, n * n * sizeof(float));
    gemmAcc(qs + lineBase + ho, rowStride, ktp, n, logits, n, n, dh,
            n);

    softmaxRowsFast(logits, n, n);

    // ctx_line += P * V (ctx rows start zeroed).
    gemmAcc(logits, n, v + lineBase + ho, rowStride,
            ctx + lineBase + ho, rowStride, n, n, dh);
}

void
transposeLinesRange(float *dst, const float *src, size_t n, size_t c,
                    size_t i0, size_t i1)
{
    for (size_t i = i0; i < i1; ++i)
        for (size_t k = 0; k < n; ++k)
            std::memcpy(dst + (i * n + k) * c,
                        src + (k * n + i) * c, c * sizeof(float));
}

/* Moved verbatim from layers.cc triangleMultFast: 4 x 16 register
 * accumulator tile held across the whole k sweep; see that history
 * for the full rationale.  One unit = kMultRowTile output lines,
 * each (i, j, ch) accumulated in ascending k by exactly one caller
 * => bit-identical across schedulers. */
AFSB_SIMD_CLONES
void
triMultTile(float *out, const float *AFSB_RESTRICT ap,
            const float *AFSB_RESTRICT bp, size_t n, size_t c,
            size_t u)
{
    constexpr size_t kChanBlock = 16;
    constexpr size_t kColTile = 4;

    const size_t cFull = c - c % kChanBlock;
    const size_t jFull = n - n % kColTile;
    const size_t i0 = u * kMultRowTile;
    const size_t i1 = std::min(n, i0 + kMultRowTile);
    for (size_t ch0 = 0; ch0 < cFull; ch0 += kChanBlock) {
        for (size_t j0 = 0; j0 < jFull; j0 += kColTile) {
            // Named accumulators (not acc[t][e]) so the tile is
            // fully unrolled and register-promoted; a rolled t loop
            // round-trips the tile through the stack every
            // iteration.
            const float *AFSB_RESTRICT b0 =
                bp + (j0 + 0) * n * c + ch0;
            const float *AFSB_RESTRICT b1 =
                bp + (j0 + 1) * n * c + ch0;
            const float *AFSB_RESTRICT b2 =
                bp + (j0 + 2) * n * c + ch0;
            const float *AFSB_RESTRICT b3 =
                bp + (j0 + 3) * n * c + ch0;
            for (size_t i = i0; i < i1; ++i) {
                const float *AFSB_RESTRICT arow =
                    ap + i * n * c + ch0;
                float acc0[kChanBlock] = {};
                float acc1[kChanBlock] = {};
                float acc2[kChanBlock] = {};
                float acc3[kChanBlock] = {};
                for (size_t k = 0; k < n; ++k) {
                    const float *AFSB_RESTRICT av = arow + k * c;
                    const float *AFSB_RESTRICT bv0 = b0 + k * c;
                    const float *AFSB_RESTRICT bv1 = b1 + k * c;
                    const float *AFSB_RESTRICT bv2 = b2 + k * c;
                    const float *AFSB_RESTRICT bv3 = b3 + k * c;
                    AFSB_VECTORIZE_LOOP
                    for (size_t e = 0; e < kChanBlock; ++e) {
                        const float av_e = av[e];
                        acc0[e] += av_e * bv0[e];
                        acc1[e] += av_e * bv1[e];
                        acc2[e] += av_e * bv2[e];
                        acc3[e] += av_e * bv3[e];
                    }
                }
                float *AFSB_RESTRICT orow =
                    out + (i * n + j0) * c + ch0;
                std::memcpy(orow, acc0, kChanBlock * sizeof(float));
                std::memcpy(orow + c, acc1,
                            kChanBlock * sizeof(float));
                std::memcpy(orow + 2 * c, acc2,
                            kChanBlock * sizeof(float));
                std::memcpy(orow + 3 * c, acc3,
                            kChanBlock * sizeof(float));
            }
        }
        // Column tail: j in [jFull, n), one column at a time.
        for (size_t j = jFull; j < n; ++j) {
            const float *AFSB_RESTRICT brow = bp + j * n * c + ch0;
            for (size_t i = i0; i < i1; ++i) {
                const float *AFSB_RESTRICT arow =
                    ap + i * n * c + ch0;
                float acc[kChanBlock] = {};
                for (size_t k = 0; k < n; ++k) {
                    const float *AFSB_RESTRICT av = arow + k * c;
                    const float *AFSB_RESTRICT bv = brow + k * c;
                    AFSB_VECTORIZE_LOOP
                    for (size_t e = 0; e < kChanBlock; ++e)
                        acc[e] += av[e] * bv[e];
                }
                std::memcpy(out + (i * n + j) * c + ch0, acc,
                            kChanBlock * sizeof(float));
            }
        }
    }
    // Channel tail: ch in [cFull, c), runtime-width tile.
    if (cFull < c) {
        const size_t ctail = c - cFull;
        for (size_t i = i0; i < i1; ++i) {
            const float *AFSB_RESTRICT arow = ap + i * n * c + cFull;
            for (size_t j = 0; j < n; ++j) {
                const float *AFSB_RESTRICT brow =
                    bp + j * n * c + cFull;
                float acc[16] = {};
                for (size_t k = 0; k < n; ++k) {
                    const float *AFSB_RESTRICT av = arow + k * c;
                    const float *AFSB_RESTRICT bv = brow + k * c;
                    for (size_t e = 0; e < ctail; ++e)
                        acc[e] += av[e] * bv[e];
                }
                float *AFSB_RESTRICT o =
                    out + (i * n + j) * c + cFull;
                for (size_t e = 0; e < ctail; ++e)
                    o[e] = acc[e];
            }
        }
    }
}

void
singleAttnHead(float *ctx, const float *qs, const float *k,
               const float *v, const float *bias, size_t n,
               size_t heads, size_t dh, size_t h,
               std::vector<float> &ktpScratch,
               std::vector<float> &logitScratch)
{
    const size_t hd = heads * dh;
    ktpScratch.resize(dh * n);
    logitScratch.resize(n * n);
    float *AFSB_RESTRICT ktp = ktpScratch.data();
    float *AFSB_RESTRICT logits = logitScratch.data();

    const size_t ho = h * dh;
    for (size_t j = 0; j < n; ++j) {
        const float *AFSB_RESTRICT kv = k + j * hd + ho;
        for (size_t d = 0; d < dh; ++d)
            ktp[d * n + j] = kv[d];
    }
    for (size_t i = 0; i < n; ++i) {
        float *AFSB_RESTRICT dst = logits + i * n;
        const float *AFSB_RESTRICT src = bias + i * n * heads + h;
        for (size_t j = 0; j < n; ++j)
            dst[j] = src[j * heads];
    }
    gemmAcc(qs + ho, hd, ktp, n, logits, n, n, dh, n);
    softmaxRowsFast(logits, n, n);
    gemmAcc(logits, n, v + ho, hd, ctx + ho, hd, n, n, dh);
}

void
tokenAttnSlab(float *ktp, const float *k, size_t n, size_t heads,
              size_t dh, size_t h)
{
    const size_t hd = heads * dh;
    const size_t ho = h * dh;
    for (size_t j = 0; j < n; ++j) {
        const float *AFSB_RESTRICT kv = k + j * hd + ho;
        for (size_t d = 0; d < dh; ++d)
            ktp[d * n + j] = kv[d];
    }
}

void
tokenAttnRows(float *ctx, const float *qs, const float *ktp,
              const float *v, size_t n, size_t heads, size_t dh,
              size_t h, size_t window, size_t r0, size_t r1,
              std::vector<float> &logitScratch)
{
    const size_t hd = heads * dh;
    const size_t ho = h * dh;
    const size_t rows = r1 - r0;
    if (window == 0) {
        logitScratch.resize(rows * n);
        float *AFSB_RESTRICT logits = logitScratch.data();
        std::fill(logits, logits + rows * n, 0.0f);
        gemmAcc(qs + r0 * hd + ho, hd, ktp, n, logits, n, rows, dh,
                n);
        softmaxRowsFast(logits, rows, n);
        gemmAcc(logits, n, v + ho, hd, ctx + r0 * hd + ho, hd, rows,
                n, dh);
        return;
    }
    logitScratch.resize(window);
    float *AFSB_RESTRICT logits = logitScratch.data();
    for (size_t i = r0; i < r1; ++i) {
        const size_t lo = i > window / 2 ? i - window / 2 : 0;
        const size_t hi = std::min(n, lo + window);
        const size_t len = hi - lo;
        std::fill(logits, logits + len, 0.0f);
        gemmAcc(qs + i * hd + ho, hd, ktp + lo, n, logits, len, 1,
                dh, len);
        softmaxRowsFast(logits, 1, len);
        gemmAcc(logits, len, v + lo * hd + ho, hd,
                ctx + i * hd + ho, hd, 1, len, dh);
    }
}

} // namespace afsb::model::unitk
