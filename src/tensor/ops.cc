#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>

#include "tensor/arena.hh"
#include "util/grain.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "util/threadpool.hh"

namespace afsb::tensor {

namespace {

/** Rows per parallel task (shared flop-budget policy). */
inline size_t
rowGrain(size_t flops_per_row)
{
    return grain::forFlops(flops_per_row);
}

/**
 * Output-column tile width (floats) for the GEMM-style kernels: the
 * C-row tile (2 KiB) plus eight streaming B-row tiles stay L1-resident
 * for the whole K sweep.
 */
constexpr size_t kColTile = 512;

/**
 * crow[0..n) += A-row * B over k terms, K unrolled 8-wide so every
 * C element is loaded and stored once per eight MACs, and column-tiled
 * so the accumulator tile stays cache-hot. Branch-free: zero A values
 * multiply through instead of branching — the old
 * `if (av == 0.0f) continue;` zero-skip blocked vectorization and
 * mispredicted on dense weights. B rows are @p bstride floats apart
 * (== n for a dense row-major B, wider for packed sub-matrices).
 */
inline void
accumulateRow(const float *AFSB_RESTRICT arow,
              const float *AFSB_RESTRICT b, float *AFSB_RESTRICT crow,
              size_t k, size_t n, size_t bstride)
{
    for (size_t j0 = 0; j0 < n; j0 += kColTile) {
        const size_t j1 = std::min(n, j0 + kColTile);
        size_t kk = 0;
        for (; kk + 8 <= k; kk += 8) {
            const float a0 = arow[kk], a1 = arow[kk + 1];
            const float a2 = arow[kk + 2], a3 = arow[kk + 3];
            const float a4 = arow[kk + 4], a5 = arow[kk + 5];
            const float a6 = arow[kk + 6], a7 = arow[kk + 7];
            const float *AFSB_RESTRICT b0 = b + kk * bstride;
            const float *AFSB_RESTRICT b1 = b0 + bstride;
            const float *AFSB_RESTRICT b2 = b1 + bstride;
            const float *AFSB_RESTRICT b3 = b2 + bstride;
            const float *AFSB_RESTRICT b4 = b3 + bstride;
            const float *AFSB_RESTRICT b5 = b4 + bstride;
            const float *AFSB_RESTRICT b6 = b5 + bstride;
            const float *AFSB_RESTRICT b7 = b6 + bstride;
            AFSB_VECTORIZE_LOOP
            for (size_t j = j0; j < j1; ++j)
                crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] +
                           a3 * b3[j] + a4 * b4[j] + a5 * b5[j] +
                           a6 * b6[j] + a7 * b7[j];
        }
        for (; kk < k; ++kk) {
            const float av = arow[kk];
            const float *AFSB_RESTRICT brow = b + kk * bstride;
            AFSB_VECTORIZE_LOOP
            for (size_t j = j0; j < j1; ++j)
                crow[j] += av * brow[j];
        }
    }
}

/**
 * Two-row variant: rows 2t and 2t+1 share every B-row load, doubling
 * the arithmetic intensity of the K sweep. Each output row's own
 * accumulation is the same expression as the single-row kernel — the
 * paired row never mixes in.
 */
inline void
accumulateRowPair(const float *AFSB_RESTRICT arow0,
                  const float *AFSB_RESTRICT arow1,
                  const float *AFSB_RESTRICT b,
                  float *AFSB_RESTRICT c0, float *AFSB_RESTRICT c1,
                  size_t k, size_t n, size_t bstride)
{
    for (size_t j0 = 0; j0 < n; j0 += kColTile) {
        const size_t j1 = std::min(n, j0 + kColTile);
        size_t kk = 0;
        for (; kk + 8 <= k; kk += 8) {
            const float a00 = arow0[kk], a01 = arow0[kk + 1];
            const float a02 = arow0[kk + 2], a03 = arow0[kk + 3];
            const float a04 = arow0[kk + 4], a05 = arow0[kk + 5];
            const float a06 = arow0[kk + 6], a07 = arow0[kk + 7];
            const float a10 = arow1[kk], a11 = arow1[kk + 1];
            const float a12 = arow1[kk + 2], a13 = arow1[kk + 3];
            const float a14 = arow1[kk + 4], a15 = arow1[kk + 5];
            const float a16 = arow1[kk + 6], a17 = arow1[kk + 7];
            const float *AFSB_RESTRICT b0 = b + kk * bstride;
            const float *AFSB_RESTRICT b1 = b0 + bstride;
            const float *AFSB_RESTRICT b2 = b1 + bstride;
            const float *AFSB_RESTRICT b3 = b2 + bstride;
            const float *AFSB_RESTRICT b4 = b3 + bstride;
            const float *AFSB_RESTRICT b5 = b4 + bstride;
            const float *AFSB_RESTRICT b6 = b5 + bstride;
            const float *AFSB_RESTRICT b7 = b6 + bstride;
            AFSB_VECTORIZE_LOOP
            for (size_t j = j0; j < j1; ++j) {
                c0[j] += a00 * b0[j] + a01 * b1[j] + a02 * b2[j] +
                         a03 * b3[j] + a04 * b4[j] + a05 * b5[j] +
                         a06 * b6[j] + a07 * b7[j];
                c1[j] += a10 * b0[j] + a11 * b1[j] + a12 * b2[j] +
                         a13 * b3[j] + a14 * b4[j] + a15 * b5[j] +
                         a16 * b6[j] + a17 * b7[j];
            }
        }
        for (; kk < k; ++kk) {
            const float a0v = arow0[kk], a1v = arow1[kk];
            const float *AFSB_RESTRICT brow = b + kk * bstride;
            AFSB_VECTORIZE_LOOP
            for (size_t j = j0; j < j1; ++j) {
                c0[j] += a0v * brow[j];
                c1[j] += a1v * brow[j];
            }
        }
    }
}

/** Run fn(begin, end) over [0, rows), parallel when a pool is given.
 *  Rows are statically owned by whichever task receives them, so the
 *  result is identical to fn(0, rows). */
inline void
forRows(size_t rows, size_t flops_per_row, ThreadPool *pool,
        const std::function<void(size_t, size_t)> &fn)
{
    if (pool)
        pool->parallelFor(rows, rowGrain(flops_per_row), fn);
    else
        fn(0, rows);
}

/** forRows with the block grain rounded up to a multiple of
 *  @p align: blocks then always start on an align-multiple row, so
 *  row grouping inside the GEMM kernels is a function of the
 *  absolute row index alone — which kernel (paired or single)
 *  computes a given row never depends on the pool size, keeping
 *  parallel results bit-identical to serial. */
inline void
forRowsAligned(size_t rows, size_t flops_per_row, size_t align,
               ThreadPool *pool,
               const std::function<void(size_t, size_t)> &fn)
{
    if (pool) {
        pool->parallelFor(
            rows, grain::forFlopsAligned(flops_per_row, align), fn);
    } else {
        fn(0, rows);
    }
}

/** Row sweep for the GEMM kernels: pairs first, then a single-row
 *  tail. Callers must hand in align-2 blocks (forRowsAligned) so the
 *  pairing is position-independent. Always inlined, so each
 *  AFSB_SIMD_CLONES caller compiles the sweep at its own width. */
[[gnu::always_inline]] inline void
gemmRows(const float *a, size_t astride, const float *b,
         size_t bstride, float *c, size_t cstride, size_t k, size_t n,
         size_t r0, size_t r1)
{
    size_t i = r0;
    for (; i + 2 <= r1; i += 2)
        accumulateRowPair(a + i * astride, a + (i + 1) * astride, b,
                          c + i * cstride, c + (i + 1) * cstride, k,
                          n, bstride);
    if (i < r1)
        accumulateRow(a + i * astride, b, c + i * cstride, k, n,
                      bstride);
}

} // namespace

AFSB_SIMD_CLONES
void
gemmAcc(const float *a, size_t astride, const float *b,
        size_t bstride, float *c, size_t cstride, size_t m, size_t k,
        size_t n)
{
    gemmRows(a, astride, b, bstride, c, cstride, k, n, 0, m);
}

// Ahead of linear(), its caller (see AFSB_SIMD_CLONES).
namespace rowops {

AFSB_SIMD_CLONES
void
linearRows(const float *x, const float *w, const float *bias,
           float *y, size_t in, size_t out, size_t r0, size_t r1)
{
    if (bias) {
        for (size_t r = r0; r < r1; ++r) {
            float *AFSB_RESTRICT yo = y + r * out;
            const float *AFSB_RESTRICT bp = bias;
            AFSB_VECTORIZE_LOOP
            for (size_t o = 0; o < out; ++o)
                yo[o] = bp[o];
        }
    } else {
        for (size_t r = r0; r < r1; ++r) {
            float *AFSB_RESTRICT yo = y + r * out;
            AFSB_VECTORIZE_LOOP
            for (size_t o = 0; o < out; ++o)
                yo[o] = 0.0f;
        }
    }
    gemmRows(x, in, w, out, y, out, in, out, r0, r1);
}

} // namespace rowops

Tensor
matmul(const Tensor &a, const Tensor &b, ThreadPool *pool,
       Arena *arena)
{
    panicIf(a.rank() != 2 || b.rank() != 2, "matmul: rank-2 only");
    const size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    panicIf(b.dim(0) != k, "matmul: inner dims differ");

    Tensor c = Tensor::zeros({m, n}, arena);
    forRowsAligned(m, 2 * k * n, 2, pool, [&](size_t r0, size_t r1) {
        gemmRows(a.data(), k, b.data(), n, c.data(), n, k, n, r0,
                 r1);
    });
    return c;
}

Tensor
linear(const Tensor &x, const Tensor &w, const Tensor &b,
       ThreadPool *pool, Arena *arena)
{
    panicIf(w.rank() != 2, "linear: weight must be rank 2");
    const size_t in = w.dim(0), out = w.dim(1);
    panicIf(x.dim(x.rank() - 1) != in, "linear: input dim mismatch");
    panicIf(b.rank() != 1 || b.dim(0) != out,
            "linear: bias dim mismatch");

    std::vector<size_t> outShape = x.shape();
    outShape.back() = out;
    Tensor y = Tensor::uninitialized(std::move(outShape), arena);

    const size_t rows = x.size() / in;
    forRowsAligned(rows, 2 * in * out, 2, pool,
                   [&](size_t r0, size_t r1) {
        rowops::linearRows(x.data(), w.data(), b.data(), y.data(),
                           in, out, r0, r1);
    });
    return y;
}

Tensor
linear(const Tensor &x, const Tensor &w, ThreadPool *pool,
       Arena *arena)
{
    panicIf(w.rank() != 2, "linear: weight must be rank 2");
    const size_t in = w.dim(0), out = w.dim(1);
    panicIf(x.dim(x.rank() - 1) != in, "linear: input dim mismatch");

    std::vector<size_t> outShape = x.shape();
    outShape.back() = out;
    Tensor y = Tensor::uninitialized(std::move(outShape), arena);

    const size_t rows = x.size() / in;
    forRowsAligned(rows, 2 * in * out, 2, pool,
                   [&](size_t r0, size_t r1) {
        rowops::linearRows(x.data(), w.data(), nullptr, y.data(),
                           in, out, r0, r1);
    });
    return y;
}

Tensor
softmax(const Tensor &x, ThreadPool *pool, Arena *arena)
{
    const size_t d = x.dim(x.rank() - 1);
    Tensor y = Tensor::uninitialized(x.shape(), arena);
    const size_t rows = x.size() / d;
    forRows(rows, 8 * d, pool, [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
            const float *AFSB_RESTRICT src = x.data() + r * d;
            float *AFSB_RESTRICT row = y.data() + r * d;
            float mx = src[0];
            for (size_t i = 1; i < d; ++i)
                mx = std::max(mx, src[i]);
            float sum = 0.0f;
            for (size_t i = 0; i < d; ++i) {
                row[i] = std::exp(src[i] - mx);
                sum += row[i];
            }
            const float inv = 1.0f / sum;
            AFSB_VECTORIZE_LOOP
            for (size_t i = 0; i < d; ++i)
                row[i] *= inv;
        }
    });
    return y;
}

Tensor
layerNorm(const Tensor &x, float eps, ThreadPool *pool, Arena *arena)
{
    const size_t d = x.dim(x.rank() - 1);
    Tensor y = Tensor::uninitialized(x.shape(), arena);
    const size_t rows = x.size() / d;
    forRows(rows, 6 * d, pool, [&](size_t r0, size_t r1) {
        rowops::layerNormRows(x.data(), y.data(), d, eps, r0, r1);
    });
    return y;
}

Tensor
gelu(const Tensor &x, Arena *arena)
{
    Tensor y = Tensor::uninitialized(x.shape(), arena);
    rowops::geluRange(x.data(), y.data(), 0, y.size());
    return y;
}

Tensor
sigmoid(const Tensor &x, Arena *arena)
{
    Tensor y = Tensor::uninitialized(x.shape(), arena);
    rowops::sigmoidRange(x.data(), y.data(), 0, y.size());
    return y;
}

Tensor
relu(const Tensor &x, Arena *arena)
{
    Tensor y = Tensor::uninitialized(x.shape(), arena);
    for (size_t i = 0; i < y.size(); ++i)
        y[i] = std::max(0.0f, x[i]);
    return y;
}

Tensor
add(const Tensor &a, const Tensor &b, Arena *arena)
{
    panicIf(a.shape() != b.shape(), "add: shape mismatch");
    Tensor c = Tensor::uninitialized(a.shape(), arena);
    for (size_t i = 0; i < c.size(); ++i)
        c[i] = a[i] + b[i];
    return c;
}

Tensor
mul(const Tensor &a, const Tensor &b, Arena *arena)
{
    panicIf(a.shape() != b.shape(), "mul: shape mismatch");
    Tensor c = Tensor::uninitialized(a.shape(), arena);
    rowops::mulRange(a.data(), b.data(), c.data(), 0, c.size());
    return c;
}

Tensor
scale(const Tensor &a, float s, Arena *arena)
{
    Tensor c = Tensor::uninitialized(a.shape(), arena);
    rowops::scaleRange(a.data(), c.data(), s, 0, c.size());
    return c;
}

void
addInPlace(Tensor &a, const Tensor &b)
{
    panicIf(a.shape() != b.shape(), "addInPlace: shape mismatch");
    rowops::addRange(a.data(), b.data(), 0, a.size());
}

Tensor
transpose(const Tensor &a)
{
    panicIf(a.rank() != 2, "transpose: rank-2 only");
    Tensor t({a.dim(1), a.dim(0)});
    for (size_t i = 0; i < a.dim(0); ++i)
        for (size_t j = 0; j < a.dim(1); ++j)
            t.at(j, i) = a.at(i, j);
    return t;
}

double
meanAbsDiff(const Tensor &a, const Tensor &b)
{
    panicIf(a.shape() != b.shape(), "meanAbsDiff: shape mismatch");
    double s = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        s += std::abs(static_cast<double>(a[i]) - b[i]);
    return a.size() ? s / static_cast<double>(a.size()) : 0.0;
}

namespace rowops {

void
layerNormRows(const float *x, float *y, size_t d, float eps,
              size_t r0, size_t r1)
{
    for (size_t r = r0; r < r1; ++r) {
        const float *AFSB_RESTRICT src = x + r * d;
        float *AFSB_RESTRICT row = y + r * d;
        float mean = 0.0f;
        for (size_t i = 0; i < d; ++i)
            mean += src[i];
        mean /= static_cast<float>(d);
        float var = 0.0f;
        for (size_t i = 0; i < d; ++i) {
            const float c = src[i] - mean;
            var += c * c;
        }
        var /= static_cast<float>(d);
        const float inv = 1.0f / std::sqrt(var + eps);
        AFSB_VECTORIZE_LOOP
        for (size_t i = 0; i < d; ++i)
            row[i] = (src[i] - mean) * inv;
    }
}

void
sigmoidRange(const float *x, float *y, size_t i0, size_t i1)
{
    for (size_t i = i0; i < i1; ++i)
        y[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

void
geluRange(const float *x, float *y, size_t i0, size_t i1)
{
    constexpr float c = 0.7978845608f;  // sqrt(2/pi)
    for (size_t i = i0; i < i1; ++i) {
        const float v = x[i];
        y[i] = 0.5f * v *
               (1.0f + std::tanh(c * (v + 0.044715f * v * v * v)));
    }
}

void
mulRange(const float *a, const float *b, float *c, size_t i0,
         size_t i1)
{
    for (size_t i = i0; i < i1; ++i)
        c[i] = a[i] * b[i];
}

void
addRange(float *a, const float *b, size_t i0, size_t i1)
{
    for (size_t i = i0; i < i1; ++i)
        a[i] += b[i];
}

void
scaleRange(const float *x, float *y, float s, size_t i0, size_t i1)
{
    for (size_t i = i0; i < i1; ++i)
        y[i] = x[i] * s;
}

} // namespace rowops

double
maxRelDiff(const Tensor &a, const Tensor &b)
{
    panicIf(a.shape() != b.shape(), "maxRelDiff: shape mismatch");
    double worst = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        const double ref = std::max(1.0, std::abs(
                                             static_cast<double>(b[i])));
        worst = std::max(
            worst,
            std::abs(static_cast<double>(a[i]) - b[i]) / ref);
    }
    return worst;
}

} // namespace afsb::tensor
