/**
 * @file
 * Equivalence and determinism tests for the GEMM-shaped kernel fast
 * paths against the naive reference loops.
 *
 * Contract under test (see layers.hh):
 *  - fast vs naive: <= 1e-4 max relative difference (the fast paths
 *    reorder summations and use fastExpf in the softmax);
 *  - fast path: bit-identical across pool sizes (each work unit is
 *    computed whole by one task) and with/without a workspace arena
 *    (the arena only moves scratch, never changes arithmetic).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "model/diffusion.hh"
#include "model/layers.hh"
#include "model/unit_kernels.hh"
#include "tensor/arena.hh"
#include "util/simd.hh"
#include "util/threadpool.hh"

namespace afsb::model {
namespace {

constexpr double kTol = 1e-4;

struct Shape
{
    size_t n;
    size_t heads;
    size_t dh;
};

/** Odd N (exercises the gemm pair-row tail), heads and head dims
 *  spanning the unroll boundaries. */
const Shape kShapes[] = {
    {9, 1, 8},
    {9, 4, 16},
    {13, 2, 8},
    {13, 4, 16},
};

TEST(FastExpf, TracksStdExp)
{
    for (float x = -30.0f; x <= 30.0f; x += 0.037f) {
        const float ref = std::exp(x);
        EXPECT_NEAR(fastExpf(x), ref, 1e-6f * std::max(1.0f, ref))
            << x;
    }
    EXPECT_EQ(fastExpf(-200.0f), fastExpf(-87.0f));  // clamped
    EXPECT_TRUE(std::isfinite(fastExpf(200.0f)));
}

/** softmaxRowsFast as it was before its row max moved to integer
 *  keys, verbatim: a float std::max chain. */
void
softmaxRowsReplica(float *AFSB_RESTRICT m, size_t rows, size_t n)
{
    for (size_t r = 0; r < rows; ++r) {
        float *AFSB_RESTRICT row = m + r * n;
        float mx = row[0];
        for (size_t i = 1; i < n; ++i)
            mx = std::max(mx, row[i]);
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

/** n-wide rows that probe the integer-key row max: signed zeros,
 *  infinities, logits at fastExpf's -87/-88 clamp edges, and the
 *  row maximum in every tail slot past the last full 8-lane block.
 *  No row contains a NaN. */
std::vector<float>
rowMaxProbeRows(size_t n, Rng &rng)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    std::vector<float> rows;
    auto addRow = [&](auto &&value) {
        for (size_t i = 0; i < n; ++i)
            rows.push_back(value(i));
    };
    auto gauss = [&](float scale) {
        return [&rng, scale](size_t) {
            return scale * static_cast<float>(rng.nextGaussian());
        };
    };

    addRow(gauss(1.0f));
    addRow(gauss(40.0f));
    addRow([&](size_t) {
        return -1.0f - std::abs(static_cast<float>(rng.nextGaussian()));
    });
    // Signed zeros: -0 before +0 at the zero maximum, all -0, all
    // +0, and a zero maximum with negative logits around it.
    addRow([](size_t i) { return i % 2 ? 0.0f : -0.0f; });
    addRow([](size_t i) { return i % 2 ? -0.0f : 0.0f; });
    addRow([](size_t) { return -0.0f; });
    addRow([](size_t) { return 0.0f; });
    addRow([&](size_t i) {
        return i == 0 ? -0.0f
                      : i + 1 == n ? 0.0f
                                   : -std::abs(static_cast<float>(
                                         rng.nextGaussian()));
    });
    // Infinities: +inf leading or trailing, -inf around a finite
    // maximum, all -inf, and both signs together.
    addRow([&](size_t i) { return i == 0 ? kInf : 1.0f; });
    addRow([&](size_t i) { return i + 1 == n ? kInf : -1.0f; });
    addRow([&](size_t i) { return i == n / 2 ? 3.0f : -kInf; });
    addRow([&](size_t) { return -kInf; });
    addRow([&](size_t i) { return i % 3 == 1 ? kInf : -kInf; });
    // Clamp edges: logit - max lands on either side of -87 and -88,
    // with the maximum at 0 and at 88.
    const float edges[] = {-86.99999f, -87.0f,     -87.00001f,
                           -87.5f,     -87.99999f, -88.0f,
                           -88.00001f, -200.0f};
    for (float top : {0.0f, 88.0f}) {
        addRow([&](size_t i) {
            return i == 0 ? top : top + edges[i % 8];
        });
        addRow([&](size_t i) {
            return i + 1 == n ? top : edges[(i + 3) % 8];
        });
    }
    // Maximum in each tail slot past the last full 8-lane block (for
    // n < 8 every slot is tail).
    for (size_t p = n - n % 8; p < n; ++p) {
        addRow([&](size_t i) {
            return i == p ? 50.0f
                          : static_cast<float>(rng.nextGaussian());
        });
    }
    return rows;
}

/* The row max runs on order-preserving integer keys; this pins
 * softmaxRowsFast to the float-max replica byte for byte on NaN-free
 * rows. The replica compiles at the test's baseline ISA, so on an
 * AVX2 host this also compares the AVX2 clone against the baseline
 * arithmetic. */
TEST(SoftmaxRowsFast, RowMaxBitIdenticalToFloatMaxReplica)
{
    Rng rng(67);
    std::vector<size_t> widths;
    for (size_t n = 1; n <= 17; ++n)
        widths.push_back(n);
    widths.push_back(64);
    widths.push_back(310);
    for (size_t n : widths) {
        const std::vector<float> in = rowMaxProbeRows(n, rng);
        const size_t rows = in.size() / n;
        std::vector<float> fast = in, ref = in;
        unitk::softmaxRowsFast(fast.data(), rows, n);
        softmaxRowsReplica(ref.data(), rows, n);
        for (size_t r = 0; r < rows; ++r)
            EXPECT_EQ(std::memcmp(fast.data() + r * n,
                                  ref.data() + r * n,
                                  n * sizeof(float)),
                      0)
                << "n " << n << " row " << r;
    }
}

TEST(TriangleAttentionOpt, MatchesNaive)
{
    for (const auto &s : kShapes) {
        const size_t hd = s.heads * s.dh;
        Rng rng(61);
        const Tensor q = Tensor::randomNormal({s.n, s.n, hd}, rng);
        const Tensor k = Tensor::randomNormal({s.n, s.n, hd}, rng);
        const Tensor v = Tensor::randomNormal({s.n, s.n, hd}, rng);
        const Tensor bias =
            Tensor::randomNormal({s.n, s.n, s.heads}, rng);
        for (bool starting : {true, false}) {
            const Tensor ref = triangleAttentionCore(
                q, k, v, bias, s.heads, s.dh, starting, true);
            const Tensor fast = triangleAttentionCore(
                q, k, v, bias, s.heads, s.dh, starting, false);
            EXPECT_LT(tensor::maxRelDiff(fast, ref), kTol)
                << "n=" << s.n << " heads=" << s.heads
                << " dh=" << s.dh << " starting=" << starting;

            ThreadPool pool(3);
            const Tensor pooled = triangleAttentionCore(
                q, k, v, bias, s.heads, s.dh, starting, false,
                &pool);
            EXPECT_LT(tensor::maxRelDiff(pooled, ref), kTol);
        }
    }
}

TEST(TriangleMultOpt, MatchesNaive)
{
    for (size_t n : {9u, 13u}) {
        for (size_t c : {8u, 16u}) {
            Rng rng(62);
            const Tensor a = Tensor::randomNormal({n, n, c}, rng);
            const Tensor b = Tensor::randomNormal({n, n, c}, rng);
            for (bool outgoing : {true, false}) {
                const Tensor ref =
                    triangleMultEinsum(a, b, outgoing, true);
                const Tensor fast =
                    triangleMultEinsum(a, b, outgoing, false);
                EXPECT_LT(tensor::maxRelDiff(fast, ref), kTol)
                    << "n=" << n << " c=" << c
                    << " outgoing=" << outgoing;

                ThreadPool pool(3);
                const Tensor pooled = triangleMultEinsum(
                    a, b, outgoing, false, &pool);
                EXPECT_LT(tensor::maxRelDiff(pooled, ref), kTol);
            }
        }
    }
}

TEST(SingleAttentionOpt, MatchesNaive)
{
    for (const auto &s : kShapes) {
        const size_t hd = s.heads * s.dh;
        Rng rng(63);
        const Tensor q = Tensor::randomNormal({s.n, hd}, rng);
        const Tensor k = Tensor::randomNormal({s.n, hd}, rng);
        const Tensor v = Tensor::randomNormal({s.n, hd}, rng);
        const Tensor bias =
            Tensor::randomNormal({s.n, s.n, s.heads}, rng);
        const Tensor ref = singleAttentionCore(q, k, v, bias,
                                               s.heads, s.dh, true);
        const Tensor fast = singleAttentionCore(
            q, k, v, bias, s.heads, s.dh, false);
        EXPECT_LT(tensor::maxRelDiff(fast, ref), kTol)
            << "n=" << s.n << " heads=" << s.heads
            << " dh=" << s.dh;

        ThreadPool pool(3);
        const Tensor pooled = singleAttentionCore(
            q, k, v, bias, s.heads, s.dh, false, &pool);
        EXPECT_LT(tensor::maxRelDiff(pooled, ref), kTol);
    }
}

TEST(TokenAttentionOpt, MatchesNaiveGlobalAndLocal)
{
    for (const auto &s : kShapes) {
        ModelConfig cfg = miniConfig();
        cfg.heads = s.heads;
        cfg.headDim = s.dh;
        const size_t ct = 24;
        Rng rng(64);
        const auto w = AttnBlockWeights::init(ct, cfg, rng);
        const Tensor h0 = Tensor::randomNormal({s.n, ct}, rng);
        for (size_t window : {size_t{0}, size_t{4}}) {
            Tensor ref = h0;
            ModelConfig naiveCfg = cfg;
            naiveCfg.forceNaive = true;
            tokenAttention(ref, w, naiveCfg, window);

            Tensor fast = h0;
            tokenAttention(fast, w, cfg, window);
            EXPECT_LT(tensor::maxRelDiff(fast, ref), kTol)
                << "n=" << s.n << " heads=" << s.heads
                << " dh=" << s.dh << " window=" << window;

            ThreadPool pool(3);
            ModelConfig pooled = cfg;
            pooled.pool = &pool;
            Tensor fastPool = h0;
            tokenAttention(fastPool, w, pooled, window);
            EXPECT_TRUE(fastPool == fast)
                << "pooled token attention diverged";
        }
    }
}

TEST(FastPathDeterminism, BitIdenticalAcrossPoolSizes)
{
    const size_t n = 13, heads = 4, dh = 16, hd = heads * dh;
    Rng rng(65);
    const Tensor q = Tensor::randomNormal({n, n, hd}, rng);
    const Tensor k = Tensor::randomNormal({n, n, hd}, rng);
    const Tensor v = Tensor::randomNormal({n, n, hd}, rng);
    const Tensor bias = Tensor::randomNormal({n, n, heads}, rng);
    const Tensor a = Tensor::randomNormal({n, n, 16}, rng);
    const Tensor b = Tensor::randomNormal({n, n, 16}, rng);

    const Tensor attnSerial = triangleAttentionCore(
        q, k, v, bias, heads, dh, true, false);
    const Tensor multSerial =
        triangleMultEinsum(a, b, false, false);
    for (size_t threads : {1u, 2u, 5u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_TRUE(triangleAttentionCore(q, k, v, bias, heads, dh,
                                          true, false,
                                          &pool) == attnSerial)
            << threads << " threads";
        EXPECT_TRUE(triangleMultEinsum(a, b, false, false,
                                       &pool) == multSerial)
            << threads << " threads";
    }
}

TEST(FastPathDeterminism, BitIdenticalWithArena)
{
    const size_t n = 9, heads = 2, dh = 8, hd = heads * dh;
    Rng rng(66);
    const Tensor q = Tensor::randomNormal({n, n, hd}, rng);
    const Tensor k = Tensor::randomNormal({n, n, hd}, rng);
    const Tensor v = Tensor::randomNormal({n, n, hd}, rng);
    const Tensor bias = Tensor::randomNormal({n, n, heads}, rng);

    const Tensor noArena = triangleAttentionCore(
        q, k, v, bias, heads, dh, false, false);
    tensor::Arena arena;
    for (int round = 0; round < 2; ++round) {
        tensor::Arena::Scope scope(&arena);
        const Tensor withArena = triangleAttentionCore(
            q, k, v, bias, heads, dh, false, false, nullptr,
            &arena);
        EXPECT_TRUE(withArena == noArena) << "round " << round;
    }
}

TEST(LayerArena, FullLayersBitIdenticalWithArena)
{
    ModelConfig cfg = miniConfig();
    cfg.pairDim = 8;
    cfg.singleDim = 12;
    cfg.heads = 2;
    cfg.headDim = 4;
    Rng rng(67);
    const Tensor pair0 =
        Tensor::randomNormal({10, 10, cfg.pairDim}, rng);
    const Tensor single0 =
        Tensor::randomNormal({10, cfg.singleDim}, rng);
    const auto wMult = TriangleMultWeights::init(cfg, rng);
    const auto wAttn = TriangleAttnWeights::init(cfg, rng);
    const auto wTrans = TransitionWeights::init(cfg.pairDim, rng);
    const auto wSingle = SingleAttnWeights::init(cfg, rng);

    Tensor pairRef = pair0;
    Tensor singleRef = single0;
    triangleMultiplicativeUpdate(pairRef, wMult, cfg, true);
    triangleAttention(pairRef, wAttn, cfg, true);
    pairTransition(pairRef, wTrans);
    singleAttentionWithPairBias(singleRef, pairRef, wSingle, cfg);

    tensor::Arena arena;
    ModelConfig withArena = cfg;
    withArena.arena = &arena;
    Tensor pairA = pair0;
    Tensor singleA = single0;
    triangleMultiplicativeUpdate(pairA, wMult, withArena, true);
    triangleAttention(pairA, wAttn, withArena, true);
    pairTransition(pairA, wTrans, nullptr, &arena);
    singleAttentionWithPairBias(singleA, pairA, wSingle, withArena);

    EXPECT_TRUE(pairA == pairRef);
    EXPECT_TRUE(singleA == singleRef);
    // Every layer scope rewound: nothing may stay live.
    EXPECT_EQ(arena.liveFloats(), 0u);
    EXPECT_GT(arena.highWaterFloats(), 0u);
}

TEST(LayerArena, DiffusionSampleBitIdenticalWithArena)
{
    ModelConfig cfg = miniConfig();
    cfg.pairDim = 8;
    cfg.singleDim = 12;
    cfg.heads = 2;
    cfg.headDim = 4;
    cfg.diffusionTokenDim = 16;
    cfg.diffusionSteps = 2;
    cfg.diffusionBlocks = 1;
    cfg.globalBlocks = 1;
    Rng rngState(68);
    PairState state;
    state.pair = Tensor::randomNormal({10, 10, cfg.pairDim},
                                      rngState);
    state.single =
        Tensor::randomNormal({10, cfg.singleDim}, rngState);

    Rng rngInit(69);
    const DiffusionModule plain(cfg, rngInit);
    Rng noiseA(70);
    const auto ref = plain.sample(state, noiseA);

    tensor::Arena arena;
    ModelConfig withArena = cfg;
    withArena.arena = &arena;
    Rng rngInit2(69);
    const DiffusionModule arenaMod(withArena, rngInit2);
    Rng noiseB(70);
    const auto got = arenaMod.sample(state, noiseB);
    EXPECT_TRUE(got.coords == ref.coords);
    EXPECT_EQ(arena.liveFloats(), 0u);
}

} // namespace
} // namespace afsb::model
