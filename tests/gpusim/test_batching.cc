/**
 * @file
 * Tests for shape-bucket boundaries in the XLA compile cache and for
 * the batched-dispatch inference model (shared compile, padded
 * execution length, VRAM capacity gating, data-parallel fan-out).
 */

#include <gtest/gtest.h>

#include "gpusim/inference_sim.hh"
#include "util/str.hh"

namespace afsb::gpusim {
namespace {

std::string
bits(double v)
{
    return strformat("%.17g", v);
}

/** Every field of two batched results, doubles as %.17g. */
void
expectSameBatch(const BatchedInferenceResult &a,
                const BatchedInferenceResult &b)
{
    ASSERT_EQ(a.oom, b.oom);
    EXPECT_EQ(a.usedUnifiedMemory, b.usedUnifiedMemory);
    EXPECT_EQ(a.batchSize, b.batchSize);
    EXPECT_EQ(a.execTokens, b.execTokens);
    EXPECT_EQ(a.gpus, b.gpus);
    EXPECT_EQ(bits(a.initSeconds), bits(b.initSeconds));
    EXPECT_EQ(bits(a.compileSeconds), bits(b.compileSeconds));
    EXPECT_EQ(bits(a.gpuComputeSeconds), bits(b.gpuComputeSeconds));
    EXPECT_EQ(bits(a.finalizeSeconds), bits(b.finalizeSeconds));
    EXPECT_EQ(bits(a.usefulFlops), bits(b.usefulFlops));
    EXPECT_EQ(bits(a.paddedFlops), bits(b.paddedFlops));
    EXPECT_EQ(a.deviceStats.kernelsLaunched,
              b.deviceStats.kernelsLaunched);
    EXPECT_EQ(bits(a.deviceStats.flopsExecuted),
              bits(b.deviceStats.flopsExecuted));
    EXPECT_EQ(bits(a.deviceStats.bytesMoved),
              bits(b.deviceStats.bytesMoved));
    EXPECT_EQ(bits(a.deviceStats.busySeconds),
              bits(b.deviceStats.busySeconds));
    EXPECT_EQ(bits(a.deviceStats.launchSeconds),
              bits(b.deviceStats.launchSeconds));
}

// --- Bucket boundaries ------------------------------------------

TEST(BatchingXla, TokensExactlyAtBucketEdge)
{
    XlaCache cache; // default width 64
    // 63 is the last token count in bucket 0; 64 opens bucket 1.
    EXPECT_EQ(cache.bucketOf(63), 0u);
    EXPECT_EQ(cache.bucketOf(64), 1u);
    EXPECT_EQ(cache.paddedTokens(63), 63u);
    EXPECT_EQ(cache.paddedTokens(64), 127u);
    // The padded length stays inside the member's own bucket, so
    // solo and batched dispatches share compile keys.
    EXPECT_EQ(cache.bucketOf(cache.paddedTokens(64)),
              cache.bucketOf(64));
    EXPECT_EQ(cache.paddedTokens(484), 511u);
}

TEST(BatchingXla, WidthOnePadsNothing)
{
    XlaCache cache(1);
    for (size_t t : {size_t(1), size_t(64), size_t(484)}) {
        EXPECT_EQ(cache.bucketOf(t), t);
        EXPECT_EQ(cache.paddedTokens(t), t);
    }
}

TEST(BatchingXla, ZeroWidthClampsToExactShapes)
{
    XlaCache cache(0);
    EXPECT_EQ(cache.bucketTokens(), 1u);
    EXPECT_EQ(cache.paddedTokens(484), 484u);
}

TEST(BatchingXla, MixedSizeStreamHitAccounting)
{
    XlaCache cache; // width 64
    const auto kind = model::LayerKind::SingleAttention;
    // 484, 500, and 511 all land in bucket 7: one compile covers
    // the stream. 512 opens bucket 8 and compiles again.
    EXPECT_FALSE(cache.lookupOrInsert(kind, 484));
    EXPECT_TRUE(cache.lookupOrInsert(kind, 500));
    EXPECT_TRUE(cache.lookupOrInsert(kind, 511));
    EXPECT_FALSE(cache.lookupOrInsert(kind, 512));
    EXPECT_TRUE(cache.lookupOrInsert(kind, 512));
    EXPECT_EQ(cache.size(), 2u);

    // Width 1 treats the same stream as three distinct shapes.
    XlaCache exact(1);
    EXPECT_FALSE(exact.lookupOrInsert(kind, 484));
    EXPECT_FALSE(exact.lookupOrInsert(kind, 500));
    EXPECT_FALSE(exact.lookupOrInsert(kind, 511));
    EXPECT_EQ(exact.size(), 3u);
}

// --- Batched dispatch -------------------------------------------

TEST(BatchingInference, EmptyBatchIsZeroed)
{
    XlaCache cache;
    const auto r = simulateBatchedInference(sys::serverPlatform(),
                                            {}, cache);
    EXPECT_EQ(r.batchSize, 0u);
    EXPECT_FALSE(r.oom);
    EXPECT_DOUBLE_EQ(r.totalSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(r.usefulFlops + r.paddedFlops, 0.0);
}

TEST(BatchingInference, SingletonReproducesSoloBitIdentically)
{
    const auto platform = sys::serverPlatform();
    XlaCache soloCache, batchCache;
    const auto solo = simulateInference(platform, 484, soloCache);
    const auto batched =
        simulateBatchedInference(platform, {484}, batchCache);
    EXPECT_EQ(batched.batchSize, 1u);
    EXPECT_EQ(batched.execTokens, 484u); // native length, unpadded
    EXPECT_DOUBLE_EQ(batched.initSeconds, solo.initSeconds);
    EXPECT_DOUBLE_EQ(batched.compileSeconds, solo.compileSeconds);
    EXPECT_DOUBLE_EQ(batched.gpuComputeSeconds,
                     solo.gpuComputeSeconds);
    EXPECT_DOUBLE_EQ(batched.finalizeSeconds,
                     solo.finalizeSeconds);
    EXPECT_DOUBLE_EQ(batched.paddedFlops, 0.0);
    EXPECT_GT(batched.usefulFlops, 0.0);
}

TEST(BatchingInference, PaddingAccountedSeparately)
{
    const auto platform = sys::serverPlatform();
    XlaCache cache; // width 64: 450 and 484 share bucket 7
    const auto r =
        simulateBatchedInference(platform, {450, 484}, cache);
    EXPECT_EQ(r.batchSize, 2u);
    EXPECT_EQ(r.execTokens, 511u);
    EXPECT_GT(r.usefulFlops, 0.0);
    EXPECT_GT(r.paddedFlops, 0.0);
    EXPECT_GT(r.paddingWasteFraction(), 0.0);
    EXPECT_LT(r.paddingWasteFraction(), 1.0);

    // Width 1 pads nothing, so a uniform batch wastes nothing.
    XlaCache exact(1);
    const auto uniform =
        simulateBatchedInference(platform, {484, 484}, exact);
    EXPECT_EQ(uniform.execTokens, 484u);
    EXPECT_DOUBLE_EQ(uniform.paddedFlops, 0.0);
    EXPECT_DOUBLE_EQ(uniform.paddingWasteFraction(), 0.0);
}

TEST(BatchingInference, SharedCompilePaidOncePerBucket)
{
    const auto platform = sys::serverPlatform();
    XlaCache cache;
    const auto cold =
        simulateBatchedInference(platform, {484, 500}, cache);
    EXPECT_GT(cold.compileSeconds, 0.0);
    // The bucket's executable is now cached: a second batch (and a
    // solo request) in the same bucket compiles nothing.
    const auto warm =
        simulateBatchedInference(platform, {460, 511}, cache);
    EXPECT_DOUBLE_EQ(warm.compileSeconds, 0.0);
    const auto solo = simulateInference(platform, 490, cache);
    EXPECT_DOUBLE_EQ(solo.compileSeconds, 0.0);
}

TEST(BatchingInference, BatchBeatsSequentialSoloDispatches)
{
    const auto platform = sys::serverPlatform();
    InferenceSimOptions options;
    options.gpuAlreadyInitialized = true; // long-lived server

    XlaCache warm;
    (void)simulateInference(platform, 484, warm, options);
    const auto solo =
        simulateInference(platform, 484, warm, options);

    XlaCache batchCache;
    (void)simulateInference(platform, 484, batchCache, options);
    const auto batched = simulateBatchedInference(
        platform, {484, 484}, batchCache, options);
    // One finalize base and one launch ramp across two members.
    EXPECT_LT(batched.totalSeconds(), 2.0 * solo.totalSeconds());
    EXPECT_GT(batched.totalSeconds(), solo.totalSeconds());
}

TEST(BatchingInferenceDeathTest, MembersMustShareABucket)
{
    const auto platform = sys::serverPlatform();
    XlaCache cache; // width 64: 10 is bucket 0, 484 is bucket 7
    EXPECT_DEATH(
        (void)simulateBatchedInference(platform, {10, 484}, cache),
        "span token buckets");
}

TEST(BatchingInference, MaxBatchForVramIsAtLeastOne)
{
    const auto cfg = model::paperConfig();
    // Even an over-VRAM execution length admits one request (it
    // spills or OOMs exactly like the solo path).
    EXPECT_GE(maxBatchForVram(sys::desktopPlatform(), 5120, cfg),
              1u);
    // Shorter execution lengths never admit fewer requests.
    EXPECT_GE(maxBatchForVram(sys::serverPlatform(), 63, cfg),
              maxBatchForVram(sys::serverPlatform(), 511, cfg));
    EXPECT_GE(maxBatchForVram(sys::serverPlatform(), 511, cfg),
              1u);
}

TEST(BatchingInference, OverVramBatchSpillsOrFails)
{
    // 6QNR-scale members on the 16 GiB desktop: unified memory
    // spills, and with it disabled the dispatch is an OOM.
    const auto platform = sys::desktopPlatform();
    XlaCache cache;
    InferenceSimOptions spill;
    const auto spilled = simulateBatchedInference(
        platform, {1395, 1400}, cache, spill);
    EXPECT_FALSE(spilled.oom);
    EXPECT_TRUE(spilled.usedUnifiedMemory);

    InferenceSimOptions strict;
    strict.unifiedMemory = false;
    XlaCache cache2;
    const auto failed = simulateBatchedInference(
        platform, {1395, 1400}, cache2, strict);
    EXPECT_TRUE(failed.oom);
}

TEST(BatchingInference, DataParallelFanOutShrinksGpuPhaseOnly)
{
    const auto platform = sys::serverPlatform();
    XlaCache one, four;
    const std::vector<size_t> members = {484, 484, 484, 484};
    const auto g1 =
        simulateBatchedInference(platform, members, one, {}, 1);
    const auto g4 =
        simulateBatchedInference(platform, members, four, {}, 4);
    EXPECT_EQ(g1.gpus, 1u);
    EXPECT_EQ(g4.gpus, 4u);
    // The GPU phase is the slowest shard; host phases are shared.
    EXPECT_LT(g4.gpuComputeSeconds, g1.gpuComputeSeconds);
    EXPECT_DOUBLE_EQ(g4.compileSeconds, g1.compileSeconds);
    EXPECT_DOUBLE_EQ(g4.finalizeSeconds, g1.finalizeSeconds);
    EXPECT_DOUBLE_EQ(g4.usefulFlops, g1.usefulFlops);
}

TEST(BatchingInference, SharedCacheHitsMatchFreshCaches)
{
    // Bucket 11 on the 16 GiB desktop (execution length 767): a
    // shard of one or two members fits, three or more spill. So the
    // (5, 2) split replays its shard of two under a three-member
    // spill fraction, while (2, 1) replays the same shard size in
    // VRAM — one cache must keep the two apart.
    const auto platform = sys::desktopPlatform();
    XlaCache shared;
    size_t spilled = 0;
    size_t fits = 0;
    for (const char *round : {"fill", "hit"}) {
        for (size_t batch : {1, 2, 5, 8}) {
            for (uint32_t gpus : {1u, 2u, 3u}) {
                for (bool unified : {true, false}) {
                    SCOPED_TRACE(strformat("%s B=%zu gpus=%u unified %d",
                                           round, batch, gpus,
                                           unified));
                    // The head sits on the bucket edge, so a solo
                    // dispatch shares its replay with the batched
                    // shards of one.
                    std::vector<size_t> members;
                    for (size_t i = 0; i < batch; ++i)
                        members.push_back(767 - 7 * i);
                    InferenceSimOptions opt;
                    opt.unifiedMemory = unified;
                    // Cold compile set, warm memo: only the memo
                    // separates the two caches.
                    shared.clear();
                    XlaCache fresh;
                    // Cold, then warm compile.
                    for (int call = 0; call < 2; ++call) {
                        const auto hit = simulateBatchedInference(
                            platform, members, shared, opt, gpus);
                        const auto ref = simulateBatchedInference(
                            platform, members, fresh, opt, gpus);
                        expectSameBatch(hit, ref);
                        (ref.usedUnifiedMemory || ref.oom ? spilled
                                                          : fits) += 1;
                    }
                }
            }
        }
    }
    EXPECT_GT(spilled, 0u);
    EXPECT_GT(fits, 0u);
}

} // namespace
} // namespace afsb::gpusim
