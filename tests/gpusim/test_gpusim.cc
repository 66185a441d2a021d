/**
 * @file
 * Tests for the GPU device model, XLA phase model, and the full
 * inference simulation (Fig 8/9, Table V/VI shapes).
 */

#include <gtest/gtest.h>

#include "gpusim/inference_sim.hh"
#include "gpusim/init_profile.hh"
#include "opgraph/build.hh"
#include "util/units.hh"

namespace afsb::gpusim {
namespace {

TEST(GpuDevice, RooflineRegimes)
{
    GpuDevice dev(sys::desktopPlatform().gpu);
    // Compute-bound: huge flops, tiny bytes.
    const double tCompute = dev.executeKernel(1e13, 1e6);
    EXPECT_GT(tCompute, 0.9 * 1e13 / dev.spec().peakFlops);
    // Bandwidth-bound: tiny flops, huge bytes.
    const double tMem = dev.executeKernel(1e6, 7.17e9);
    EXPECT_NEAR(tMem, 1e6 / dev.achievableFlops(1e6) < 0.01
                          ? 0.01 + dev.spec().kernelLaunchUs * 1e-6
                          : tMem,
                1.0);
    EXPECT_GT(tMem, 0.009);
}

TEST(GpuDevice, SmallKernelsAreLaunchBound)
{
    GpuDevice dev(sys::serverPlatform().gpu);
    // A kernel with negligible work costs about one launch plus
    // the ~2 us wave-quantization ramp.
    const double t = dev.executeKernel(1e3, 1e3);
    EXPECT_NEAR(t, dev.spec().kernelLaunchUs * 1e-6, 3e-6);
}

TEST(GpuDevice, EfficiencyRampsWithKernelSize)
{
    GpuDevice dev(sys::serverPlatform().gpu);
    EXPECT_LT(dev.achievableFlops(1e8), dev.achievableFlops(1e12));
    EXPECT_LT(dev.achievableFlops(1e12),
              dev.spec().peakFlops + 1.0);
}

TEST(GpuDevice, UnifiedMemoryPenalizesBandwidth)
{
    GpuDevice dev(sys::desktopPlatform().gpu);
    const double normal = dev.executeKernel(1e6, 1e9, false);
    const double spilled = dev.executeKernel(1e6, 1e9, true);
    EXPECT_GT(spilled, 3.0 * normal);
}

TEST(GpuDevice, StatsAccumulate)
{
    GpuDevice dev(sys::serverPlatform().gpu);
    dev.executeKernel(1e9, 1e6);
    dev.executeKernel(1e9, 1e6);
    EXPECT_EQ(dev.stats().kernelsLaunched, 2u);
    EXPECT_DOUBLE_EQ(dev.stats().flopsExecuted, 2e9);
}

TEST(XlaCache, CachesByShapeBucket)
{
    XlaCache cache;
    EXPECT_FALSE(cache.lookupOrInsert(
        model::LayerKind::GlobalAttention, 484));
    EXPECT_TRUE(cache.lookupOrInsert(
        model::LayerKind::GlobalAttention, 484));
    // Same bucket (484 and 500 are both bucket 7 at width 64).
    EXPECT_TRUE(cache.lookupOrInsert(
        model::LayerKind::GlobalAttention, 500));
    // Different layer or far-away shape misses.
    EXPECT_FALSE(cache.lookupOrInsert(
        model::LayerKind::PairTransition, 484));
    EXPECT_FALSE(cache.lookupOrInsert(
        model::LayerKind::GlobalAttention, 900));
}

TEST(XlaPhases, ServerHostPhasesSlowerThanDesktop)
{
    const auto graph =
        opgraph::buildInferenceGraph(484, model::paperConfig());
    XlaCache cs, cd;
    const auto server = evaluateXlaPhases(sys::serverPlatform(),
                                          graph, 484, cs);
    const auto desktop = evaluateXlaPhases(sys::desktopPlatform(),
                                           graph, 484, cd);
    EXPECT_GT(server.compileSeconds, desktop.compileSeconds);
    EXPECT_GT(server.initSeconds, desktop.initSeconds);
    // H100's 80 GB mapping alone makes init slower.
    EXPECT_GT(server.initSeconds, 1.5 * desktop.initSeconds / 2.0);
}

TEST(XlaPhases, WarmCacheSkipsCompilation)
{
    const auto graph =
        opgraph::buildInferenceGraph(484, model::paperConfig());
    XlaCache cache;
    const auto cold = evaluateXlaPhases(sys::serverPlatform(),
                                        graph, 484, cache);
    const auto warm = evaluateXlaPhases(sys::serverPlatform(),
                                        graph, 484, cache);
    EXPECT_GT(cold.compileSeconds, 10.0);
    EXPECT_DOUBLE_EQ(warm.compileSeconds, 0.0);
}

// --- Full inference simulation -----------------------------------------

TEST(InferenceSim, Fig8ServerOverheadDominatesShortInputs)
{
    // Paper: on Server, init + XLA compile consumed over 75% of
    // inference time for smaller inputs (2PV7).
    XlaCache cache;
    const auto r =
        simulateInference(sys::serverPlatform(), 484, cache);
    EXPECT_FALSE(r.oom);
    EXPECT_GT(r.overheadFraction(), 0.75);
}

TEST(InferenceSim, Fig8DesktopComputeDominates)
{
    // Paper: Desktop 2PV7 = 71 s GPU + 10 s XLA + 19 s init/final;
    // GPU compute share up to 83% for 1YY9/promo.
    XlaCache cache;
    const auto r2pv7 =
        simulateInference(sys::desktopPlatform(), 484, cache);
    EXPECT_GT(r2pv7.gpuComputeSeconds,
              0.5 * r2pv7.totalSeconds());
    XlaCache cache2;
    const auto rPromo =
        simulateInference(sys::desktopPlatform(), 857, cache2);
    EXPECT_GT(rPromo.gpuComputeSeconds / rPromo.totalSeconds(),
              0.65);
}

TEST(InferenceSim, DesktopGpuSlowerThanServerGpu)
{
    XlaCache c1, c2;
    const auto server =
        simulateInference(sys::serverPlatform(), 857, c1);
    const auto desktop =
        simulateInference(sys::desktopPlatform(), 857, c2);
    EXPECT_GT(desktop.gpuComputeSeconds,
              2.0 * server.gpuComputeSeconds);
}

TEST(InferenceSim, SixQnrNeedsUnifiedMemoryOn4080)
{
    XlaCache cache;
    InferenceSimOptions noUm;
    noUm.unifiedMemory = false;
    const auto fail = simulateInference(sys::desktopPlatform(),
                                        1395, cache, noUm);
    EXPECT_TRUE(fail.oom);

    XlaCache cache2;
    const auto ok =
        simulateInference(sys::desktopPlatform(), 1395, cache2);
    EXPECT_FALSE(ok.oom);
    EXPECT_TRUE(ok.usedUnifiedMemory);

    XlaCache cache3;
    const auto h100 =
        simulateInference(sys::serverPlatform(), 1395, cache3);
    EXPECT_FALSE(h100.usedUnifiedMemory);
}

TEST(InferenceSim, ThreadsBarelyHelp)
{
    // Fig 6: inference shows minimal gains with threads (single
    // dispatch thread).
    XlaCache c1, c2;
    InferenceSimOptions t1, t6;
    t1.threads = 1;
    t6.threads = 6;
    const auto r1 =
        simulateInference(sys::serverPlatform(), 881, c1, t1);
    const auto r6 =
        simulateInference(sys::serverPlatform(), 881, c2, t6);
    EXPECT_LT(r1.totalSeconds() / r6.totalSeconds(), 1.2);
}

TEST(InferenceSim, LayerBreakdownMatchesTableVIShapes)
{
    XlaCache c1, c2;
    const auto r484 =
        simulateInference(sys::serverPlatform(), 484, c1);
    const auto r857 =
        simulateInference(sys::serverPlatform(), 857, c2);

    // Triangle attention dominates Pairformer time.
    const double tri484 =
        r484.layerSeconds.at("triangle_attention_starting") +
        r484.layerSeconds.at("triangle_attention_ending");
    EXPECT_GT(tri484, 0.35 * r484.pairformerSeconds());

    // Global attention is the largest Diffusion slice.
    const double glob484 =
        r484.layerSeconds.at("global_attention");
    EXPECT_GT(glob484, 0.4 * r484.diffusionSeconds());

    // Table VI ratios (promo/2PV7): Pairformer ~3.35x, triangle
    // attention ~3.8x, Diffusion ~1.84x. Accept generous bands.
    const double pairRatio =
        r857.pairformerSeconds() / r484.pairformerSeconds();
    EXPECT_GT(pairRatio, 2.3);
    EXPECT_LT(pairRatio, 5.6);
    const double triRatio =
        (r857.layerSeconds.at("triangle_attention_starting") +
         r857.layerSeconds.at("triangle_attention_ending")) /
        tri484;
    EXPECT_GT(triRatio, 2.8);
    EXPECT_LT(triRatio, 5.6);
    const double diffRatio =
        r857.diffusionSeconds() / r484.diffusionSeconds();
    EXPECT_GT(diffRatio, 1.3);
    EXPECT_LT(diffRatio, 3.2);
}

TEST(InferenceSim, TimelineCoversAllPhases)
{
    XlaCache cache;
    const auto r =
        simulateInference(sys::desktopPlatform(), 484, cache);
    EXPECT_GT(r.timeline.spans().size(), 5u);
    EXPECT_NEAR(r.timeline.endTime(), r.totalSeconds(), 1e-6);
    EXPECT_GT(r.timeline.laneTotal(TimelineLane::GpuCompute), 0.0);
    EXPECT_FALSE(r.timeline.render().empty());
}

// --- Table V ------------------------------------------------------------

TEST(InitProfile, TableVSharesInPublishedBallpark)
{
    const auto rows2pv7 =
        profileInitPhase(sys::serverPlatform(), 484);
    const auto rowsPromo =
        profileInitPhase(sys::serverPlatform(), 857);
    const auto rows6qnr =
        profileInitPhase(sys::serverPlatform(), 1395);
    ASSERT_EQ(rows2pv7.size(), 3u);

    // Page faults via _M_fill_insert: 12.99% (2PV7), 16.83% (promo).
    EXPECT_NEAR(rows2pv7[0].overheadPct, 13.0, 4.0);
    EXPECT_NEAR(rowsPromo[0].overheadPct, 16.8, 4.0);
    EXPECT_GT(rowsPromo[0].overheadPct, rows2pv7[0].overheadPct);

    // dTLB via ByteSizeOf: 5.99% (2PV7), 3.89% (promo), falling.
    EXPECT_NEAR(rows2pv7[1].overheadPct, 6.0, 2.5);
    EXPECT_NEAR(rowsPromo[1].overheadPct, 3.9, 2.0);
    EXPECT_LT(rowsPromo[1].overheadPct, rows2pv7[1].overheadPct);

    // LLC via copy_to_iter: 6.90% (2PV7), 5.80% (6QNR).
    EXPECT_NEAR(rows2pv7[2].overheadPct, 6.9, 2.5);
    EXPECT_NEAR(rows6qnr[2].overheadPct, 5.8, 2.5);
    EXPECT_LT(rows6qnr[2].overheadPct, rows2pv7[2].overheadPct);
}

} // namespace
} // namespace afsb::gpusim
