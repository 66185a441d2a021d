/**
 * @file
 * Bit-identity contract of the IR-driven roofline: the simulator
 * consuming opgraph IR must produce byte-identical seconds to the
 * pre-IR inline path. The legacy path is replicated here verbatim —
 * model::operatorGraph + the pre-IR phase model over its layer list
 * + the same GpuDevice replay loop — and every phase duration is
 * compared as a %.17g string (two doubles render to the same %.17g
 * string iff they are the same bits, NaN aside). Every case runs
 * twice on one cache, a fill and then a hit of the memoized
 * dispatch-shape replay, and one case threads a single cache through
 * every platform and model config against fresh caches. Committed
 * baselines (bench/baselines/serve_slo.txt, BENCH_serving.json
 * gated with --absolute) depend on this holding.
 */

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gpusim/inference_sim.hh"
#include "opgraph/build.hh"
#include "sys/platform_config.hh"
#include "util/str.hh"
#include "util/units.hh"

using namespace afsb;

namespace {

std::string
bits(double v)
{
    return strformat("%.17g", v);
}

struct LegacyResult
{
    bool oom = false;
    bool usedUnifiedMemory = false;
    double initSeconds = 0.0;
    double compileSeconds = 0.0;
    double gpuComputeSeconds = 0.0;
    double finalizeSeconds = 0.0;
    std::map<std::string, double> layerSeconds;
    gpusim::DeviceStats deviceStats;
};

/** Verbatim replica of the pre-IR evaluateXlaPhases over the
 *  analytic layer list. */
gpusim::XlaPhases
legacyXlaPhases(const sys::PlatformSpec &platform,
                const std::vector<model::LayerInstance> &graph,
                size_t tokens, gpusim::XlaCache &cache)
{
    const gpusim::XlaCostModel costs;
    uint32_t kernelsCompiled = 0;
    for (const auto &layer : graph) {
        if (!cache.lookupOrInsert(layer.kind, tokens))
            kernelsCompiled += layer.cost.kernels;
    }

    gpusim::XlaPhases out;
    const double hostFactor = gpusim::hostClockFactor(platform, costs);
    out.initSeconds =
        hostFactor *
        (costs.baseInitSeconds +
         costs.initPerVramGib *
             static_cast<double>(platform.gpu.vramBytes) /
             static_cast<double>(GiB));
    out.kernelsCompiled = kernelsCompiled;
    out.compileSeconds = hostFactor *
                         costs.compileSecondsPerKernel *
                         out.kernelsCompiled;
    out.finalizeSeconds =
        hostFactor * (costs.baseFinalizeSeconds +
                      costs.finalizePerToken *
                          static_cast<double>(tokens));
    return out;
}

/** Verbatim replica of the pre-IR simulateInference. */
LegacyResult
legacySimulateInference(const sys::PlatformSpec &platform,
                        size_t tokens, gpusim::XlaCache &cache,
                        const gpusim::InferenceSimOptions &options)
{
    LegacyResult result;
    const auto &cfg = options.config;
    const auto graph = model::operatorGraph(tokens, cfg);

    const uint64_t footprint =
        model::activationBytes(tokens, cfg) +
        model::weightBytes(cfg);
    const bool spills = footprint > platform.gpu.vramBytes;
    if (spills && !options.unifiedMemory) {
        result.oom = true;
        return result;
    }
    result.usedUnifiedMemory = spills;
    const double spillFraction =
        spills ? 1.0 - static_cast<double>(platform.gpu.vramBytes) /
                           static_cast<double>(footprint)
               : 0.0;

    const gpusim::XlaPhases phases =
        legacyXlaPhases(platform, graph, tokens, cache);
    const double threadScale =
        (1.0 - options.hostParallelFraction) +
        options.hostParallelFraction /
            std::max<uint32_t>(1, options.threads);
    result.initSeconds = options.gpuAlreadyInitialized
                             ? 0.0
                             : phases.initSeconds * threadScale;
    result.compileSeconds = phases.compileSeconds * threadScale;
    result.finalizeSeconds = phases.finalizeSeconds * threadScale;

    gpusim::GpuDevice device(platform.gpu);
    double cursor = result.initSeconds + result.compileSeconds;
    const double gpuStart = cursor;
    for (const auto &layer : graph) {
        double layerTotal = 0.0;
        for (uint32_t i = 0; i < layer.count; ++i) {
            layerTotal += device.executeKernel(
                layer.cost.flops,
                layer.cost.bytes *
                    (1.0 + spillFraction *
                               (platform.gpu.unifiedMemPenalty -
                                1.0)),
                false);
        }
        result.layerSeconds[model::layerKindName(layer.kind)] +=
            layerTotal;
        cursor += layerTotal;
    }
    result.gpuComputeSeconds = cursor - gpuStart;
    result.deviceStats = device.stats();
    return result;
}

void
expectBitIdentical(const LegacyResult &legacy,
                   const gpusim::InferenceSimResult &ir)
{
    ASSERT_EQ(legacy.oom, ir.oom);
    EXPECT_EQ(legacy.usedUnifiedMemory, ir.usedUnifiedMemory);
    EXPECT_EQ(bits(legacy.initSeconds), bits(ir.initSeconds));
    EXPECT_EQ(bits(legacy.compileSeconds),
              bits(ir.compileSeconds));
    EXPECT_EQ(bits(legacy.gpuComputeSeconds),
              bits(ir.gpuComputeSeconds));
    EXPECT_EQ(bits(legacy.finalizeSeconds),
              bits(ir.finalizeSeconds));
    ASSERT_EQ(legacy.layerSeconds.size(), ir.layerSeconds.size());
    for (const auto &[name, secs] : legacy.layerSeconds) {
        const auto it = ir.layerSeconds.find(name);
        ASSERT_NE(it, ir.layerSeconds.end()) << name;
        EXPECT_EQ(bits(secs), bits(it->second)) << name;
    }
    EXPECT_EQ(legacy.deviceStats.kernelsLaunched,
              ir.deviceStats.kernelsLaunched);
    EXPECT_EQ(bits(legacy.deviceStats.flopsExecuted),
              bits(ir.deviceStats.flopsExecuted));
    EXPECT_EQ(bits(legacy.deviceStats.bytesMoved),
              bits(ir.deviceStats.bytesMoved));
    EXPECT_EQ(bits(legacy.deviceStats.busySeconds),
              bits(ir.deviceStats.busySeconds));
}

void
checkPlatformTokens(const sys::PlatformSpec &platform,
                    size_t tokens,
                    const gpusim::InferenceSimOptions &options)
{
    // One cache per path, used twice: the first call fills the
    // compile set and the replay memo, the second hits both.
    gpusim::XlaCache legacyCache;
    gpusim::XlaCache irCache;
    for (const char *pass : {"fill", "hit"}) {
        SCOPED_TRACE(pass);
        const auto legacy = legacySimulateInference(
            platform, tokens, legacyCache, options);
        const auto ir = gpusim::simulateInference(platform, tokens,
                                                  irCache, options);
        expectBitIdentical(legacy, ir);
        // The caches must agree too: identical shapes were compiled.
        EXPECT_EQ(legacyCache.size(), irCache.size());
    }
}

/** Verbatim replica of the pre-IR simulateBatchedInference
 *  (B > 1). */
struct LegacyBatch
{
    bool spills = false;
    size_t execTokens = 0;
    double initSeconds = 0.0;
    double compileSeconds = 0.0;
    double finalizeSeconds = 0.0;
    double gpuComputeSeconds = 0.0;
    double usefulFlops = 0.0;
    double paddedFlops = 0.0;
};

LegacyBatch
legacyBatchedInference(const sys::PlatformSpec &platform,
                       const std::vector<size_t> &members,
                       uint32_t gpus, gpusim::XlaCache &cache,
                       const gpusim::InferenceSimOptions &options)
{
    const model::ModelConfig cfg;
    LegacyBatch out;
    const size_t execTokens = cache.paddedTokens(members[0]);
    out.execTokens = execTokens;
    const auto graph = model::operatorGraph(execTokens, cfg);
    size_t sumTokens = 0;
    for (size_t t : members)
        sumTokens += t;
    const size_t batch = members.size();
    const size_t maxShard = (batch + gpus - 1) / gpus;
    const uint64_t footprint =
        static_cast<uint64_t>(maxShard) *
            model::activationBytes(execTokens, cfg) +
        model::weightBytes(cfg);
    const bool spills = footprint > platform.gpu.vramBytes;
    out.spills = spills;
    const double spillFraction =
        spills ? 1.0 - static_cast<double>(platform.gpu.vramBytes) /
                           static_cast<double>(footprint)
               : 0.0;
    const gpusim::XlaPhases phases =
        legacyXlaPhases(platform, graph, execTokens, cache);
    const double threadScale =
        (1.0 - options.hostParallelFraction) +
        options.hostParallelFraction /
            std::max<uint32_t>(1, options.threads);
    out.initSeconds = phases.initSeconds * threadScale;
    out.compileSeconds = phases.compileSeconds * threadScale;
    const gpusim::XlaCostModel costs;
    out.finalizeSeconds =
        hostClockFactor(platform, costs) *
        (costs.baseFinalizeSeconds +
         costs.finalizePerToken * static_cast<double>(sumTokens)) *
        threadScale;
    for (uint32_t g = 0; g < gpus; ++g) {
        const size_t shard =
            batch / gpus + (g < batch % gpus ? 1 : 0);
        if (shard == 0)
            continue;
        gpusim::GpuDevice device(platform.gpu);
        double shardSeconds = 0.0;
        for (const auto &layer : graph) {
            for (uint32_t i = 0; i < layer.count; ++i)
                shardSeconds += device.executeKernel(
                    layer.cost.flops * static_cast<double>(shard),
                    layer.cost.bytes * static_cast<double>(shard) *
                        (1.0 +
                         spillFraction *
                             (platform.gpu.unifiedMemPenalty - 1.0)),
                    false);
        }
        out.gpuComputeSeconds =
            std::max(out.gpuComputeSeconds, shardSeconds);
    }
    for (size_t t : members)
        out.usefulFlops +=
            model::totalFlops(model::operatorGraph(t, cfg));
    out.paddedFlops = std::max(
        0.0, model::totalFlops(graph) * static_cast<double>(batch) -
                 out.usefulFlops);
    return out;
}

/** The paper's two machines plus the three committed configs. */
std::vector<sys::PlatformSpec>
allPlatforms()
{
    const std::string root = AFSB_REPO_ROOT;
    return {
        sys::serverPlatform(),
        sys::desktopPlatform(),
        sys::resolvePlatform(root +
                             "/configs/platforms/riscv-cpu.json"),
        sys::resolvePlatform(root +
                             "/configs/platforms/cxl-tiered.json"),
        sys::resolvePlatform(root +
                             "/configs/platforms/small-vram.json"),
    };
}

/** Every field of two simulator results, timeline spans included. */
void
expectSameResult(const gpusim::InferenceSimResult &a,
                 const gpusim::InferenceSimResult &b)
{
    ASSERT_EQ(a.oom, b.oom);
    EXPECT_EQ(a.usedUnifiedMemory, b.usedUnifiedMemory);
    EXPECT_EQ(bits(a.initSeconds), bits(b.initSeconds));
    EXPECT_EQ(bits(a.compileSeconds), bits(b.compileSeconds));
    EXPECT_EQ(bits(a.gpuComputeSeconds), bits(b.gpuComputeSeconds));
    EXPECT_EQ(bits(a.finalizeSeconds), bits(b.finalizeSeconds));
    ASSERT_EQ(a.layerSeconds.size(), b.layerSeconds.size());
    for (const auto &[name, secs] : a.layerSeconds) {
        const auto it = b.layerSeconds.find(name);
        ASSERT_NE(it, b.layerSeconds.end()) << name;
        EXPECT_EQ(bits(secs), bits(it->second)) << name;
    }
    const auto &sa = a.timeline.spans();
    const auto &sb = b.timeline.spans();
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].name, sb[i].name);
        EXPECT_EQ(sa[i].lane, sb[i].lane) << sa[i].name;
        EXPECT_EQ(bits(sa[i].start), bits(sb[i].start)) << sa[i].name;
        EXPECT_EQ(bits(sa[i].duration), bits(sb[i].duration))
            << sa[i].name;
    }
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

} // namespace

TEST(RooflineIdentity, ServerMatchesLegacyAcrossSampleSizes)
{
    for (size_t tokens : {128, 484, 857, 1395, 2500})
        checkPlatformTokens(sys::serverPlatform(), tokens, {});
}

TEST(RooflineIdentity, DesktopMatchesLegacyIncludingSpill)
{
    gpusim::InferenceSimOptions opt;
    opt.unifiedMemory = true;  // 1395 tokens spills a 16 GB 4080
    for (size_t tokens : {128, 484, 857, 1395})
        checkPlatformTokens(sys::desktopPlatform(), tokens, opt);
}

TEST(RooflineIdentity, OomIdenticalWithoutUnifiedMemory)
{
    gpusim::InferenceSimOptions strict;
    strict.unifiedMemory = false;
    gpusim::XlaCache legacyCache, irCache;
    for (const char *pass : {"fill", "hit"}) {
        SCOPED_TRACE(pass);
        const auto legacy = legacySimulateInference(
            sys::desktopPlatform(), 1395, legacyCache, strict);
        const auto ir = gpusim::simulateInference(
            sys::desktopPlatform(), 1395, irCache, strict);
        EXPECT_TRUE(legacy.oom);
        EXPECT_TRUE(ir.oom);
        // An OOM never reaches the compile phase.
        EXPECT_EQ(legacyCache.size(), 0u);
        EXPECT_EQ(irCache.size(), 0u);
    }
}

TEST(RooflineIdentity, WarmCacheAndThreadOptionsMatchLegacy)
{
    gpusim::InferenceSimOptions opt;
    opt.threads = 8;
    opt.gpuAlreadyInitialized = true;
    // The first request fills each cache; the second hits it and
    // its compile phase collapses to zero identically.
    gpusim::XlaCache legacyCache, irCache;
    const auto legacyCold = legacySimulateInference(
        sys::serverPlatform(), 484, legacyCache, opt);
    const auto irCold = gpusim::simulateInference(
        sys::serverPlatform(), 484, irCache, opt);
    expectBitIdentical(legacyCold, irCold);
    const auto legacy = legacySimulateInference(
        sys::serverPlatform(), 484, legacyCache, opt);
    const auto ir = gpusim::simulateInference(
        sys::serverPlatform(), 484, irCache, opt);
    expectBitIdentical(legacy, ir);
    EXPECT_EQ(bits(legacy.compileSeconds), bits(0.0));
}

TEST(RooflineIdentity, BatchedPathMatchesLegacy)
{
    // The pre-IR simulateBatchedInference, compared field-by-field
    // on both paper platforms, on a fill and then a hit.
    const std::vector<size_t> members = {470, 478, 484};
    const uint32_t gpus = 2;
    for (const auto &platform :
         {sys::serverPlatform(), sys::desktopPlatform()}) {
        gpusim::InferenceSimOptions options;
        options.unifiedMemory = true;
        gpusim::XlaCache legacyCache, irCache;
        for (const char *pass : {"fill", "hit"}) {
            SCOPED_TRACE(pass);
            const auto legacy = legacyBatchedInference(
                platform, members, gpus, legacyCache, options);
            const auto ir = gpusim::simulateBatchedInference(
                platform, members, irCache, options, gpus);

            EXPECT_FALSE(ir.oom);
            EXPECT_EQ(ir.usedUnifiedMemory, legacy.spills);
            EXPECT_EQ(ir.execTokens, legacy.execTokens);
            EXPECT_EQ(bits(ir.initSeconds), bits(legacy.initSeconds));
            EXPECT_EQ(bits(ir.compileSeconds),
                      bits(legacy.compileSeconds));
            EXPECT_EQ(bits(ir.finalizeSeconds),
                      bits(legacy.finalizeSeconds));
            EXPECT_EQ(bits(ir.gpuComputeSeconds),
                      bits(legacy.gpuComputeSeconds));
            EXPECT_EQ(bits(ir.usefulFlops), bits(legacy.usefulFlops));
            EXPECT_EQ(bits(ir.paddedFlops), bits(legacy.paddedFlops));
            EXPECT_EQ(legacyCache.size(), irCache.size());
        }
    }
}

TEST(RooflineIdentity, SoloBatchMatchesUnbatchedSimulator)
{
    gpusim::XlaCache soloCache, batchCache;
    for (const char *pass : {"fill", "hit"}) {
        SCOPED_TRACE(pass);
        const auto solo = gpusim::simulateInference(
            sys::serverPlatform(), 484, soloCache);
        const auto batched = gpusim::simulateBatchedInference(
            sys::serverPlatform(), {484}, batchCache);
        EXPECT_EQ(bits(solo.gpuComputeSeconds),
                  bits(batched.gpuComputeSeconds));
        EXPECT_EQ(bits(solo.compileSeconds),
                  bits(batched.compileSeconds));
        EXPECT_EQ(bits(solo.finalizeSeconds),
                  bits(batched.finalizeSeconds));
    }
}

TEST(RooflineIdentity, SharedCacheAcrossPlatformsAndConfigsMatchesFresh)
{
    // One cache threaded through every platform and model config,
    // interleaved, must return exactly what a fresh cache does: its
    // replay memo may never hand one platform or config another's
    // costs.
    auto platforms = allPlatforms();
    // Each GPU field, perturbed alone on small-vram's spec (which
    // spills at 1395 tokens and fits at 484).
    for (double sys::GpuSpec::*field :
         {&sys::GpuSpec::peakFlops, &sys::GpuSpec::memBandwidth,
          &sys::GpuSpec::kernelLaunchUs,
          &sys::GpuSpec::unifiedMemPenalty}) {
        auto variant = platforms.back();
        variant.gpu.*field *= 2.0;
        platforms.push_back(variant);
    }
    std::vector<model::ModelConfig> configs = {model::paperConfig(),
                                               model::miniConfig()};
    // Each architecture field, perturbed alone on the paper config.
    for (size_t model::ModelConfig::*field :
         {&model::ModelConfig::pairDim, &model::ModelConfig::singleDim,
          &model::ModelConfig::pairformerBlocks,
          &model::ModelConfig::heads, &model::ModelConfig::headDim,
          &model::ModelConfig::diffusionSteps,
          &model::ModelConfig::diffusionTokenDim,
          &model::ModelConfig::localWindow,
          &model::ModelConfig::diffusionBlocks,
          &model::ModelConfig::globalBlocks,
          &model::ModelConfig::msaFeatureDim,
          &model::ModelConfig::recyclingIterations,
          &model::ModelConfig::diffusionSamples}) {
        auto variant = model::paperConfig();
        variant.*field *= 2;
        configs.push_back(variant);
    }

    gpusim::XlaCache shared;
    size_t spilled = 0;
    size_t ooms = 0;
    for (const char *round : {"fill", "hit"}) {
        for (size_t c = 0; c < configs.size(); ++c) {
            for (const auto &platform : platforms) {
                for (size_t tokens : {484, 1395}) {
                    for (bool unified : {true, false}) {
                        SCOPED_TRACE(strformat(
                            "%s config %zu %s tokens %zu unified %d",
                            round, c, platform.gpu.name.c_str(),
                            tokens, unified));
                        gpusim::InferenceSimOptions opt;
                        opt.config = configs[c];
                        opt.unifiedMemory = unified;
                        // Cold compile set, warm memo: only the
                        // memo separates the two caches.
                        shared.clear();
                        gpusim::XlaCache fresh;
                        // Cold, then warm compile: the walk from
                        // gpuStart runs on both start values.
                        for (int call = 0; call < 2; ++call) {
                            const auto hit = gpusim::simulateInference(
                                platform, tokens, shared, opt);
                            const auto ref = gpusim::simulateInference(
                                platform, tokens, fresh, opt);
                            expectSameResult(hit, ref);
                            spilled += ref.usedUnifiedMemory;
                            ooms += ref.oom;
                        }
                    }
                }
            }
        }
    }
    // The sweep covers spill and OOM, not just in-VRAM runs.
    EXPECT_GT(spilled, 0u);
    EXPECT_GT(ooms, 0u);
}
