/**
 * @file
 * Tests for the continuous-batching former on the GPU serving path:
 * singleton equivalence to solo dispatch, burst coalescing, the
 * batch-wait timer, VRAM capacity splits, data-parallel fan-out,
 * and request conservation when faults hit a batch mid-flight.
 *
 * Requests are hand-built with explicit arrival times so queue
 * depth at dispatch is a test input, not a race against the
 * workload generator.
 */

#include <gtest/gtest.h>

#include "core/workspace.hh"
#include "serve/cluster.hh"

namespace afsb::serve {
namespace {

/** Cheap config: few threads, coarse trace, one jackhmmer pass. */
ClusterConfig
fastConfig(uint32_t msaWorkers = 4)
{
    ClusterConfig cfg;
    cfg.msaWorkers = msaWorkers;
    cfg.gpuWorkers = 1;
    cfg.msaThreadsPerWorker = 2;
    cfg.msaOptions.traceStride = 16;
    cfg.msaOptions.jackhmmerIterations = 1;
    return cfg;
}

/** One oracle per platform (sample characterization is memoized,
 *  and an oracle must not span platforms). */
MsaServiceOracle &
serverOracle()
{
    static MsaServiceOracle oracle;
    return oracle;
}

MsaServiceOracle &
desktopOracle()
{
    static MsaServiceOracle oracle;
    return oracle;
}

/** @p n distinct 2PV7 queries arriving @p spacing seconds apart. */
std::vector<Request>
burst(size_t n, double spacing = 0.0)
{
    std::vector<Request> requests;
    for (size_t i = 0; i < n; ++i) {
        Request r;
        r.id = i;
        r.sample = "2PV7";
        r.variant = static_cast<uint32_t>(i);
        r.tokens = 484;
        r.contentHash = 0x9000 + i;
        r.arrivalSeconds = spacing * static_cast<double>(i);
        requests.push_back(r);
    }
    return requests;
}

void
expectConservation(const ClusterResult &r)
{
    EXPECT_EQ(r.offered,
              r.completed + r.degraded + r.failed + r.shed);
    for (const auto &rec : r.records) {
        if (rec.outcome == Outcome::Completed) {
            EXPECT_GT(rec.finishSeconds, 0.0);
        }
    }
}

TEST(Batching, SparseArrivalsMatchSoloDispatchExactly)
{
    // Arrivals spaced far beyond the end-to-end latency: the batch
    // former only ever sees a queue of one, and a singleton batch
    // must reproduce solo dispatch bit-identically.
    const auto requests = burst(3, 5000.0);
    auto solo = fastConfig();
    solo.msaOracle = &serverOracle();
    auto batched = solo;
    batched.batchMax = 4;

    const auto a = simulateCluster(sys::serverPlatform(),
                                   core::Workspace::shared(),
                                   requests, solo);
    const auto b = simulateCluster(sys::serverPlatform(),
                                   core::Workspace::shared(),
                                   requests, batched);
    EXPECT_FALSE(a.batchingEnabled);
    EXPECT_TRUE(b.batchingEnabled);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.records[i].gpuStartSeconds,
                         b.records[i].gpuStartSeconds);
        EXPECT_DOUBLE_EQ(a.records[i].finishSeconds,
                         b.records[i].finishSeconds);
        EXPECT_DOUBLE_EQ(a.records[i].compileSeconds,
                         b.records[i].compileSeconds);
        // Both dispatch one member at a time: batchSize counts the
        // dispatch's members, whether or not the former built it.
        EXPECT_EQ(a.records[i].batchSize, 1u);
        EXPECT_EQ(b.records[i].batchSize, 1u);
    }
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.batchesFormed, 0u); // no former at batchMax 1
    EXPECT_EQ(b.batchesFormed, 3u);
    EXPECT_EQ(b.maxBatchOccupancy, 1u);
    EXPECT_DOUBLE_EQ(b.paddingWasteFraction(), 0.0); // unpadded
}

TEST(Batching, SimultaneousBurstFormsOneFullBatch)
{
    // Four queries at t=0 on four MSA workers finish their (equal)
    // MSA stage at the same instant, so the single GPU worker sees
    // a queue of four and dispatches them as one batch.
    const auto requests = burst(4);
    auto cfg = fastConfig(4);
    cfg.msaOracle = &serverOracle();
    cfg.batchMax = 4;
    const auto r = simulateCluster(sys::serverPlatform(),
                                   core::Workspace::shared(),
                                   requests, cfg);
    expectConservation(r);
    EXPECT_EQ(r.completed, 4u);
    EXPECT_EQ(r.batchesFormed, 1u);
    EXPECT_EQ(r.batchedRequests, 4u);
    EXPECT_EQ(r.maxBatchOccupancy, 4u);
    EXPECT_DOUBLE_EQ(r.meanBatchOccupancy(), 4.0);
    // One shared compile covered all four members.
    EXPECT_EQ(r.batchCompiles, 1u);
    EXPECT_EQ(r.compileSharedRequests, 4u);
    EXPECT_DOUBLE_EQ(r.compileAmortizationFactor(), 4.0);
    EXPECT_GT(r.batchUsefulFlops, 0.0);
    // 484-token members padded to the 511-token bucket edge.
    EXPECT_GT(r.paddingWasteFraction(), 0.0);
    EXPECT_LT(r.paddingWasteFraction(), 1.0);
    double finish = 0.0;
    for (const auto &rec : r.records) {
        EXPECT_EQ(rec.batchSize, 4u);
        EXPECT_GT(rec.compileSeconds, 0.0); // the shared compile
        finish = finish == 0.0 ? rec.finishSeconds : finish;
        EXPECT_DOUBLE_EQ(rec.finishSeconds, finish);
    }
}

TEST(Batching, BatchWaitCoalescesStaggeredArrivals)
{
    // Staggered MSA completions: with no wait the head dispatches
    // alone and the stragglers batch behind it; with a wait budget
    // the head holds until the batch fills.
    const auto requests = burst(4, 5.0);
    auto noWait = fastConfig(4);
    noWait.msaOracle = &serverOracle();
    noWait.batchMax = 4;
    auto withWait = noWait;
    withWait.batchWaitSeconds = 300.0;

    const auto eager = simulateCluster(sys::serverPlatform(),
                                       core::Workspace::shared(),
                                       requests, noWait);
    const auto held = simulateCluster(sys::serverPlatform(),
                                      core::Workspace::shared(),
                                      requests, withWait);
    expectConservation(eager);
    expectConservation(held);
    EXPECT_EQ(held.batchesFormed, 1u);
    EXPECT_EQ(held.maxBatchOccupancy, 4u);
    EXPECT_GT(eager.batchesFormed, held.batchesFormed);
    EXPECT_GT(held.meanBatchOccupancy(),
              eager.meanBatchOccupancy());
}

TEST(Batching, WaitTimerDispatchesLoneHead)
{
    // A head with no co-batchees in sight must not wait forever:
    // the batch-wait timer fires and it dispatches alone, exactly
    // batchWaitSeconds after entering the GPU queue.
    const auto requests = burst(1);
    auto cfg = fastConfig(2);
    cfg.msaOracle = &serverOracle();
    cfg.batchMax = 4;
    cfg.batchWaitSeconds = 50.0;
    const auto r = simulateCluster(sys::serverPlatform(),
                                   core::Workspace::shared(),
                                   requests, cfg);
    expectConservation(r);
    EXPECT_EQ(r.completed, 1u);
    EXPECT_EQ(r.batchesFormed, 1u);
    EXPECT_EQ(r.maxBatchOccupancy, 1u);
    const auto &rec = r.records[0];
    EXPECT_NEAR(rec.gpuStartSeconds, rec.msaEndSeconds + 50.0,
                1e-9);
}

TEST(Batching, VramCapacityGateSplitsOversizedBatches)
{
    // On the 16 GiB desktop the 511-token bucket only fits 6
    // members beside the weights, so an 8-deep queue splits: one
    // capped batch, the remainder queued for the next dispatch.
    const auto requests = burst(8);
    auto cfg = fastConfig(8);
    cfg.msaOracle = &desktopOracle();
    cfg.batchMax = 8;
    const auto r = simulateCluster(sys::desktopPlatform(),
                                   core::Workspace::shared(),
                                   requests, cfg);
    expectConservation(r);
    EXPECT_EQ(r.completed, 8u);
    EXPECT_GE(r.vramBatchSplits, 1u);
    EXPECT_EQ(r.maxBatchOccupancy, 6u);
    EXPECT_EQ(r.batchesFormed, 2u);
    EXPECT_EQ(r.batchedRequests, 8u);
}

TEST(Batching, DataParallelGpusFinishTheBatchSooner)
{
    const auto requests = burst(4);
    auto one = fastConfig(4);
    one.msaOracle = &serverOracle();
    one.batchMax = 4;
    auto four = one;
    four.gpusPerNode = 4;

    const auto g1 = simulateCluster(sys::serverPlatform(),
                                    core::Workspace::shared(),
                                    requests, one);
    const auto g4 = simulateCluster(sys::serverPlatform(),
                                    core::Workspace::shared(),
                                    requests, four);
    expectConservation(g1);
    expectConservation(g4);
    EXPECT_EQ(g1.gpusPerNode, 1u);
    EXPECT_EQ(g4.gpusPerNode, 4u);
    // Same host phases, GPU phase sharded over four devices.
    EXPECT_LT(g4.makespanSeconds, g1.makespanSeconds);
}

TEST(Batching, GpuCrashMidBatchRefundsEveryMember)
{
    // Every non-degraded dispatch crashes: all members of the
    // doomed batches must flow through retry into degradation, and
    // every admitted request still reaches a terminal outcome.
    const auto requests = burst(8);
    auto cfg = fastConfig(8);
    cfg.msaOracle = &serverOracle();
    cfg.batchMax = 4;
    cfg.faultPlan.seed = 0xc0de;
    cfg.faultPlan.gpuCrashProb = 1.0;
    const auto r = simulateCluster(sys::serverPlatform(),
                                   core::Workspace::shared(),
                                   requests, cfg);
    expectConservation(r);
    EXPECT_TRUE(r.faultsEnabled);
    EXPECT_GE(r.faultsInjected, 1u);
    EXPECT_GT(r.retries, 0u);
    EXPECT_GE(r.gpuRespawns, 1u);
    // Nothing ever completes at full quality; the degraded
    // fallback (exempt from injection) absorbs the whole burst.
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(r.degraded, 8u);
    for (const auto &rec : r.records) {
        EXPECT_TRUE(rec.degradedPath);
        EXPECT_GT(rec.gpuAttempts, 1u);
    }
}

TEST(Batching, NodeKillWithBatchingConservesRequests)
{
    // A scripted node kill lands while batched dispatches are in
    // flight; the in-flight members are refunded into the retry
    // path and conservation holds.
    WorkloadSpec spec;
    spec.requestsPerSecond = 0.02;
    spec.durationSeconds = 6000.0;
    spec.seed = 777;
    spec.mix = parseMix("2PV7");
    spec.variantsPerSample = 1; // cache-hot: the GPU queue floods
    const auto requests = generateRequests(spec);

    auto cfg = fastConfig(2);
    cfg.msaOracle = &serverOracle();
    cfg.batchMax = 4;
    cfg.topology = net::datacenterTopology(2);
    fault::NodeKill kill;
    kill.atSeconds = 600.0;
    kill.node = 1;
    cfg.faultPlan.seed = 0xdead;
    cfg.faultPlan.nodeKills.push_back(kill);

    const auto r = simulateCluster(sys::serverPlatform(),
                                   core::Workspace::shared(),
                                   requests, cfg);
    expectConservation(r);
    EXPECT_TRUE(r.multiNode);
    EXPECT_EQ(r.nodeKills, 1u);
    EXPECT_GT(r.batchesFormed, 0u);
}

} // namespace
} // namespace afsb::serve
