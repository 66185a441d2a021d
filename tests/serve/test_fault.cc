/**
 * @file
 * Chaos soak and determinism tests for the fault-injection and
 * recovery machinery in the serving cluster.
 *
 * The virtual clock makes chaos testing exact instead of flaky:
 * every test here asserts hard invariants — conservation (every
 * admitted request reaches a terminal outcome), byte-identical
 * fault logs and reports for identical seeds, and byte-identical
 * fault-free reports against the committed baseline — rather than
 * "usually recovers" statistics.
 *
 * All chaos tests share one MsaServiceOracle so the expensive
 * per-sample MSA characterization runs once for the whole file.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/workspace.hh"
#include "fault/fault.hh"
#include "net/topology.hh"
#include "serve/cluster.hh"
#include "serve/report.hh"

namespace afsb::serve {
namespace {

/** Cheap engine settings shared by every chaos test (and the
 *  shared oracle — do not change per test). */
ClusterConfig
fastConfig()
{
    ClusterConfig cfg;
    cfg.msaWorkers = 2;
    cfg.gpuWorkers = 1;
    cfg.msaThreadsPerWorker = 2;
    cfg.msaOptions.traceStride = 16;
    cfg.msaOptions.jackhmmerIterations = 1;
    return cfg;
}

std::vector<Request>
smallWorkload(double durationSeconds = 2500.0, uint32_t variants = 2)
{
    WorkloadSpec spec;
    spec.requestsPerSecond = 0.02;
    spec.durationSeconds = durationSeconds;
    spec.seed = 777;
    spec.mix = parseMix("2PV7");
    spec.variantsPerSample = variants;
    return generateRequests(spec);
}

/** One oracle for the whole file: fastConfig engine settings on the
 *  server platform. */
ClusterResult
runFast(const std::vector<Request> &requests, ClusterConfig cfg)
{
    static MsaServiceOracle oracle;
    cfg.msaOracle = &oracle;
    return simulateCluster(sys::serverPlatform(),
                           core::Workspace::shared(), requests,
                           cfg);
}

/** A moderately violent plan: every fault kind is live. */
fault::Plan
chaosPlan(uint64_t seed)
{
    fault::Plan plan;
    plan.seed = seed;
    plan.msaCrashProb = 0.15;
    plan.gpuCrashProb = 0.10;
    plan.permanentProb = 0.20;
    plan.storageErrorProb = 0.05;
    plan.storageSpikeProb = 0.05;
    plan.cacheCorruptProb = 0.20;
    return plan;
}

void
expectConservation(const ClusterResult &r)
{
    EXPECT_EQ(r.completed + r.degraded + r.failed + r.shed,
              r.offered);
    uint64_t completed = 0, degraded = 0, failed = 0, shed = 0;
    for (const auto &rec : r.records) {
        switch (rec.outcome) {
        case Outcome::Completed:
            ++completed;
            break;
        case Outcome::Degraded:
            ++degraded;
            break;
        case Outcome::Failed:
            ++failed;
            break;
        case Outcome::Shed:
            ++shed;
            break;
        }
    }
    EXPECT_EQ(completed, r.completed);
    EXPECT_EQ(degraded, r.degraded);
    EXPECT_EQ(failed, r.failed);
    EXPECT_EQ(shed, r.shed);
}

TEST(Fault, InjectorDecisionStreamsAreIndependent)
{
    const auto plan = chaosPlan(42);
    fault::Injector pure(plan);
    fault::Injector interleaved(plan);

    for (int i = 0; i < 200; ++i) {
        const auto a = pure.msaService();
        // Draws at other sites must not perturb the MSA stream.
        (void)interleaved.gpuService();
        (void)interleaved.cacheInsertCorrupted();
        const auto b = interleaved.msaService();
        EXPECT_EQ(a.crash, b.crash) << "decision " << i;
        EXPECT_EQ(a.permanent, b.permanent);
        EXPECT_EQ(a.storageError, b.storageError);
        EXPECT_EQ(a.latencyFactor, b.latencyFactor);
        EXPECT_EQ(a.failFraction, b.failFraction);
    }
}

TEST(Fault, InjectorScriptedFaultFiresAtExactOrdinal)
{
    fault::Plan plan; // all probabilities zero
    plan.script.push_back(
        {fault::FaultKind::MsaWorkerCrash, 2, true});
    fault::Injector inj(plan);
    EXPECT_FALSE(plan.empty());

    EXPECT_FALSE(inj.msaService().failed()); // ordinal 0
    EXPECT_FALSE(inj.msaService().failed()); // ordinal 1
    const auto hit = inj.msaService();       // ordinal 2
    EXPECT_TRUE(hit.crash);
    EXPECT_TRUE(hit.permanent);
    EXPECT_FALSE(inj.msaService().failed()); // ordinal 3
}

TEST(Fault, SameSeedsAreByteIdentical)
{
    const auto requests = smallWorkload();
    auto cfg = fastConfig();
    cfg.faultPlan = chaosPlan(0xc4a05);

    const auto a = runFast(requests, cfg);
    const auto b = runFast(requests, cfg);

    EXPECT_FALSE(a.faultLog.empty());
    EXPECT_EQ(a.faultLog, b.faultLog); // byte-identical chaos
    EXPECT_EQ(canonicalSloText(buildSloReport(a)),
              canonicalSloText(buildSloReport(b)));
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].outcome, b.records[i].outcome);
        EXPECT_EQ(a.records[i].msaAttempts,
                  b.records[i].msaAttempts);
        EXPECT_EQ(a.records[i].gpuAttempts,
                  b.records[i].gpuAttempts);
        EXPECT_EQ(a.records[i].faultsSeen,
                  b.records[i].faultsSeen);
        EXPECT_EQ(a.records[i].finishSeconds,
                  b.records[i].finishSeconds);
    }
}

TEST(Fault, DifferentFaultSeedsProduceDifferentChaos)
{
    const auto requests = smallWorkload();
    auto cfgA = fastConfig();
    cfgA.faultPlan = chaosPlan(1);
    auto cfgB = fastConfig();
    cfgB.faultPlan = chaosPlan(2);
    const auto a = runFast(requests, cfgA);
    const auto b = runFast(requests, cfgB);
    EXPECT_NE(a.faultLog, b.faultLog);
}

TEST(Fault, ConservationHoldsAcross200SeedChaosSweep)
{
    const auto requests = smallWorkload();
    uint64_t totalFaults = 0;
    uint64_t totalDegraded = 0;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        auto cfg = fastConfig();
        cfg.faultPlan = chaosPlan(seed);
        const auto r = runFast(requests, cfg);
        expectConservation(r);
        // Retries + degradation are on: nothing may fail hard, and
        // nothing may be silently lost.
        EXPECT_EQ(r.failed, 0u) << "fault seed " << seed;
        ASSERT_EQ(r.records.size(), requests.size());
        EXPECT_EQ(r.servedLatencies().size(),
                  r.completed + r.degraded);
        totalFaults += r.faultsInjected;
        totalDegraded += r.degraded;
        if (::testing::Test::HasFailure())
            break; // one seed's diagnosis is enough
    }
    // The acceptance bar: a sweep injecting well over 50 faults in
    // which every admitted request completed or visibly degraded.
    EXPECT_GE(totalFaults, 50u);
    EXPECT_GT(totalDegraded, 0u);
}

TEST(Fault, AllMsaCrashesDegradeEveryAdmittedRequest)
{
    const auto requests = smallWorkload(1500.0);
    auto cfg = fastConfig();
    cfg.faultPlan.msaCrashProb = 1.0; // no MSA attempt survives
    const auto r = runFast(requests, cfg);
    expectConservation(r);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.degraded, r.offered - r.shed);
    EXPECT_GT(r.msaRespawns, 0u);
    EXPECT_GT(r.retries, 0u);
    EXPECT_GT(r.lostServiceSeconds, 0.0);
    for (const auto &rec : r.records)
        if (rec.outcome == Outcome::Degraded) {
            EXPECT_TRUE(rec.degradedPath);
            EXPECT_EQ(rec.msaAttempts,
                      cfg.recovery.maxAttemptsPerStage);
            EXPECT_GT(rec.finishSeconds,
                      rec.request.arrivalSeconds);
        }
}

TEST(Fault, FailsHardWhenDegradationDisabled)
{
    const auto requests = smallWorkload(1500.0);
    auto cfg = fastConfig();
    cfg.faultPlan.msaCrashProb = 1.0;
    cfg.recovery.degradeOnExhaustion = false;
    const auto r = runFast(requests, cfg);
    expectConservation(r);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(r.degraded, 0u);
    EXPECT_EQ(r.failed, r.offered - r.shed);
}

TEST(Fault, RetryBudgetZeroGoesStraightToDegrade)
{
    const auto requests = smallWorkload(1500.0);
    auto cfg = fastConfig();
    cfg.faultPlan.msaCrashProb = 1.0;
    cfg.recovery.retryBudget = 0;
    const auto r = runFast(requests, cfg);
    expectConservation(r);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.degraded, r.offered - r.shed);
    for (const auto &rec : r.records)
        if (rec.outcome == Outcome::Degraded) {
            EXPECT_EQ(rec.msaAttempts, 1u);
        }
}

TEST(Fault, PermanentCrashesNeverStrandTheLastWorker)
{
    const auto requests = smallWorkload();
    auto cfg = fastConfig();
    cfg.gpuWorkers = 2;
    cfg.faultPlan.gpuCrashProb = 0.5;
    cfg.faultPlan.permanentProb = 1.0; // every crash wants to kill
    const auto r = runFast(requests, cfg);
    expectConservation(r);
    // The pool shrank, but the supervisor kept the last replica
    // alive, so everything still finished.
    EXPECT_LE(r.permanentWorkerLosses, 1u);
    EXPECT_GT(r.completed + r.degraded, 0u);
    EXPECT_EQ(r.failed, 0u);
}

TEST(Fault, GpuCrashBurnsServiceAndRespawns)
{
    const auto requests = smallWorkload();
    auto base = fastConfig();
    auto faulty = base;
    faulty.faultPlan.script.push_back(
        {fault::FaultKind::GpuWorkerCrash, 0, false});

    const auto clean = runFast(requests, base);
    const auto r = runFast(requests, faulty);
    expectConservation(r);
    EXPECT_EQ(
        r.faultsByKind[static_cast<size_t>(
            fault::FaultKind::GpuWorkerCrash)],
        1u);
    EXPECT_EQ(r.gpuRespawns, 1u);
    EXPECT_GT(r.lostServiceSeconds, 0.0);
    // The victim retried, completed, and paid for the aborted
    // attempt, the backoff, and the respawn wait in latency. (Pool
    // busy seconds are NOT a valid proxy: the respawned worker's
    // re-init is modeled as respawn delay, not service, so the
    // burned fraction of attempt one can net out smaller than the
    // init phase the clean run's first request paid in-service.)
    bool sawRetry = false;
    for (size_t i = 0; i < r.records.size(); ++i)
        if (r.records[i].gpuAttempts > 1) {
            sawRetry = true;
            EXPECT_EQ(r.records[i].outcome, Outcome::Completed);
            EXPECT_GT(r.records[i].finishSeconds,
                      clean.records[i].finishSeconds);
        }
    EXPECT_TRUE(sawRetry);
}

TEST(Fault, StorageSpikeStretchesMsaService)
{
    const auto requests = smallWorkload();
    auto cfg = fastConfig();
    cfg.faultPlan.storageSpikeFactor = 8.0;
    cfg.faultPlan.script.push_back(
        {fault::FaultKind::StorageLatencySpike, 0, false});
    const auto r = runFast(requests, cfg);
    expectConservation(r);
    EXPECT_EQ(
        r.faultsByKind[static_cast<size_t>(
            fault::FaultKind::StorageLatencySpike)],
        1u);
    // The first MSA service attempt belongs to the first arrival;
    // its (successful) service ran 8x long.
    const auto &rec = r.records.front();
    ASSERT_EQ(rec.outcome, Outcome::Completed);
    EXPECT_EQ(rec.faultsSeen, 1u);
    double cleanSeconds = 0.0;
    for (const auto &other : r.records)
        if (other.outcome == Outcome::Completed &&
            !other.msaCacheHit && other.faultsSeen == 0) {
            cleanSeconds =
                other.msaEndSeconds - other.msaStartSeconds;
            break;
        }
    ASSERT_GT(cleanSeconds, 0.0);
    EXPECT_NEAR(rec.msaEndSeconds - rec.msaStartSeconds,
                8.0 * cleanSeconds, 1e-6);
}

TEST(Fault, CacheCorruptionForcesRederive)
{
    // One variant: every arrival after the first would be a cache
    // hit — but every insertion is corrupted, so each repeat
    // detects the corruption and re-runs the MSA stage.
    const auto requests = smallWorkload(2500.0, 1);
    auto cfg = fastConfig();
    cfg.faultPlan.cacheCorruptProb = 1.0;
    const auto r = runFast(requests, cfg);
    expectConservation(r);
    EXPECT_EQ(r.cacheStats.hits, 0u);
    EXPECT_GT(r.cacheStats.corrupted, 0u);
    EXPECT_GT(
        r.faultsByKind[static_cast<size_t>(
            fault::FaultKind::CacheCorruption)],
        0u);
    for (const auto &rec : r.records)
        EXPECT_FALSE(rec.msaCacheHit);
}

TEST(Fault, DeadlineTimeoutsDegradeButComplete)
{
    const auto requests = smallWorkload(1500.0);
    auto cfg = fastConfig();
    // MSA service takes minutes; a 1 s deadline dooms every
    // attempt, and the degraded fallback (deadline-exempt) is the
    // only way through.
    cfg.recovery.msaDeadlineSeconds = 1.0;
    const auto r = runFast(requests, cfg);
    expectConservation(r);
    EXPECT_TRUE(r.faultsEnabled);
    EXPECT_GT(r.timeouts, 0u);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.degraded, r.offered - r.shed);
    EXPECT_GT(
        r.faultsByKind[static_cast<size_t>(
            fault::FaultKind::RequestTimeout)],
        0u);
}

TEST(Fault, EmptyPlanKeepsFaultMachineryInert)
{
    const auto requests = smallWorkload();
    const auto r = runFast(requests, fastConfig());
    EXPECT_FALSE(r.faultsEnabled);
    EXPECT_EQ(r.faultsInjected, 0u);
    EXPECT_TRUE(r.faultLog.empty());
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.degraded, 0u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.msaRespawns + r.gpuRespawns, 0u);
    EXPECT_DOUBLE_EQ(r.lostServiceSeconds, 0.0);
    const std::string text = canonicalSloText(buildSloReport(r));
    EXPECT_EQ(text.find("faults_injected"), std::string::npos);
}

#ifdef AFSB_REPO_ROOT
TEST(Fault, EmptyPlanMatchesCommittedBaseline)
{
    // Mirrors the committed generation command exactly:
    //   afsysbench serve --platform server --mix 2PV7 --rps 0.005
    //     --duration 2000 --msa-workers 1 --gpu-workers 1
    //     --report-out bench/baselines/serve_slo.txt
    WorkloadSpec spec;
    spec.requestsPerSecond = 0.005;
    spec.durationSeconds = 2000.0;
    spec.seed = 0x5e7eaf3b;
    spec.variantsPerSample = 4;
    spec.mix = parseMix("2PV7");

    ClusterConfig cfg; // CLI defaults, but a 1x1 cluster
    cfg.msaWorkers = 1;
    cfg.gpuWorkers = 1;

    const auto result = simulateCluster(
        sys::serverPlatform(), core::Workspace::shared(),
        generateRequests(spec), cfg);
    const std::string text =
        canonicalSloText(buildSloReport(result));

    const std::string path = std::string(AFSB_REPO_ROOT) +
                             "/bench/baselines/serve_slo.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing baseline: " << path;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(text, golden.str())
        << "fault-free serving report drifted from the committed "
           "baseline; regenerate with the command above if the "
           "change is intentional";
}

/** Mixed-size stream (484- and 306-token queries), so SJF reorders
 *  both stage queues and batches form per token bucket. */
std::vector<Request>
mixedWorkload()
{
    WorkloadSpec spec;
    spec.requestsPerSecond = 0.06;
    spec.durationSeconds = 2500.0;
    spec.seed = 4242;
    spec.mix = parseMix("2PV7,7RCE");
    spec.variantsPerSample = 3;
    return generateRequests(spec);
}

/**
 * Single-node chaos run: SJF, both stage deadlines, and a plan in
 * which every single-node fault kind fires, including permanent
 * crashes and retry exhaustion into the degraded path.
 */
ClusterConfig
chaosGoldenConfig(uint32_t batchMax)
{
    auto cfg = fastConfig();
    cfg.msaWorkers = 4;
    cfg.policy = SchedPolicy::Sjf;
    cfg.faultPlan = chaosPlan(0x60d);
    cfg.faultPlan.permanentProb = 0.3;
    cfg.recovery.maxAttemptsPerStage = 2;
    cfg.recovery.msaDeadlineSeconds = 3000.0;
    cfg.recovery.gpuDeadlineSeconds = 150.0;
    cfg.batchMax = batchMax;
    if (batchMax > 1)
        cfg.batchWaitSeconds = 30.0;
    return cfg;
}

/** The bytes a chaos golden pins: the canonical SLO text followed
 *  by the fault log. */
std::string
chaosText(const ClusterResult &r)
{
    return canonicalSloText(buildSloReport(r)) + r.faultLog;
}

void
expectMatchesGolden(const std::string &text, const std::string &name)
{
    const std::string path = std::string(AFSB_REPO_ROOT) +
                             "/tests/data/serve/" + name;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden: " << path;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(text, golden.str())
        << "faulted serving run drifted from " << path;
}

/** Every fault kind a single node can inject fired at least once. */
void
expectEverySingleNodeKind(const ClusterResult &r)
{
    for (size_t k = 0; k < fault::kFaultKinds; ++k)
        if (static_cast<fault::FaultKind>(k) !=
            fault::FaultKind::NodeFailure) {
            EXPECT_GT(r.faultsByKind[k], 0u)
                << fault::faultKindName(
                       static_cast<fault::FaultKind>(k));
        }
    EXPECT_GT(r.permanentWorkerLosses, 0u);
    EXPECT_GT(r.degraded, 0u);
}

TEST(Fault, SoloChaosRunMatchesCommittedGolden)
{
    const auto r = runFast(mixedWorkload(), chaosGoldenConfig(1));
    expectConservation(r);
    expectEverySingleNodeKind(r);
    expectMatchesGolden(chaosText(r), "chaos_solo.txt");
}

TEST(Fault, BatchedChaosRunMatchesCommittedGolden)
{
    const auto r = runFast(mixedWorkload(), chaosGoldenConfig(4));
    expectConservation(r);
    expectEverySingleNodeKind(r);
    EXPECT_GT(r.maxBatchOccupancy, 1u);
    expectMatchesGolden(chaosText(r), "chaos_batched.txt");
}

TEST(Fault, NodeKillChaosRunMatchesCommittedGolden)
{
    auto cfg = fastConfig();
    cfg.topology = net::datacenterTopology(2);
    cfg.faultPlan = chaosPlan(0x2a0d);
    fault::NodeKill kill;
    kill.atSeconds = 700.0;
    kill.node = 1;
    kill.rebuildSeconds = 250.0;
    cfg.faultPlan.nodeKills.push_back(kill);
    const auto r = runFast(mixedWorkload(), cfg);
    expectConservation(r);
    EXPECT_EQ(r.nodeKills, 1u);
    EXPECT_EQ(r.nodeRebuilds, 1u);
    expectMatchesGolden(chaosText(r), "chaos_2node_kill.txt");
}
#endif

} // namespace
} // namespace afsb::serve
