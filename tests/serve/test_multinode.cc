/**
 * @file
 * Multi-node serving-topology tests: the nodes=1 byte-identity
 * anchor, seed determinism at N > 1, cross-node cache traffic,
 * whole-node-kill conservation, and comm-trace integrity.
 *
 * All tests share one MsaServiceOracle so the expensive per-sample
 * MSA characterization runs once for the whole file.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/workspace.hh"
#include "fault/fault.hh"
#include "net/comm_trace.hh"
#include "serve/cluster.hh"
#include "serve/report.hh"

namespace afsb::serve {
namespace {

/** Cheap engine settings shared by every test here (and the shared
 *  oracle — do not change per test). */
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

ClusterResult
runFast(const std::vector<Request> &requests, ClusterConfig cfg)
{
    static MsaServiceOracle oracle;
    cfg.msaOracle = &oracle;
    return simulateCluster(sys::serverPlatform(),
                           core::Workspace::shared(), requests,
                           cfg);
}

void
expectConservation(const ClusterResult &r)
{
    EXPECT_EQ(r.completed + r.degraded + r.failed + r.shed,
              r.offered);
}

TEST(Multinode, SingleNodeTopologyIsByteIdenticalToDefault)
{
    const auto requests = smallWorkload();
    const auto base = runFast(requests, fastConfig());

    // An explicit 1-node topology — even on expensive links — must
    // reproduce the default run byte for byte: no message ever
    // crosses a node boundary, so no modeled transfer can perturb
    // the event order.
    auto cfg = fastConfig();
    cfg.topology = net::commodityTopology(1);
    const auto r = runFast(requests, cfg);

    EXPECT_FALSE(r.multiNode);
    EXPECT_EQ(r.comm.messages, 0u);
    EXPECT_TRUE(r.commTrace.empty());
    EXPECT_EQ(canonicalSloText(buildSloReport(r)),
              canonicalSloText(buildSloReport(base)));
    ASSERT_EQ(r.records.size(), base.records.size());
    for (size_t i = 0; i < r.records.size(); ++i) {
        EXPECT_EQ(r.records[i].outcome, base.records[i].outcome);
        EXPECT_EQ(r.records[i].finishSeconds,
                  base.records[i].finishSeconds);
        EXPECT_EQ(r.records[i].node, 0u);
        EXPECT_FALSE(r.records[i].remoteCache);
    }
}

TEST(Multinode, SameSeedsAreByteIdenticalAcrossNodes)
{
    const auto requests = smallWorkload();
    auto cfg = fastConfig();
    cfg.topology = net::datacenterTopology(4);

    const auto a = runFast(requests, cfg);
    const auto b = runFast(requests, cfg);
    EXPECT_TRUE(a.multiNode);
    EXPECT_FALSE(a.commTrace.empty());
    EXPECT_EQ(a.commTrace.render(), b.commTrace.render());
    EXPECT_EQ(canonicalSloText(buildSloReport(a)),
              canonicalSloText(buildSloReport(b)));
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].node, b.records[i].node);
        EXPECT_EQ(a.records[i].finishSeconds,
                  b.records[i].finishSeconds);
    }
}

TEST(Multinode, RoutingSpreadsLoadAndReportCarriesNetSection)
{
    const auto requests = smallWorkload();
    auto cfg = fastConfig();
    cfg.topology = net::datacenterTopology(3);
    const auto r = runFast(requests, cfg);

    expectConservation(r);
    EXPECT_EQ(r.nodes, 3u);
    EXPECT_GT(r.comm.messages, 0u);
    ASSERT_EQ(r.nodeStats.size(), 3u);
    uint64_t routed = 0;
    for (const auto &n : r.nodeStats) {
        EXPECT_GT(n.routed, 0u); // round-robin reaches every node
        routed += n.routed;
    }
    EXPECT_EQ(routed, r.offered - r.shed);
    for (const auto &rec : r.records)
        EXPECT_LT(rec.node, 3u);

    const auto rep = buildSloReport(r);
    EXPECT_TRUE(rep.multiNode);
    EXPECT_EQ(rep.net.nodes, 3u);
    EXPECT_EQ(rep.net.perNode.size(), 3u);
    EXPECT_FALSE(rep.net.links.empty());
    const std::string text = canonicalSloText(rep);
    EXPECT_NE(text.find("nodes=3\n"), std::string::npos);
    EXPECT_NE(text.find("comm_messages="), std::string::npos);
    EXPECT_NE(text.find("node_0_routed="), std::string::npos);
}

TEST(Multinode, RemoteCacheShardsServeRepeatQueries)
{
    // Repeat-heavy workload on 4 nodes: 3 of 4 repeat lookups land
    // on a remote shard (contentHash % nodes) and ship the cached
    // MSA over the fabric.
    const auto requests = smallWorkload(4000.0, 1);
    auto cfg = fastConfig();
    cfg.topology = net::datacenterTopology(4);
    const auto r = runFast(requests, cfg);

    expectConservation(r);
    EXPECT_GT(r.remoteCacheLookups, 0u);
    EXPECT_GT(r.remoteCacheHits, 0u);
    EXPECT_GT(r.cacheStats.hits, 0u);
    bool sawRemoteHit = false;
    for (const auto &rec : r.records)
        sawRemoteHit |= rec.remoteCache && rec.msaCacheHit;
    EXPECT_TRUE(sawRemoteHit);
}

TEST(Multinode, RemoteShardsAnswerSimilarityProbes)
{
    // Near-duplicate traffic sharded over 4 nodes: exact lookups
    // miss, the sketch probe broadcasts to every shard, and most
    // accepted candidates live on a remote shard (which ships its
    // survivor set over the fabric).
    WorkloadSpec spec;
    spec.requestsPerSecond = 0.02;
    spec.durationSeconds = 6000.0;
    spec.seed = 777;
    spec.mix = parseMix("2PV7");
    spec.variantsPerSample = 1;
    spec.mutationRate = 0.01;
    const auto requests = generateRequests(spec);

    auto cfg = fastConfig();
    cfg.topology = net::datacenterTopology(4);
    cfg.msaCacheBudgetBytes = 512ull << 20;
    cfg.simCacheThreshold = 0.6;
    const auto r = runFast(requests, cfg);

    expectConservation(r);
    EXPECT_TRUE(r.simCacheEnabled);
    EXPECT_GT(r.remoteApproxProbes, 0u);
    EXPECT_GT(r.remoteApproxHits, 0u);
    EXPECT_GT(r.approxHits, 0u);
    bool sawRemoteApprox = false;
    for (const auto &rec : r.records)
        sawRemoteApprox |= rec.remoteCache && rec.approxHit;
    EXPECT_TRUE(sawRemoteApprox);

    // The round-trip report carries the remote counters.
    const auto rep = buildSloReport(r);
    EXPECT_EQ(rep.sim.remoteApproxProbes, r.remoteApproxProbes);
    EXPECT_EQ(rep.sim.remoteApproxHits, r.remoteApproxHits);
    const std::string text = canonicalSloText(rep);
    EXPECT_NE(text.find("sim_remote_probes="), std::string::npos);
    EXPECT_EQ(canonicalSloText(parseSloText(text)), text);
}

TEST(Multinode, NodeKillConservesEveryAdmittedRequest)
{
    const auto requests = smallWorkload();
    auto cfg = fastConfig();
    cfg.topology = net::datacenterTopology(4);
    fault::NodeKill kill;
    kill.atSeconds = 600.0;
    kill.node = 1;
    cfg.faultPlan.seed = 0xdead;
    cfg.faultPlan.nodeKills.push_back(kill);
    const auto r = runFast(requests, cfg);

    expectConservation(r);
    EXPECT_TRUE(r.faultsEnabled);
    EXPECT_EQ(r.nodeKills, 1u);
    EXPECT_EQ(r.nodeRebuilds, 0u);
    EXPECT_GT(
        r.faultsByKind[static_cast<size_t>(
            fault::FaultKind::NodeFailure)],
        0u);
    // Retry + degradation stay on: the kill may degrade requests
    // but must not lose or hard-fail them.
    EXPECT_EQ(r.failed, 0u);
    // Nothing lands on the dead node after the kill.
    for (const auto &rec : r.records) {
        if (rec.request.arrivalSeconds > kill.atSeconds &&
            rec.outcome != Outcome::Shed) {
            EXPECT_NE(rec.node, 1u);
        }
    }
}

TEST(Multinode, NodeRebuildRestoresServingCapacity)
{
    const auto requests = smallWorkload();
    auto cfgDown = fastConfig();
    cfgDown.topology = net::datacenterTopology(2);
    fault::NodeKill kill;
    kill.atSeconds = 600.0;
    kill.node = 1;
    cfgDown.faultPlan.seed = 0xdead;
    cfgDown.faultPlan.nodeKills.push_back(kill);

    auto cfgBack = cfgDown;
    cfgBack.faultPlan.nodeKills[0].rebuildSeconds = 200.0;

    const auto down = runFast(requests, cfgDown);
    const auto back = runFast(requests, cfgBack);
    expectConservation(down);
    expectConservation(back);
    EXPECT_EQ(down.nodeRebuilds, 0u);
    EXPECT_EQ(back.nodeRebuilds, 1u);
    // The rebuilt node serves again.
    bool servedAfterRebuild = false;
    for (const auto &rec : back.records)
        servedAfterRebuild |=
            rec.node == 1 &&
            rec.request.arrivalSeconds > kill.atSeconds + 200.0 &&
            rec.outcome == Outcome::Completed;
    EXPECT_TRUE(servedAfterRebuild);
}

TEST(Multinode, KillNeverTakesTheLastLiveNode)
{
    const auto requests = smallWorkload();
    auto cfg = fastConfig();
    cfg.topology = net::datacenterTopology(2);
    fault::NodeKill first;
    first.atSeconds = 400.0;
    first.node = 0;
    fault::NodeKill second; // would leave zero live nodes: ignored
    second.atSeconds = 800.0;
    second.node = 1;
    cfg.faultPlan.seed = 1;
    cfg.faultPlan.nodeKills.push_back(first);
    cfg.faultPlan.nodeKills.push_back(second);
    const auto r = runFast(requests, cfg);

    expectConservation(r);
    EXPECT_EQ(r.nodeKills, 1u);
    EXPECT_GT(r.completed + r.degraded, 0u);
}

TEST(Multinode, CommTraceParsesAndRespectsCausality)
{
    const auto requests = smallWorkload();
    auto cfg = fastConfig();
    cfg.topology = net::datacenterTopology(4);
    const auto r = runFast(requests, cfg);

    const auto events = net::parseCommTrace(r.commTrace.render());
    ASSERT_EQ(events.size(), r.comm.messages);
    const uint32_t endpoints = cfg.topology.endpoints();
    for (const auto &e : events) {
        EXPECT_GE(e.arriveTime, e.sendTime);
        EXPECT_LT(e.src, endpoints);
        EXPECT_LT(e.dst, endpoints);
        EXPECT_NE(e.src, e.dst);
    }
}

#ifdef AFSB_REPO_ROOT
TEST(Multinode, TwoNodeCommTraceMatchesCommittedBytes)
{
    // A 2-node run over the small fixed stream. The committed trace
    // was rendered by the cluster when it still stored its trace as
    // text; rendering the kept events must reproduce it byte for
    // byte.
    auto cfg = fastConfig();
    cfg.topology = net::datacenterTopology(2);
    const auto r = runFast(smallWorkload(), cfg);

    const std::string path = std::string(AFSB_REPO_ROOT) +
                             "/tests/data/serve/comm_trace_2node.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing fixture: " << path;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(r.comm.messages, r.commTrace.size());
    EXPECT_EQ(r.commTrace.render(), golden.str());
}
#endif

} // namespace
} // namespace afsb::serve
