/**
 * @file
 * Multi-node serving study: node-count scaling, interconnect
 * sensitivity, and whole-node-failure resilience over the modeled
 * fabric (src/net). The single-host paper setup is the nodes=1
 * column; every other column pays routed-request, cache-shard, and
 * response traffic through the interconnect, so communication share
 * becomes a first-class measurable next to MSA/GPU utilization.
 *
 * Everything here runs on the virtual clock, so every number is
 * seed-deterministic and diffable across machines.
 *
 * Usage:
 *   bench_multinode_scaling [--json <path>] [--comm-trace <path>]
 *
 *   --json        bench-JSON records (tools/bench_check --absolute)
 *   --comm-trace  write the 4-node datacenter run's communication
 *                 trace (CI uploads this as an artifact)
 */

#include "bench_common.hh"
#include "io/textfile.hh"
#include "net/comm_trace.hh"
#include "net/topology.hh"
#include "serve/cluster.hh"
#include "serve/report.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/stats.hh"
#include "util/units.hh"

using namespace afsb;

namespace {

serve::WorkloadSpec
workload()
{
    serve::WorkloadSpec spec;
    spec.requestsPerSecond = 0.08; // enough offered load for 8 nodes
    spec.durationSeconds = 3600.0;
    spec.seed = 0xd15c0;
    spec.mix = serve::parseMix("2PV7=2,7RCE=1");
    spec.variantsPerSample = 2; // repeats exercise the cache shards
    return spec;
}

double
meanLatency(const serve::ClusterResult &r)
{
    const auto xs = r.completedLatencies();
    return xs.empty() ? 0.0 : meanOf(xs);
}

JsonValue
record(const std::string &name, const serve::ClusterResult &r)
{
    const auto p = percentilesOf(r.completedLatencies());
    JsonValue rec = JsonValue::makeObject();
    rec["name"] = name;
    rec["iterations"] = static_cast<int64_t>(1);
    rec["ns_per_op"] = meanLatency(r) * 1e9;
    JsonValue counters = JsonValue::makeObject();
    counters["completed"] = r.completed;
    counters["shed"] = r.shed;
    counters["p99_s"] = p.p99;
    counters["comm_messages"] = r.comm.messages;
    counters["comm_bytes"] = r.comm.bytes;
    counters["comm_seconds"] = r.comm.commSeconds();
    counters["rerouted"] = r.rerouted;
    counters["remote_cache_hits"] = r.remoteCacheHits;
    counters["req_per_h"] = r.throughputPerHour();
    rec["counters"] = counters;
    return rec;
}

/** comm / (comm + compute busy): the CCL-Bench-style overhead view. */
double
commShare(const serve::ClusterResult &r)
{
    const double comm = r.comm.commSeconds();
    const double busy = r.msaBusySeconds + r.gpuBusySeconds;
    return comm + busy > 0.0 ? comm / (comm + busy) : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    bench::banner(
        "Multi-node serving — topology scaling over the modeled "
        "fabric",
        "Kim et al., IISWC 2025, Section VI — extended to a "
        "sharded multi-node deployment",
        "Router + per-node MSA/GPU pools; MSA-cache shards owned "
        "by contentHash %% nodes; every cross-node byte pays "
        "modeled serialization, latency, and bandwidth");

    const auto platform = sys::serverPlatform();
    const auto requests = serve::generateRequests(workload());
    serve::MsaServiceOracle oracle; // characterize samples once
    std::printf("Workload: %zu requests over %.0f s "
                "(2PV7=2,7RCE=1; 2 variants/sample; seed 0x%llx)\n\n",
                requests.size(), workload().durationSeconds,
                static_cast<unsigned long long>(workload().seed));

    JsonValue records = JsonValue::makeArray();
    net::CommTrace commTraceOut;

    // --- Sweep 1: node count on datacenter links -----------------
    {
        TextTable t("Node-count sweep (2 MSA x 1 GPU per node, "
                    "100 Gb/s / 5 us links)");
        t.setHeader({"nodes", "done", "shed", "p50 (s)", "p99 (s)",
                     "req/h", "comm", "comm %", "remote hits"});
        for (uint32_t nodes : {1u, 2u, 4u, 8u}) {
            serve::ClusterConfig cfg;
            cfg.msaOracle = &oracle;
            cfg.msaWorkers = 2;
            cfg.gpuWorkers = 1;
            cfg.topology = net::datacenterTopology(nodes);
            const auto r = serve::simulateCluster(
                platform, core::Workspace::shared(), requests,
                cfg);
            if (nodes == 4)
                commTraceOut = r.commTrace;
            const auto p = percentilesOf(r.completedLatencies());
            records.push(record(
                strformat("MultiNode/nodes:%u", nodes), r));
            t.addRow({strformat("%u", nodes),
                      strformat("%llu",
                                static_cast<unsigned long long>(
                                    r.completed)),
                      strformat("%llu",
                                static_cast<unsigned long long>(
                                    r.shed)),
                      bench::secs(p.p50), bench::secs(p.p99),
                      strformat("%.1f", r.throughputPerHour()),
                      formatBytes(r.comm.bytes),
                      strformat("%.4f%%", 100.0 * commShare(r)),
                      strformat("%llu",
                                static_cast<unsigned long long>(
                                    r.remoteCacheHits))});
        }
        t.print();
    }

    // --- Sweep 2: link sensitivity at 4 nodes --------------------
    {
        TextTable t("Interconnect sweep at 4 nodes (2 MSA x 1 GPU "
                    "per node)");
        t.setHeader({"fabric", "p50 (s)", "p99 (s)", "comm",
                     "comm s", "comm %", "req/h"});
        struct Fabric
        {
            const char *label;
            net::TopologyConfig topo;
        };
        net::TopologyConfig slow = net::commodityTopology(4);
        slow.name = "congested";
        slow.link.bandwidthBytesPerSec = 0.125e9; // 1 Gb/s
        slow.link.latencySeconds = 200e-6;
        slow.link.serializeBytesPerSec = 2e9;
        const Fabric fabrics[] = {
            {"zero-cost", net::zeroCostTopology(4)},
            {"datacenter", net::datacenterTopology(4)},
            {"commodity", net::commodityTopology(4)},
            {"congested", slow},
        };
        for (const auto &f : fabrics) {
            serve::ClusterConfig cfg;
            cfg.msaOracle = &oracle;
            cfg.msaWorkers = 2;
            cfg.gpuWorkers = 1;
            cfg.topology = f.topo;
            const auto r = serve::simulateCluster(
                platform, core::Workspace::shared(), requests,
                cfg);
            const auto p = percentilesOf(r.completedLatencies());
            records.push(record(
                strformat("MultiNode/link:%s", f.label), r));
            t.addRow({f.label, bench::secs(p.p50),
                      bench::secs(p.p99),
                      formatBytes(r.comm.bytes),
                      strformat("%.3f", r.comm.commSeconds()),
                      strformat("%.4f%%", 100.0 * commShare(r)),
                      strformat("%.1f", r.throughputPerHour())});
        }
        t.print();
    }

    // --- Sweep 3: whole-node failure at 4 nodes ------------------
    // Kill node 1 a quarter into the run; with and without rebuild.
    // Conservation (admitted == completed + degraded + failed) must
    // hold through the kill — the router refuses to lose requests.
    {
        TextTable t("Node-failure resilience at 4 nodes "
                    "(kill node 1 at t=900 s)");
        t.setHeader({"rebuild", "done", "degr", "fail", "rerouted",
                     "kills", "respawned", "p99 (s)", "conserved"});
        for (double rebuild : {-1.0, 300.0}) {
            serve::ClusterConfig cfg;
            cfg.msaOracle = &oracle;
            cfg.msaWorkers = 2;
            cfg.gpuWorkers = 1;
            cfg.topology = net::datacenterTopology(4);
            fault::NodeKill kill;
            kill.atSeconds = 900.0;
            kill.node = 1;
            kill.rebuildSeconds = rebuild;
            cfg.faultPlan.seed = 0xfa11;
            cfg.faultPlan.nodeKills.push_back(kill);
            const auto r = serve::simulateCluster(
                platform, core::Workspace::shared(), requests,
                cfg);
            const auto p = percentilesOf(r.completedLatencies());
            const bool conserved =
                r.offered ==
                r.completed + r.degraded + r.failed + r.shed;
            records.push(record(
                strformat("MultiNode/kill-rebuild:%s",
                          rebuild < 0.0 ? "never" : "300s"),
                r));
            t.addRow({rebuild < 0.0 ? "never" : "300 s",
                      strformat("%llu",
                                static_cast<unsigned long long>(
                                    r.completed)),
                      strformat("%llu",
                                static_cast<unsigned long long>(
                                    r.degraded)),
                      strformat("%llu",
                                static_cast<unsigned long long>(
                                    r.failed)),
                      strformat("%llu",
                                static_cast<unsigned long long>(
                                    r.rerouted)),
                      strformat("%llu",
                                static_cast<unsigned long long>(
                                    r.nodeKills)),
                      strformat("%llu",
                                static_cast<unsigned long long>(
                                    r.nodeRebuilds)),
                      bench::secs(p.p99),
                      conserved ? "yes" : "NO"});
            if (!conserved) {
                std::fprintf(stderr,
                             "bench_multinode_scaling: request "
                             "conservation violated after node "
                             "kill\n");
                return 1;
            }
        }
        t.print();
    }

    const std::string tracePath = args.get("comm-trace");
    if (!tracePath.empty()) {
        io::writeTextFile(tracePath, commTraceOut.render());
        std::printf("Wrote 4-node comm trace to %s\n",
                    tracePath.c_str());
    }
    const std::string jsonPath = args.get("json");
    if (!jsonPath.empty()) {
        JsonValue doc = JsonValue::makeObject();
        doc["benchmarks"] = records;
        io::writeTextFile(jsonPath, doc.dumpPretty() + "\n");
        std::printf("Wrote %zu deterministic sweep records to %s\n",
                    records.size(), jsonPath.c_str());
    }
    return 0;
}
