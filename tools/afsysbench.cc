/**
 * @file
 * The AFSysBench command-line driver — the C++ counterpart of the
 * paper's shell-script suite. Automates sequential execution of
 * input samples through the MSA and inference stages, thread-
 * scaling sweeps, run repetition with coefficient-of-variation
 * reporting (the paper's five-run methodology), and CSV export.
 *
 * Commands:
 *   afsysbench list
 *   afsysbench run       --sample promo --platform desktop
 *                        --threads 1,2,4,6,8 --repeats 3
 *                        [--preload] [--csv out.csv]
 *   afsysbench inference --sample 2PV7 --platform server
 *                        [--persistent] [--requests 3]
 *   afsysbench serve     --platform server --msa-workers 4
 *                        --gpu-workers 2 --rps 0.5 --duration 3600
 *                        --cache-mb 512 [--policy fifo|sjf]
 *                        [--csv out.csv]
 *   afsysbench estimate  --sample 6QNR --platform desktop
 *   afsysbench advise    --sample 1YY9 --platform server
 *   afsysbench opgraph   --sample 2PV7 [--tokens N]
 *                        [--module all|pairformer|diffusion]
 *                        [--dump] [--format text|json] [--out FILE]
 *                        [--platform P]
 *
 * --platform accepts a builtin name or a path to a *.json platform
 * config (see configs/platforms/).
 */

#include <cstdio>
#include <memory>

#include "cachesim/op_attribution.hh"
#include "core/adaptive_threads.hh"
#include "core/memory_estimator.hh"
#include "core/pipeline.hh"
#include "io/textfile.hh"
#include "opgraph/build.hh"
#include "prof/repetition.hh"
#include "serve/report.hh"
#include "sys/platform_config.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace afsb;

namespace {

/** Builtin --platform names; the flag also accepts *.json paths
 *  (sys::resolvePlatform). Keep the usage text enumerating these. */
constexpr const char *kPlatformNames =
    "server, server-cxl, desktop, desktop-128, or a *.json config "
    "path";

sys::PlatformSpec
platformByName(const std::string &name)
{
    return sys::resolvePlatform(name);
}

int
cmdList()
{
    std::printf("Samples (paper Table II):\n");
    for (const auto &sample : bio::makeAllSamples())
        std::printf("  %-6s %-24s %5zu residues  %s\n",
                    sample.info.name.c_str(),
                    sample.info.structure.c_str(),
                    sample.complex.totalResidues(),
                    sample.info.target.c_str());
    std::printf("\nPlatforms (paper Table I):\n");
    for (const auto &p :
         {sys::serverPlatform(), sys::serverPlatformWithCxl(),
          sys::desktopPlatform(), sys::desktopPlatformUpgraded()})
        std::printf("  %-12s %s + %s, %s\n", p.name.c_str(),
                    p.cpu.name.c_str(), p.gpu.name.c_str(),
                    formatBytes(p.totalMemoryBytes()).c_str());
    return 0;
}

int
cmdRun(const CliArgs &args)
{
    const auto sample = bio::makeSample(args.get("sample", "2PV7"));
    const auto platform =
        platformByName(args.get("platform", "desktop"));
    const auto threads = args.getIntList("threads", {1, 2, 4, 8});
    const auto repeats =
        static_cast<size_t>(args.getInt("repeats", 1));

    CsvWriter csv;
    csv.setHeader({"sample", "platform", "threads", "msa_s",
                   "msa_cv", "inference_s", "total_s", "msa_share",
                   "peak_mem_bytes"});

    TextTable table(strformat("%s on %s",
                              sample.info.name.c_str(),
                              platform.name.c_str()));
    table.setHeader({"Threads", "MSA (s)", "CV", "Inference (s)",
                     "Total (s)", "MSA share"});

    for (uint32_t th : threads) {
        double inferenceSeconds = 0.0;
        uint64_t peak = 0;
        // Repetition with re-seeded databases (the paper's 5-run
        // stability methodology; CV stays within a few percent).
        const auto rep = prof::repeatMeasurement(
            repeats,
            [&](size_t run) {
                std::unique_ptr<core::Workspace> fresh;
                const core::Workspace *ws =
                    &core::Workspace::shared();
                if (run > 0) {
                    core::WorkspaceConfig wcfg;
                    wcfg.seed = 0xaf5b + run * 7919;
                    fresh = std::make_unique<core::Workspace>(
                        wcfg);
                    ws = fresh.get();
                }
                core::PipelineOptions opt;
                opt.msaThreads = th;
                opt.msa.traceStride = 16;
                opt.msa.preloadDatabases =
                    args.getSwitch("preload");
                const auto r = core::runPipeline(sample.complex,
                                                 platform, *ws, opt);
                if (r.oom)
                    fatal("run OOMed; use `estimate` first");
                inferenceSeconds = r.inference.totalSeconds();
                peak = r.msa.peakMemoryBytes;
                return r.msa.seconds;
            },
            0.05);

        const double msa = rep.mean();
        const double total = msa + inferenceSeconds;
        table.addRow({strformat("%u", th), strformat("%.1f", msa),
                      strformat("%.1f%%", 100.0 * rep.cv()),
                      strformat("%.1f", inferenceSeconds),
                      strformat("%.1f", total),
                      strformat("%.1f%%", 100.0 * msa / total)});
        csv.addRow({sample.info.name, platform.name,
                    strformat("%u", th), strformat("%.3f", msa),
                    strformat("%.4f", rep.cv()),
                    strformat("%.3f", inferenceSeconds),
                    strformat("%.3f", total),
                    strformat("%.4f", msa / total),
                    strformat("%llu",
                              static_cast<unsigned long long>(
                                  peak))});
        if (!rep.stable())
            warn(strformat("threads=%u: CV %.1f%% exceeds 5%%",
                           th, 100.0 * rep.cv()));
    }
    table.print();

    if (args.has("csv")) {
        csv.writeFile(args.get("csv"));
        std::printf("CSV written to %s\n",
                    args.get("csv").c_str());
    }
    return 0;
}

int
cmdInference(const CliArgs &args)
{
    const auto sample = bio::makeSample(args.get("sample", "2PV7"));
    const auto platform =
        platformByName(args.get("platform", "server"));
    const auto requests =
        static_cast<int>(args.getInt("requests", 3));
    const bool persistent = args.getSwitch("persistent");

    std::printf("%d inference requests for %s on %s "
                "(persistent model state: %s)\n\n",
                requests, sample.info.name.c_str(),
                platform.name.c_str(), persistent ? "on" : "off");

    gpusim::XlaCache persistentCache;
    TextTable t("Inference requests");
    t.setHeader({"Request", "init", "xla", "gpu", "final",
                 "total (s)"});
    for (int r = 1; r <= requests; ++r) {
        gpusim::XlaCache freshCache;
        gpusim::XlaCache &cache =
            persistent ? persistentCache : freshCache;
        const auto result = gpusim::simulateInference(
            platform, sample.complex.totalResidues(), cache);
        t.addRow({strformat("%d", r),
                  strformat("%.1f", result.initSeconds),
                  strformat("%.1f", result.compileSeconds),
                  strformat("%.1f", result.gpuComputeSeconds),
                  strformat("%.1f", result.finalizeSeconds),
                  strformat("%.1f", result.totalSeconds())});
    }
    t.print();
    return 0;
}

int
cmdServe(const CliArgs &args)
{
    const auto platform =
        platformByName(args.get("platform", "server"));

    // Validate flag combinations up front, on the signed parses,
    // so a bad value fails with one clear line instead of wrapping
    // through an unsigned cast into the simulator.
    if (args.getDouble("rps", 0.05) <= 0.0)
        fatal("serve: --rps must be > 0");
    if (args.getDouble("duration", 3600.0) <= 0.0)
        fatal("serve: --duration must be > 0");
    if (args.getInt("msa-workers", 4) < 1)
        fatal("serve: --msa-workers must be >= 1");
    if (args.getInt("gpu-workers", 2) < 1)
        fatal("serve: --gpu-workers must be >= 1");
    if (args.getInt("queue-cap", 64) < 1)
        fatal("serve: --queue-cap must be >= 1");
    if (args.getInt("batch-max", 1) < 1)
        fatal("serve: --batch-max must be >= 1");
    if (args.getDouble("batch-wait-ms", 0.0) < 0.0)
        fatal("serve: --batch-wait-ms must be >= 0");
    if (args.getInt("gpus-per-node", 1) < 1)
        fatal("serve: --gpus-per-node must be >= 1");
    if (args.getInt("bucket-tokens",
                    gpusim::XlaCache::kBucketTokens) < 1)
        fatal("serve: --bucket-tokens must be >= 1");
    if (args.has("sim-cache-threshold")) {
        const double t = args.getDouble("sim-cache-threshold", 0.0);
        if (t <= 0.0 || t > 1.0)
            fatal("serve: --sim-cache-threshold must be in (0, 1]");
    }
    {
        const double ret = args.getDouble("sim-cache-retention", 0.5);
        if (ret < 0.0 || ret > 1.0)
            fatal("serve: --sim-cache-retention must be in [0, 1]");
    }
    {
        const double mut = args.getDouble("mutation-rate", 0.0);
        if (mut < 0.0 || mut >= 1.0)
            fatal("serve: --mutation-rate must be in [0, 1)");
    }
    if (args.getInt("db-budget-mb", 8) < 1)
        fatal("serve: --db-budget-mb must be >= 1");
    if (args.has("kill-node")) {
        const int64_t nodes = args.getInt("nodes", 1);
        const int64_t kill = args.getInt("kill-node", 0);
        if (nodes < 2)
            fatal("serve: --kill-node needs a multi-node topology "
                  "(--nodes >= 2)");
        if (kill < 0 || kill >= nodes)
            fatal("serve: --kill-node " + std::to_string(kill) +
                  " is out of range for --nodes " +
                  std::to_string(nodes));
    }

    serve::WorkloadSpec workload;
    workload.requestsPerSecond = args.getDouble("rps", 0.05);
    workload.durationSeconds = args.getDouble("duration", 3600.0);
    workload.seed =
        static_cast<uint64_t>(args.getInt("seed", 0x5e7eaf3b));
    workload.variantsPerSample =
        static_cast<uint32_t>(args.getInt("unique", 4));
    if (args.has("mix"))
        workload.mix = serve::parseMix(args.get("mix"));
    workload.mutationRate = args.getDouble("mutation-rate", 0.0);
    workload.sketchQueries = args.has("sim-cache-threshold");

    serve::ClusterConfig cluster;
    cluster.msaWorkers =
        static_cast<uint32_t>(args.getInt("msa-workers", 4));
    cluster.gpuWorkers =
        static_cast<uint32_t>(args.getInt("gpu-workers", 2));
    cluster.admissionCapacity =
        static_cast<size_t>(args.getInt("queue-cap", 64));
    cluster.policy =
        serve::policyByName(args.get("policy", "fifo"));
    cluster.msaCacheBudgetBytes =
        static_cast<uint64_t>(args.getInt("cache-mb", 512)) << 20;
    cluster.msaThreadsPerWorker =
        static_cast<uint32_t>(args.getInt("msa-threads", 8));
    cluster.batchMax =
        static_cast<uint32_t>(args.getInt("batch-max", 1));
    cluster.batchWaitSeconds =
        args.getDouble("batch-wait-ms", 0.0) / 1000.0;
    cluster.gpusPerNode =
        static_cast<uint32_t>(args.getInt("gpus-per-node", 1));
    cluster.bucketTokens = static_cast<uint32_t>(args.getInt(
        "bucket-tokens", gpusim::XlaCache::kBucketTokens));
    cluster.simCacheThreshold =
        args.getDouble("sim-cache-threshold", 0.0);
    cluster.simCacheMinRetention =
        args.getDouble("sim-cache-retention", 0.5);

    cluster.topology.nodes =
        static_cast<uint32_t>(args.getInt("nodes", 1));
    if (args.has("link-gbps"))
        cluster.topology.link.bandwidthBytesPerSec =
            args.getDouble("link-gbps", 100.0) * 1e9 / 8.0;
    if (args.has("link-latency-us"))
        cluster.topology.link.latencySeconds =
            args.getDouble("link-latency-us", 5.0) * 1e-6;
    if (args.has("link-serialize-gbps"))
        cluster.topology.link.serializeBytesPerSec =
            args.getDouble("link-serialize-gbps", 0.0) * 1e9 / 8.0;

    fault::Plan &plan = cluster.faultPlan;
    if (args.has("fault-seed"))
        plan.seed =
            static_cast<uint64_t>(args.getInt("fault-seed", 0));
    plan.msaCrashProb = args.getDouble("fault-msa-crash", 0.0);
    plan.gpuCrashProb = args.getDouble("fault-gpu-crash", 0.0);
    plan.permanentProb = args.getDouble("fault-permanent", 0.0);
    plan.storageErrorProb =
        args.getDouble("fault-storage-err", 0.0);
    plan.storageSpikeProb =
        args.getDouble("fault-storage-spike", 0.0);
    plan.storageSpikeFactor =
        args.getDouble("fault-spike-factor", 8.0);
    plan.cacheCorruptProb =
        args.getDouble("fault-cache-corrupt", 0.0);
    if (args.has("kill-node")) {
        fault::NodeKill kill;
        kill.node =
            static_cast<uint32_t>(args.getInt("kill-node", 0));
        kill.atSeconds = args.getDouble("kill-at", 0.0);
        kill.rebuildSeconds =
            args.getDouble("kill-rebuild", -1.0);
        plan.nodeKills.push_back(kill);
    }

    serve::RecoveryPolicy &recovery = cluster.recovery;
    recovery.maxAttemptsPerStage =
        static_cast<uint32_t>(args.getInt("retry-max", 3));
    recovery.retryBudget =
        static_cast<uint64_t>(args.getInt("retry-budget", 1 << 20));
    recovery.backoffBaseSeconds = args.getDouble("backoff", 20.0);
    recovery.backoffMultiplier =
        args.getDouble("backoff-mult", 2.0);
    recovery.msaDeadlineSeconds =
        args.getDouble("deadline-msa", 0.0);
    recovery.gpuDeadlineSeconds =
        args.getDouble("deadline-gpu", 0.0);
    if (args.has("respawn-s"))
        recovery.gpuRespawnSeconds =
            args.getDouble("respawn-s", 0.0);
    recovery.degradeOnExhaustion = !args.getSwitch("no-degrade");

    std::printf(
        "Serving cluster on %s: %u MSA workers (%uT each), "
        "%u GPU workers, policy %s,\n"
        "admission cap %zu, MSA cache %s; open-loop %.3f req/s "
        "for %.0f s (seed %llu)\n\n",
        platform.name.c_str(), cluster.msaWorkers,
        cluster.msaThreadsPerWorker, cluster.gpuWorkers,
        serve::policyName(cluster.policy),
        cluster.admissionCapacity,
        formatBytes(cluster.msaCacheBudgetBytes).c_str(),
        workload.requestsPerSecond, workload.durationSeconds,
        static_cast<unsigned long long>(workload.seed));

    if (cluster.simCacheThreshold > 0.0)
        std::printf("Similarity cache tier: Jaccard threshold "
                    "%.2f, delta retention %.2f, workload "
                    "mutation rate %.3f%%\n\n",
                    cluster.simCacheThreshold,
                    cluster.simCacheMinRetention,
                    100.0 * workload.mutationRate);

    if (cluster.batchMax > 1)
        std::printf("Continuous batching: up to %u per dispatch, "
                    "wait %.0f ms, bucket %u tokens, "
                    "%u GPUs/node\n\n",
                    cluster.batchMax,
                    cluster.batchWaitSeconds * 1000.0,
                    cluster.bucketTokens, cluster.gpusPerNode);

    if (cluster.topology.nodes > 1)
        std::printf("Topology: %u nodes (worker pools per node), "
                    "links %.1f Gb/s, %.1f us latency\n\n",
                    cluster.topology.nodes,
                    cluster.topology.link.bandwidthBytesPerSec *
                        8.0 / 1e9,
                    cluster.topology.link.latencySeconds * 1e6);

    if (!plan.empty())
        std::printf("Fault plan (seed %llu): msa-crash %.3f, "
                    "gpu-crash %.3f, permanent %.3f,\n"
                    "  storage-err %.3f, storage-spike %.3f "
                    "(x%.1f), cache-corrupt %.3f; retries <= %u "
                    "per stage\n\n",
                    static_cast<unsigned long long>(plan.seed),
                    plan.msaCrashProb, plan.gpuCrashProb,
                    plan.permanentProb, plan.storageErrorProb,
                    plan.storageSpikeProb, plan.storageSpikeFactor,
                    plan.cacheCorruptProb,
                    recovery.maxAttemptsPerStage);

    const auto requests = serve::generateRequests(workload);
    const auto result = serve::simulateCluster(
        platform, core::Workspace::shared(), requests, cluster);
    const auto report = serve::buildSloReport(result);
    printSloReport(report, platform.name);

    TextTable samples("Per-sample MSA service time (memoized)");
    samples.setHeader({"Sample", "MSA (s)"});
    for (const auto &[name, secs] : result.msaSecondsBySample)
        samples.addRow({name, strformat("%.1f", secs)});
    if (samples.rowCount() > 0)
        samples.print();

    if (args.getSwitch("db-streaming")) {
        // Real-I/O streaming-database check: compress the RNA
        // collection into an AFBC container (private Vfs copy; the
        // shared workspace stays untouched), scan it through the
        // bounded decode cache, and report the residency the
        // paper-scale footprint would need.
        const uint64_t budget = static_cast<uint64_t>(
                                    args.getInt("db-budget-mb", 8))
                                << 20;
        io::Vfs vfs = core::Workspace::shared().vfs();
        io::StorageDevice dev;
        io::PageCache pcache(256ull << 20, &dev);
        const auto comp = msa::compressDatabase(
            vfs, "rfam_scaled.fasta", "rfam_scaled.afbc");
        auto sdb = msa::StreamingSequenceDatabase::open(
            vfs, pcache, "rfam_scaled.afbc", bio::MoleculeType::Rna,
            0.0, budget);
        sdb.setPaperScaleBytes(msa::paperdb::kRnaDbBytes);
        const auto query = sdb.materialize(0, 0.0);
        const auto prof = msa::ProfileHmm::fromSequence(
            query, msa::ScoreMatrix::nucleotide());
        const auto scan =
            msa::searchDatabaseStreaming(prof, sdb, {});

        TextTable st("Streaming compressed database (RNA "
                     "collection)");
        st.setHeader({"Metric", "Value"});
        st.addRow({"FASTA bytes", formatBytes(comp.rawBytes)});
        st.addRow({"AFBC bytes",
                   formatBytes(comp.compressedBytes)});
        st.addRow({"compression ratio",
                   strformat("%.2fx", comp.ratio())});
        st.addRow({"targets scanned",
                   strformat("%llu",
                             static_cast<unsigned long long>(
                                 scan.stats.targetsScanned))});
        st.addRow({"decode budget", formatBytes(budget)});
        st.addRow({"peak resident",
                   formatBytes(sdb.peakResidentBytes())});
        st.addRow({"paper-scale footprint",
                   formatBytes(sdb.info().paperScaleBytes)});
        st.print();
    }

    if (args.has("csv")) {
        serve::requestCsv(result).writeFile(args.get("csv"));
        std::printf("Per-request CSV written to %s\n",
                    args.get("csv").c_str());
    }
    if (args.has("report-out")) {
        io::writeTextFile(args.get("report-out"),
                          serve::canonicalSloText(report));
        std::printf("Canonical report written to %s\n",
                    args.get("report-out").c_str());
    }
    if (args.has("fault-log")) {
        io::writeTextFile(args.get("fault-log"), result.faultLog);
        std::printf("Fault log (%llu events) written to %s\n",
                    static_cast<unsigned long long>(
                        result.faultsInjected),
                    args.get("fault-log").c_str());
    }
    if (args.has("comm-trace")) {
        // A single-node run sends nothing and writes an empty file.
        io::writeTextFile(args.get("comm-trace"),
                          result.multiNode ? result.commTrace.render()
                                           : std::string());
        std::printf("Comm trace (%llu messages) written to %s\n",
                    static_cast<unsigned long long>(
                        result.comm.messages),
                    args.get("comm-trace").c_str());
    }
    return 0;
}

int
cmdEstimate(const CliArgs &args)
{
    const auto sample = bio::makeSample(args.get("sample", "6QNR"));
    const auto platform =
        platformByName(args.get("platform", "desktop"));
    const auto estimate = core::estimateMemory(
        sample.complex, platform,
        static_cast<uint32_t>(args.getInt("threads", 8)));
    std::printf("%s", estimate.render().c_str());
    return estimate.willOom() ? 1 : 0;
}

int
cmdOpgraph(const CliArgs &args)
{
    const model::ModelConfig cfg;
    size_t tokens = 0;
    if (args.has("tokens")) {
        const int64_t n = args.getInt("tokens", 0);
        if (n < 1)
            fatal("opgraph: --tokens must be >= 1");
        tokens = static_cast<size_t>(n);
    } else {
        tokens = bio::makeSample(args.get("sample", "2PV7"))
                     .complex.totalResidues();
    }

    const std::string module = args.get("module", "all");
    opgraph::OpGraph graph;
    if (module == "all")
        graph = opgraph::buildInferenceGraph(tokens, cfg);
    else if (module == "pairformer")
        graph = opgraph::buildPairformerGraph(tokens, cfg);
    else if (module == "diffusion")
        graph = opgraph::buildDiffusionGraph(tokens, cfg);
    else
        fatal("opgraph: --module must be all, pairformer, or "
              "diffusion");

    if (args.getSwitch("dump")) {
        const std::string format = args.get("format", "text");
        std::string out;
        if (format == "text")
            out = opgraph::render(graph);
        else if (format == "json")
            out = opgraph::toJson(graph).dumpPretty() + "\n";
        else
            fatal("opgraph: --format must be text or json");
        if (args.has("out")) {
            io::writeTextFile(args.get("out"), out);
            std::printf("Operator graph written to %s\n",
                        args.get("out").c_str());
        } else {
            std::printf("%s", out.c_str());
        }
        return 0;
    }

    const auto platform =
        platformByName(args.get("platform", "server"));
    const auto attr =
        cachesim::attributeOpGraph(graph, platform);

    std::printf("%s: %zu ops, %.3e FLOPs, %s traffic, %llu "
                "kernels\n",
                graph.label.c_str(), graph.ops.size(),
                graph.totalFlops(),
                formatBytes(static_cast<uint64_t>(
                                graph.totalTrafficBytes()))
                    .c_str(),
                static_cast<unsigned long long>(
                    graph.totalKernels()));
    std::printf("CPU roofline on %s: %.3e FLOP/s peak, %.3e B/s "
                "DRAM\n\n",
                platform.name.c_str(), attr.peakFlops,
                attr.memBandwidth);

    TextTable t(strformat("Operator attribution (%s, N=%zu)",
                          platform.name.c_str(), tokens));
    t.setHeader({"Op", "Layer", "FLOPs", "Bytes", "Bound",
                 "Time (s)", "Share"});
    for (const auto &a : attr.ops)
        t.addRow({strformat("%u", a.id), a.name,
                  strformat("%.2e", a.flops),
                  strformat("%.2e", a.trafficBytes),
                  a.memoryBound ? "memory" : "compute",
                  strformat("%.3f", a.boundSeconds),
                  strformat("%.1f%%", 100.0 * a.share)});
    t.print();
    std::printf("\nmemory-bound time: %.1f%% of %.3f s\n",
                attr.totalSeconds > 0.0
                    ? 100.0 * attr.memoryBoundSeconds /
                          attr.totalSeconds
                    : 0.0,
                attr.totalSeconds);
    return 0;
}

int
cmdAdvise(const CliArgs &args)
{
    const auto sample = bio::makeSample(args.get("sample", "2PV7"));
    const auto platform =
        platformByName(args.get("platform", "server"));
    const auto advice = core::recommendThreads(
        sample.complex, platform, core::Workspace::shared(),
        args.getIntList("threads", {1, 2, 4, 6, 8}));
    std::printf("recommended threads: %u (predicted %.1f s; "
                "fixed 8T default %.1f s)\n",
                advice.recommendedThreads, advice.predictedSeconds,
                advice.defaultSeconds);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const std::string cmd = args.command("help");
    try {
        if (cmd == "list")
            return cmdList();
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "inference")
            return cmdInference(args);
        if (cmd == "serve")
            return cmdServe(args);
        if (cmd == "estimate")
            return cmdEstimate(args);
        if (cmd == "advise")
            return cmdAdvise(args);
        if (cmd == "opgraph")
            return cmdOpgraph(args);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::printf(
        "usage: afsysbench <list|run|inference|serve|estimate|"
        "advise|opgraph>\n"
        "  common: [--sample S] [--platform P] [--threads 1,2,4] "
        "[--repeats N]\n"
        "          [--preload] [--persistent] [--csv FILE]\n"
        "  serve:  [--msa-workers N] [--gpu-workers M] [--rps R] "
        "[--duration S]\n"
        "          [--cache-mb MB] [--policy fifo|sjf] "
        "[--queue-cap N] [--mix \"2PV7=2,promo=1\"]\n"
        "          [--unique K] [--seed N] [--msa-threads T]\n"
        "          batching: [--batch-max B] [--batch-wait-ms W] "
        "[--gpus-per-node G]\n"
        "          [--bucket-tokens T]\n"
        "          similarity: [--sim-cache-threshold J] "
        "[--sim-cache-retention R]\n"
        "          [--mutation-rate P] [--db-streaming] "
        "[--db-budget-mb MB]\n"
        "          faults: [--fault-seed N] [--fault-msa-crash P] "
        "[--fault-gpu-crash P]\n"
        "          [--fault-permanent P] [--fault-storage-err P] "
        "[--fault-storage-spike P]\n"
        "          [--fault-spike-factor F] "
        "[--fault-cache-corrupt P]\n"
        "          recovery: [--retry-max N] [--retry-budget N] "
        "[--backoff S] [--backoff-mult F]\n"
        "          [--deadline-msa S] [--deadline-gpu S] "
        "[--respawn-s S] [--no-degrade]\n"
        "          topology: [--nodes N] [--link-gbps G] "
        "[--link-latency-us U]\n"
        "          [--link-serialize-gbps G] "
        "[--kill-node N --kill-at S [--kill-rebuild S]]\n"
        "          output: [--report-out FILE] [--fault-log FILE] "
        "[--comm-trace FILE]\n"
        "  opgraph: [--sample S | --tokens N] "
        "[--module all|pairformer|diffusion]\n"
        "          [--dump] [--format text|json] [--out FILE] "
        "[--platform P]\n"
        "  platforms: %s\n",
        kPlatformNames);
    return cmd == "help" ? 0 : 1;
}
