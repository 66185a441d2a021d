/**
 * @file
 * perfbench driver: runs one workload with one seed for a fixed wall
 * time and prints its metrics. The last line of standard output is
 * one JSON object with keys correct, attempted, failed and metrics:
 * the end-to-end metrics untraced (--trace 0), the per-layer metrics
 * traced (--trace 1).
 *
 *   perfbench --workload paper-figures --seed 1 --seconds 30 --trace 0
 *             [--digests DIR] [--trace-out FILE] [--write-digests]
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "measure.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/** The seed whose digests are committed under perfbench/digests. */
constexpr uint64_t kDefaultSeed = 1;

/** Set-up repeats: at least 3, more while they total under 2 s. */
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudget = 2.0;

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"op_p50_s", "s"},         {"op_tail_s", "s"},
    {"cpu_s_per_op", "s"},     {"peak_rss_mib", "MiB"},
};

/** Every per-layer metric of every workload, as BENCHMARK.json lists
 *  them; a workload reports 0 for layers it does not exercise. */
const MetricDef kPerLayer[] = {
    {"core.msa_phase_s", "s"},
    {"core.msa_phase_self_s", "s"},
    {"gpusim.simulate_inference_s", "s"},
    {"msa.traced_scan_s", "s"},
    {"cachesim.replay_s", "s"},
    {"cachesim.build_s", "s"},
    {"msa.untraced_scan_s", "s"},
    {"msa.cells", "count"},
    {"msa.traced_cells_per_s", "1/s"},
    {"cachesim.trace_accesses", "count"},
    {"cachesim.accesses_per_s", "1/s"},
    {"msa.msv_pass_rate", "ratio"},
    {"msa.search_s", "s"},
    {"msa.cells_per_s", "1/s"},
    {"util.pool_search_s", "s"},
    {"msa.stage.occupancy", "ratio"},
    {"msa.stage.chunk_waits", "count"},
    {"msa.stage.producer_waits", "count"},
    {"msa.stage.survivors_inline", "count"},
    {"model.infer_s", "s"},
    {"model.embed_s", "s"},
    {"model.pairformer_s", "s"},
    {"model.diffusion_s", "s"},
    {"model.confidence_s", "s"},
    {"model.infer_gap_s", "s"},
    {"util.pool_infer_s", "s"},
    {"util.pool_pairformer_s", "s"},
    {"util.pool_infer_gap_s", "s"},
    {"model.triangle_attention_s", "s"},
    {"model.triangle_mult_s", "s"},
    {"model.pair_transition_s", "s"},
    {"model.single_attention_s", "s"},
    {"model.token_attention_s", "s"},
    {"tensor.triangle_attention_gflops", "GFLOP/s"},
    {"tensor.triangle_mult_gflops", "GFLOP/s"},
    {"model.pairformer_scaling", "ratio"},
    {"tensor.arena_high_water_mib", "MiB"},
    {"serve.simulate_s", "s"},
    {"serve.report_s", "s"},
    {"serve.host_us_per_request", "us"},
    {"serve.offered", "count"},
    {"gpusim.simulate_inference_us", "us"},
    {"opgraph.build_us", "us"},
    {"net.messages", "count"},
    {"fault.injected", "count"},
    {"serve.oracle_s", "s"},
    {"serve.generate_requests_s", "s"},
    {"host.calib_s", "s"},
};

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string digests;
    std::string traceOut;
    bool writeDigests = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<paper-figures|native-fold|serve-sim> --seed N "
                 "--seconds S --trace 0|1 [--digests DIR] "
                 "[--trace-out FILE] [--write-digests]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--write-digests") {
            a.writeDigests = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                usage("bad --seed " + v);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(a.seconds > 0.0))
                usage("bad --seconds " + v);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--digests") {
            a.digests = v;
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<std::pair<MetricDef, double>> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const auto &[def, value] = metrics[i];
        out += (i ? ", \"" : "\"") + std::string(def.name) +
               "\": {\"value\": " + jsonNumber(value) +
               ", \"unit\": \"" + def.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Fingerprint fp = hostFingerprint();
    auto wl = makeWorkload(args.workload, fp.nproc);
    if (!wl)
        usage("unknown workload " + args.workload);

    std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" "
                "flags=\"%s\" build=%s max_threads=%u\n",
                fp.nproc, fp.cpuModel.c_str(), fp.compiler.c_str(),
                fp.flags.c_str(), fp.buildType.c_str(), wl->threads());
    std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("op: %s\n", wl->opSize().c_str());
    const double calibStart = calibrationSeconds();

    SpanRecorder rec(args.trace);
    std::vector<double> setups;
    double setupTotal = 0.0;
    const int minSetups = args.trace ? 1 : kMinSetups;
    while (static_cast<int>(setups.size()) < minSetups ||
           (setupTotal < kSetupBudget &&
            static_cast<int>(setups.size()) < kMaxSetups && !args.trace)) {
        SpanRecorder off;
        const double t0 = now();
        wl->setup(args.seed, args.trace ? rec : off);
        setups.push_back(now() - t0);
        setupTotal += setups.back();
    }
    const double setupS = median(setups);
    std::printf("setup: median %.4f s over %zu set-ups:", setupS,
                setups.size());
    for (double t : setups)
        std::printf(" %.4f", t);
    std::printf("\n");

    DigestBook book;
    if (args.seed == kDefaultSeed && !args.digests.empty() &&
        !args.writeDigests) {
        std::ifstream in(args.digests + "/" + args.workload + ".txt");
        book.load(in);
    }
    std::printf("digests: %zu committed references\n",
                book.referenceCount());
    OpRunner runner(*wl, book);
    SpanRecorder off;

    std::vector<std::pair<MetricDef, double>> metrics;
    double calibEnd = 0.0;
    if (!args.trace) {
        // Whole passes, so every run times the same set of ops, and a
        // fixed number of them for a given --seconds, so every run of
        // a commit has the same op count (and tail percentile).
        const size_t passes = static_cast<size_t>(std::max(
            1L, std::lround(args.seconds / wl->nominalPassSeconds())));
        std::vector<double> times;
        std::map<std::string, std::vector<double>> byOp;
        const double cpu0 = cpuSeconds();
        const double start = now();
        for (size_t pass = 1; pass <= passes; ++pass) {
            const double p0 = now();
            for (size_t i = 0; i < wl->opCount(); ++i) {
                times.push_back(runner.run(i, off, false));
                byOp[wl->opLabel(i)].push_back(times.back());
            }
            std::printf("pass %zu: %.4f s\n", pass, now() - p0);
        }
        const double wall = now() - start;
        const double cpu = cpuSeconds() - cpu0;
        calibEnd = calibrationSeconds();
        const double n = static_cast<double>(times.size());
        const Tail tail = tailOf(times);
        std::printf("measured: %zu ops in %zu passes, %.4f s wall, "
                    "%.4f s cpu\n",
                    times.size(), passes, wall, cpu);
        std::printf("op_tail_s: p%.1f over %zu ops\n", tail.percentile,
                    tail.ops);
        for (const auto &[label, t] : byOp)
            std::printf("op %s: median %.4f s\n", label.c_str(),
                        median(t));
        const double values[] = {setupS,       n / wall,
                                 median(times), tail.value,
                                 cpu / n,      peakRssMib()};
        for (size_t k = 0; k < std::size(kEndToEnd); ++k)
            metrics.emplace_back(kEndToEnd[k], values[k]);
    } else {
        // Each traced op runs first untraced, then with spans and its
        // layer replay; interleaving keeps warm-up and drift out of
        // the overhead figure.
        const auto traced = wl->tracedOps();
        double untraced = 0.0, tracedCalls = 0.0;
        for (size_t i : traced) {
            untraced += runner.run(i, off, false);
            tracedCalls += runner.run(i, rec, true);
        }
        std::printf("tracing overhead: %+.2f%% (op calls %.4f s traced "
                    "vs %.4f s untraced over %zu ops)\n",
                    untraced > 0 ? 100.0 * (tracedCalls / untraced - 1.0)
                                 : 0.0,
                    tracedCalls, untraced, traced.size());
        calibEnd = calibrationSeconds();
        std::printf("spans nested: %s\n", rec.nested() ? "yes" : "NO");
        std::printf("%s", rec.selfTimeTable().c_str());
        auto layers = wl->layerMetrics(rec, traced.size());
        layers["host.calib_s"] = 0.5 * (calibStart + calibEnd);
        for (const MetricDef &def : kPerLayer) {
            const auto it = layers.find(def.name);
            const bool have = it != layers.end();
            if (!have)
                std::printf("layer %s: not exercised by %s\n", def.name,
                            args.workload.c_str());
            metrics.emplace_back(def, have ? it->second : 0.0);
        }
        if (!args.traceOut.empty()) {
            std::ofstream out(args.traceOut);
            out << rec.chromeTrace();
            std::printf("trace: %zu spans written to %s\n",
                        rec.spans().size(), args.traceOut.c_str());
        }
    }

    for (const auto &[label, digest] : book.seen())
        std::printf("digest %s %s\n", label.c_str(), hex(digest).c_str());
    if (args.writeDigests && !args.digests.empty()) {
        std::ofstream out(args.digests + "/" + args.workload + ".txt");
        out << "# op digests for seed " << kDefaultSeed << "\n";
        for (const auto &[label, digest] : book.seen())
            out << label << " " << hex(digest) << "\n";
    }

    std::printf("host.calib_s: start %.4f end %.4f drift %+.1f%%\n",
                calibStart, calibEnd,
                100.0 * (calibEnd / calibStart - 1.0));
    std::printf("error_rate: %.6f (%llu failed of %llu attempted)\n",
                runner.attempted() ? static_cast<double>(runner.failed()) /
                                       static_cast<double>(runner.attempted())
                                 : 0.0,
                static_cast<unsigned long long>(runner.failed()),
                static_cast<unsigned long long>(runner.attempted()));
    printResult(runner.failed() == 0, runner.attempted(), runner.failed(),
                metrics);
    return 0;
}
