/**
 * @file
 * Benchmark regression gate for CI.
 *
 * Compares a current benchmark JSON (bench_kernels --json,
 * bench_fig4_msa_scaling --json, bench_serving_cluster --json, or
 * bench_multinode_scaling --json; all emit the same
 * `{"benchmarks": [{"name", "ns_per_op", ...}]}` shape) against a
 * committed baseline and fails when any benchmark regresses beyond
 * the tolerance.
 *
 * CI runners and developer machines run at different speeds, so raw
 * ns comparisons would be meaningless for wall-clock benches.
 * Instead the per-benchmark ratio current/baseline is divided by the
 * *median* ratio across all shared benchmarks — the median absorbs
 * uniform machine-speed differences, leaving only relative
 * regressions: a benchmark that slowed down relative to its peers
 * sticks out even when the whole suite runs 2x slower on a cold CI
 * runner. Simulator benches (bench_serving_cluster,
 * bench_multinode_scaling) run on a virtual clock and are
 * seed-deterministic, so they skip the normalization via --absolute
 * and can be gated with a tight tolerance.
 *
 * --trend keeps a committed history file
 * (`{"entries": [{"label", "benchmarks": [...]}]}`, e.g. the
 * repo-root BENCH_serving.json): the newest entry is the baseline,
 * and --append records the current run as a new entry after the
 * gate passes, with the current file's `"context"` object when it
 * has one.
 *
 * Usage:
 *   bench_check --baseline <json> --current <json>
 *               [--tolerance <ratio>] [--absolute]
 *   bench_check --trend <json> --current <json>
 *               [--tolerance <ratio>] [--absolute]
 *               [--append] [--label <text>]
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/stats.hh"

using namespace afsb;

namespace {

/** Parse a JSON file; exit(2) with a message when unreadable. */
JsonValue
loadDoc(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_check: cannot open %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseJson(ss.str());
}

/** name -> ns_per_op from a `"benchmarks": [...]` array. */
std::map<std::string, double>
benchMap(const JsonValue &benches)
{
    std::map<std::string, double> out;
    for (size_t i = 0; i < benches.size(); ++i) {
        const JsonValue &b = benches.at(i);
        out[b.at("name").asString()] =
            b.at("ns_per_op").asNumber();
    }
    return out;
}

/**
 * Gate @p current against @p baseline.
 * @return the number of regressed benchmarks, or -1 when the two
 *         files share no benchmark names.
 */
int
compare(const std::map<std::string, double> &baseline,
        const std::map<std::string, double> &current,
        double tolerance, bool absolute)
{
    struct Row
    {
        std::string name;
        double ratio;  ///< current / baseline, raw
    };
    std::vector<Row> rows;
    std::vector<double> ratios;
    for (const auto &[name, ns] : current) {
        const auto it = baseline.find(name);
        if (it == baseline.end() || it->second <= 0.0)
            continue;
        rows.push_back({name, ns / it->second});
        ratios.push_back(rows.back().ratio);
    }
    if (rows.empty())
        return -1;

    // Machine-speed normalization: divide out the median ratio.
    // --absolute skips it — virtual-clock benches are
    // machine-independent, so the raw ratio is the signal.
    const double speed = absolute ? 1.0 : medianOf(ratios);
    std::printf("bench_check: %zu shared benchmarks, machine-speed "
                "factor %.3f%s, tolerance %.2fx\n",
                rows.size(), speed,
                absolute ? " (absolute)" : "", tolerance);

    int failures = 0;
    for (const auto &row : rows) {
        const double normalized =
            speed > 0.0 ? row.ratio / speed : row.ratio;
        const bool bad = normalized > tolerance;
        std::printf("  %-48s raw %.3fx  normalized %.3fx%s\n",
                    row.name.c_str(), row.ratio, normalized,
                    bad ? "  REGRESSION" : "");
        failures += bad ? 1 : 0;
    }
    return failures;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: bench_check --baseline <json> --current <json>\n"
        "                   [--tolerance <ratio>] [--absolute]\n"
        "       bench_check --trend <json> --current <json>\n"
        "                   [--tolerance <ratio>] [--absolute]\n"
        "                   [--append] [--label <text>]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baselinePath, currentPath, trendPath, label;
    double tolerance = 1.30;
    bool absolute = false, append = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc)
            baselinePath = argv[++i];
        else if (std::strcmp(argv[i], "--current") == 0 &&
                 i + 1 < argc)
            currentPath = argv[++i];
        else if (std::strcmp(argv[i], "--trend") == 0 &&
                 i + 1 < argc)
            trendPath = argv[++i];
        else if (std::strcmp(argv[i], "--label") == 0 &&
                 i + 1 < argc)
            label = argv[++i];
        else if (std::strcmp(argv[i], "--tolerance") == 0 &&
                 i + 1 < argc)
            tolerance = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--absolute") == 0)
            absolute = true;
        else if (std::strcmp(argv[i], "--append") == 0)
            append = true;
        else {
            usage();
            return 2;
        }
    }
    if (currentPath.empty() || tolerance <= 0.0 ||
        (baselinePath.empty() == trendPath.empty())) {
        usage();
        return 2;
    }

    const JsonValue currentDoc = loadDoc(currentPath);
    const JsonValue &currentBenches = currentDoc.at("benchmarks");
    const auto current = benchMap(currentBenches);

    // --- Classic two-file mode -----------------------------------
    if (!baselinePath.empty()) {
        const auto baseline =
            benchMap(loadDoc(baselinePath).at("benchmarks"));
        const int failures =
            compare(baseline, current, tolerance, absolute);
        if (failures < 0) {
            std::fprintf(stderr,
                         "bench_check: no shared benchmarks "
                         "between %s and %s\n",
                         baselinePath.c_str(), currentPath.c_str());
            return 2;
        }
        if (failures) {
            std::fprintf(stderr,
                         "bench_check: %d benchmark(s) regressed "
                         "more than %.2fx vs baseline\n",
                         failures, tolerance);
            return 1;
        }
        std::printf("bench_check: OK\n");
        return 0;
    }

    // --- Trend mode: newest entry is the baseline ----------------
    JsonValue trend = JsonValue::makeObject();
    trend["entries"] = JsonValue::makeArray();
    {
        std::ifstream probe(trendPath);
        if (probe)
            trend = loadDoc(trendPath);
        else if (!append) {
            std::fprintf(stderr,
                         "bench_check: trend file %s does not "
                         "exist (use --append to seed it)\n",
                         trendPath.c_str());
            return 2;
        }
    }
    const JsonValue &entries = trend.at("entries");
    if (entries.size() > 0) {
        const JsonValue &last = entries.at(entries.size() - 1);
        std::printf("bench_check: trend baseline '%s' (%zu "
                    "entries in %s)\n",
                    last.at("label").asString().c_str(),
                    entries.size(), trendPath.c_str());
        const int failures =
            compare(benchMap(last.at("benchmarks")), current,
                    tolerance, absolute);
        if (failures < 0) {
            std::fprintf(stderr,
                         "bench_check: no shared benchmarks "
                         "between %s and %s\n",
                         trendPath.c_str(), currentPath.c_str());
            return 2;
        }
        if (failures) {
            std::fprintf(stderr,
                         "bench_check: %d benchmark(s) regressed "
                         "more than %.2fx vs newest trend entry\n",
                         failures, tolerance);
            return 1;
        }
    } else {
        std::printf("bench_check: trend file empty — nothing to "
                    "gate against\n");
    }

    if (append) {
        JsonValue entry = JsonValue::makeObject();
        entry["label"] = label.empty() ? "unlabeled" : label;
        // bench_kernels names its SIMD clone here; keep it with the
        // row so the trend says which ISA each entry timed.
        if (currentDoc.has("context"))
            entry["context"] = currentDoc.at("context");
        entry["benchmarks"] = currentBenches;
        trend["entries"].push(std::move(entry));
        std::ofstream out(trendPath);
        if (!out) {
            std::fprintf(stderr,
                         "bench_check: cannot write %s\n",
                         trendPath.c_str());
            return 2;
        }
        out << trend.dumpPretty() << "\n";
        std::printf("bench_check: appended entry '%s' to %s (%zu "
                    "entries)\n",
                    label.empty() ? "unlabeled" : label.c_str(),
                    trendPath.c_str(), trend.at("entries").size());
    }
    std::printf("bench_check: OK\n");
    return 0;
}
