/**
 * @file
 * Tail-latency SLO reporting for cluster simulations.
 *
 * Summarizes one ClusterResult the way an on-call dashboard would:
 * latency percentiles (p50/p95/p99) over completed requests, the
 * time-in-queue vs time-in-service split, MSA cache effectiveness,
 * per-pool utilization, and the shed count. Renders as an ASCII
 * table and exports per-request rows as CSV.
 */

#ifndef AFSB_SERVE_REPORT_HH
#define AFSB_SERVE_REPORT_HH

#include <array>
#include <string>

#include "serve/cluster.hh"
#include "util/csv.hh"
#include "util/stats.hh"

namespace afsb::serve {

/** One simulated run reduced to its SLO dashboard numbers. */
struct SloReport
{
    uint64_t offered = 0;
    uint64_t completed = 0;
    uint64_t degraded = 0;
    uint64_t failed = 0;
    uint64_t shed = 0;

    /** End-to-end latency over completed requests. */
    Percentiles latency;
    double meanLatency = 0.0;
    double maxLatency = 0.0;

    /** Where completed requests spent their time, on average. */
    double meanMsaQueueSeconds = 0.0;
    double meanGpuQueueSeconds = 0.0;
    double meanServiceSeconds = 0.0;

    double cacheHitRate = 0.0;
    uint64_t cacheEvictions = 0;
    uint64_t cacheEntries = 0;
    uint64_t cacheBytesInUse = 0;

    double msaUtilization = 0.0;
    double gpuUtilization = 0.0;

    double throughputPerHour = 0.0;
    double makespanSeconds = 0.0;

    /** True when the run used the similarity cache tier
     *  (sim-cache-threshold > 0). Gates the approximate-hit section
     *  everywhere, so exact-only report text is byte-identical to
     *  the pre-similarity simulator. */
    bool simCacheEnabled = false;

    /** Similarity-tier dashboard (approximate hits + delta
     *  re-search; sim-cache runs only). */
    struct SimSection
    {
        /** Configured Jaccard acceptance threshold. */
        double threshold = 0.0;

        /** LSH probes issued on exact-cache misses (cache level —
         *  a multi-node broadcast counts once per shard). */
        uint64_t approxLookups = 0;

        /** Requests whose MSA stage ran as an accepted delta
         *  re-search over a cached survivor set. */
        uint64_t approxHits = 0;

        /** Requests whose delta was rejected by its acceptance
         *  check: they paid the delta *and* the full scan. */
        uint64_t deltaFallbacks = 0;

        /** Accepted probes / probes, at the cache level. */
        double approxHitRate = 0.0;

        /** Net MSA service seconds avoided (full-minus-delta gap
         *  on accepted deltas, minus wasted fallback deltas). */
        double deltaSecondsSaved = 0.0;

        /** Multi-node only: similarity probes answered by / hits
         *  served from a remote cache shard. */
        uint64_t remoteApproxProbes = 0;
        uint64_t remoteApproxHits = 0;
    } sim;

    /** True when the run used continuous batching (batch-max > 1).
     *  Gates the batching section everywhere, so batch-max 1
     *  report text is byte-identical to the pre-batching
     *  simulator. */
    bool batchingEnabled = false;

    /** Continuous-batching dashboard (batched runs only). */
    struct BatchSection
    {
        uint64_t batchesFormed = 0;
        uint64_t batchedRequests = 0;
        double meanOccupancy = 0.0;
        uint64_t maxOccupancy = 0;

        /** Padded-token FLOPs as a share of all executed FLOPs. */
        double paddingWastePct = 0.0;

        uint64_t batchCompiles = 0;

        /** Requests served per compile actually paid: > 1 means
         *  the shape-bucketed executables were shared. */
        double compileAmortization = 0.0;

        /** Dispatches truncated below batch-max by the VRAM cap. */
        uint64_t vramSplits = 0;

        uint32_t gpusPerNode = 1;
    } batch;

    /** True when the run had a live fault plan. Gates the fault
     *  section everywhere, so fault-free report text is
     *  byte-identical to a build without the fault machinery. */
    bool faultsEnabled = false;

    /** Fault / recovery dashboard (all zero on fault-free runs). */
    struct FaultSection
    {
        uint64_t injected = 0;
        std::array<uint64_t, fault::kFaultKinds> byKind{};
        uint64_t retries = 0;
        uint64_t timeouts = 0;
        uint64_t msaRespawns = 0;
        uint64_t gpuRespawns = 0;
        uint64_t permanentWorkerLosses = 0;
        uint64_t cacheCorruptionsDetected = 0;
        double lostServiceSeconds = 0.0;

        /** Full-quality vs any-quality responses per hour. */
        double goodputPerHour = 0.0;

        /** p99 over all served responses (completed + degraded). */
        double p99AllSeconds = 0.0;

        /** p99 over completed requests no fault ever touched. */
        double p99CleanSeconds = 0.0;
        uint64_t cleanCompleted = 0;
    } fault;

    /** True when the run used a multi-node topology. Gates the
     *  cross-node section, so single-node report text is
     *  byte-identical to the pre-topology simulator. */
    bool multiNode = false;

    /** Cross-node dashboard (multi-node runs only). */
    struct NetSection
    {
        uint32_t nodes = 1;
        uint64_t nodeKills = 0;
        uint64_t nodeRebuilds = 0;
        uint64_t rerouted = 0;

        uint64_t commMessages = 0;
        uint64_t commBytes = 0;
        double commSerializeSeconds = 0.0;
        double commTransferSeconds = 0.0;
        double commLatencySeconds = 0.0;

        /** Communication share of all modeled work:
         *  comm / (comm + msa busy + gpu busy). */
        double commShare = 0.0;

        uint64_t remoteCacheLookups = 0;
        uint64_t remoteCacheHits = 0;

        /** Completed-request p99 split by whether the MSA-cache
         *  shard was local to the serving node. */
        double p99LocalSeconds = 0.0;
        double p99RemoteSeconds = 0.0;

        /** Per-node serving summary, node id ascending. */
        struct NodeLine
        {
            uint64_t routed = 0;
            double msaUtilization = 0.0;
            double gpuUtilization = 0.0;
        };
        std::vector<NodeLine> perNode;

        /** Per-link traffic, (src, dst) ascending; quiet links are
         *  omitted. Utilization is wire busy time / makespan. */
        struct LinkLine
        {
            uint32_t src = 0;
            uint32_t dst = 0;
            uint64_t messages = 0;
            uint64_t bytes = 0;
            double utilization = 0.0;
        };
        std::vector<LinkLine> links;
    } net;

    /** Fraction of offered load rejected by admission control. */
    double
    shedRate() const
    {
        return offered ? static_cast<double>(shed) /
                             static_cast<double>(offered)
                       : 0.0;
    }
};

/** Reduce @p result to its SLO report. */
SloReport buildSloReport(const ClusterResult &result);

/** Print the report as ASCII tables under @p title. */
void printSloReport(const SloReport &report,
                    const std::string &title);

/**
 * Canonical key=value serialization of @p report, one field per
 * line, every floating-point value rounded to %.3f. Two runs with
 * identical seeds render byte-identical text; the fixed rounding
 * also makes the committed fault-free golden
 * (bench/baselines/serve_slo.txt) stable across compilers, whose
 * fused-multiply-add choices differ in the last few ulps. The
 * fault section is emitted only when faults were enabled.
 */
std::string canonicalSloText(const SloReport &report);

/**
 * Inverse of canonicalSloText: parse the canonical key=value text
 * back into a report. Every field canonicalSloText emits round
 * trips — re-serializing the parsed report reproduces the input
 * byte for byte (the %.3f rounding is a fixed point). fatal() on a
 * malformed line, an unknown key, or keys out of canonical order.
 */
SloReport parseSloText(const std::string &text);

/**
 * Per-request CSV export: one row per offered request with
 * timestamps, stage waits, cache-hit flag, and outcome.
 */
CsvWriter requestCsv(const ClusterResult &result);

} // namespace afsb::serve

#endif // AFSB_SERVE_REPORT_HH
