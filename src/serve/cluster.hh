/**
 * @file
 * Discrete-event simulation of an end-to-end AF3 serving cluster.
 *
 * The ParaFold split: the CPU-bound MSA phase and the GPU-bound
 * inference phase run on independent worker pools connected by a
 * queue, so neither resource idles while the other is the
 * bottleneck. N MSA workers each run the repo's real MSA engine
 * (memoized per distinct sample — the phase is deterministic);
 * M GPU workers are long-lived processes with persistent per-worker
 * XLA caches (Section VI persistent model state), paying GPU init
 * once and XLA compilation once per shape bucket. In front sits
 * cluster-wide admission control (bounded in-system population,
 * shed beyond) and the content-addressed MSA result cache
 * (serve::MsaResultCache), which lets repeated queries skip the MSA
 * stage entirely.
 *
 * The simulation advances a virtual clock over arrival/completion
 * events; with a fixed workload seed the outcome is bit-identical
 * across runs.
 *
 * Fault tolerance: a fault::Plan threads seeded chaos through both
 * stages — worker crashes (GPU workers lose their persistent XLA
 * cache and re-warm after respawn), storage read errors and latency
 * spikes during MSA service, MSA-cache corruption, and per-stage
 * deadlines. Recovery is per-request retry with exponential backoff
 * under a cluster-wide retry budget, worker respawn with a modeled
 * cold-start cost, and graceful degradation: when retries are
 * exhausted a request sheds its MSA stage and runs a
 * reduced-recycling inference pass, finishing as Outcome::Degraded
 * rather than being dropped. With an empty plan the event sequence
 * is bit-identical to a build without the fault machinery.
 */

#ifndef AFSB_SERVE_CLUSTER_HH
#define AFSB_SERVE_CLUSTER_HH

#include <array>
#include <map>
#include <string>
#include <vector>

#include "core/msa_phase.hh"
#include "fault/fault.hh"
#include "gpusim/xla.hh"
#include "net/comm_trace.hh"
#include "net/interconnect.hh"
#include "serve/msa_cache.hh"
#include "serve/scheduler.hh"
#include "serve/workload.hh"

namespace afsb::serve {

struct ClusterConfig;

/**
 * Deterministic per-sample MSA characterization, shared across
 * simulations. The MSA phase depends only on (sample, platform,
 * engine options), so each distinct sample is run once through the
 * real engine and memoized. Passing one oracle to many
 * simulateCluster calls (e.g. a 200-seed chaos sweep over the same
 * mix) pays the engine runs once; the caller must not reuse an
 * oracle across different platforms or MSA options.
 */
class MsaServiceOracle
{
  public:
    struct Service
    {
        double seconds = 0.0;
        uint64_t resultBytes = 0;

        /**
         * Modeled cost of a delta re-search (msa::deltaSearch) for
         * a near-duplicate of this sample: the full MSA seconds
         * scaled by the fraction of pipeline cells a
         * survivors-only rescan touches (MSV over survivors
         * instead of the whole collection; the banded kernels ran
         * only on survivors to begin with), derived from the
         * engine's own scan counters.
         */
        double deltaSeconds = 0.0;
    };

    const Service &characterize(const sys::PlatformSpec &platform,
                                const core::Workspace &workspace,
                                const ClusterConfig &config,
                                const std::string &sample);

  private:
    std::map<std::string, Service> memo_;
};

/**
 * How the cluster recovers from injected faults. All knobs are
 * inert on a fault-free run (deadlines default off; nothing retries
 * when nothing fails).
 */
struct RecoveryPolicy
{
    /** Service dispatches allowed per stage, first try included. */
    uint32_t maxAttemptsPerStage = 3;

    /** Cluster-wide cap on retry dispatches across all requests;
     *  once spent, further failures degrade (or fail) directly. */
    uint64_t retryBudget = 1ull << 20;

    /** First retry waits this long; each further retry doubles it
     *  (times backoffMultiplier). */
    double backoffBaseSeconds = 20.0;
    double backoffMultiplier = 2.0;

    /** Per-attempt stage deadlines measured from stage enqueue;
     *  0 disables. An overrun aborts the attempt (kind
     *  request_timeout) and requeues under the retry policy. */
    double msaDeadlineSeconds = 0.0;
    double gpuDeadlineSeconds = 0.0;

    /** Supervisor delay before any crashed worker begins booting. */
    double respawnSpawnSeconds = 2.0;

    /** Boot cost of a respawned MSA worker process. */
    double msaRespawnSeconds = 15.0;

    /** Boot cost of a respawned GPU worker; negative derives it
     *  from gpusim::initPhaseSeconds (driver/context setup + VRAM
     *  mapping on the target platform). The respawned worker comes
     *  back with its context up but its XLA cache cold. */
    double gpuRespawnSeconds = -1.0;

    /** On retry exhaustion, shed to the no-MSA / reduced-recycling
     *  fallback (Outcome::Degraded) instead of failing hard. */
    bool degradeOnExhaustion = true;

    /** Fraction of the normal GPU-compute time a degraded
     *  (reduced-recycling) inference pass spends. */
    double degradedRecyclingFactor = 0.25;
};

/** Serving-cluster configuration. */
struct ClusterConfig
{
    /** CPU workers running the MSA phase — per node. */
    uint32_t msaWorkers = 4;

    /** GPU workers running inference (persistent processes) —
     *  per node. */
    uint32_t gpuWorkers = 2;

    /**
     * Serving topology. The default single node reproduces the
     * paper's single-host setup exactly: no interconnect traffic is
     * generated and the event sequence is bit-identical to the
     * pre-topology simulator. With nodes > 1 a request router
     * (endpoint topology.routerId()) fans arrivals out round-robin
     * over live nodes, the MSA cache shards by content hash, and
     * every cross-node byte pays the modeled link cost.
     */
    net::TopologyConfig topology;

    /** Wire size of a routed request (query + metadata). */
    uint64_t routeRequestBytes = 16ull << 10;

    /** Wire size of a finished structure response. */
    uint64_t routeResponseBytes = 4ull << 20;

    /** Wire size of a cache probe / negative reply. */
    uint64_t cacheControlBytes = 256;

    /** Max requests in the system (queued + in service); arrivals
     *  beyond are shed. */
    size_t admissionCapacity = 64;

    /** Dispatch ordering for both stage queues. */
    SchedPolicy policy = SchedPolicy::Fifo;

    /** MSA result cache budget; 0 disables the cache. */
    uint64_t msaCacheBudgetBytes = 512ull << 20;

    /**
     * Similarity cache tier: minimum estimated Jaccard between a
     * query's sketch and a cached entry's for an approximate hit
     * (which turns the MSA stage into a delta re-search). 0, the
     * default, disables the tier entirely — the event sequence is
     * bit-identical to the exact-only simulator. Must be in (0, 1]
     * when set.
     */
    double simCacheThreshold = 0.0;

    /**
     * Delta-search acceptance rule, modeled: the Jaccard estimate
     * stands in for the survivor-retention fraction the real
     * msa::deltaSearch checks. An approximate hit whose similarity
     * falls below this still pays the delta re-search, then falls
     * back to the full scan (RequestRecord::deltaFallback).
     */
    double simCacheMinRetention = 0.5;

    /** Wire size of a cached survivor set shipped from a remote
     *  shard on an accepted approximate hit (target indices, not
     *  the full alignment). */
    uint64_t simCacheSurvivorBytes = 256ull << 10;

    /** CPU threads each MSA worker uses (AF3 default 8). */
    uint32_t msaThreadsPerWorker = 8;

    /** Host threads per GPU worker process. */
    uint32_t inferenceThreads = 1;

    /** Allow unified-memory spill for over-VRAM inference. */
    bool unifiedMemory = true;

    /**
     * Continuous batching: max requests one GPU dispatch coalesces.
     * 1 (the default) dispatches every request alone, as a batch of
     * one with the pre-batching simulator's timing. Larger values
     * group queued requests by XLA token bucket, pad each member to
     * the bucket's execution length, and share one compiled
     * executable + one finalize across the batch.
     */
    uint32_t batchMax = 1;

    /** Max seconds the queue head waits for co-batchees before a
     *  partial batch dispatches; 0 dispatches whatever is queued
     *  the moment a worker frees up. */
    double batchWaitSeconds = 0.0;

    /** Data-parallel GPUs per node. Each GPU worker drives an equal
     *  share (at least one device); batches fan out across the
     *  share round-robin. The default matches the pre-batching
     *  model of one device per worker. */
    uint32_t gpusPerNode = 1;

    /** XLA shape-bucket width in tokens for the per-worker compile
     *  caches (and batch compatibility grouping). */
    uint32_t bucketTokens = gpusim::XlaCache::kBucketTokens;

    /**
     * MSA engine options per worker (threads overridden by
     * msaThreadsPerWorker). Default stride 16 keeps the one-off
     * per-sample characterization runs fast.
     */
    core::MsaPhaseOptions msaOptions = makeDefaultMsaOptions();

    /** Seeded chaos schedule; default-empty injects nothing. */
    fault::Plan faultPlan;

    /** Retry / respawn / degradation policy. */
    RecoveryPolicy recovery;

    /** Optional shared per-sample MSA characterization (multi-run
     *  sweeps reuse one oracle); null uses a run-local one. */
    MsaServiceOracle *msaOracle = nullptr;

    static core::MsaPhaseOptions
    makeDefaultMsaOptions()
    {
        core::MsaPhaseOptions o;
        o.traceStride = 16;
        return o;
    }
};

/** Aggregate outcome of one cluster simulation. */
struct ClusterResult
{
    /** Per-request traces, in arrival order (shed included). */
    std::vector<RequestRecord> records;

    double makespanSeconds = 0.0; ///< last event on the clock

    uint64_t offered = 0;   ///< arrivals
    uint64_t completed = 0; ///< served through both stages
    uint64_t degraded = 0;  ///< served via the fallback path
    uint64_t failed = 0;    ///< gave up (retries out, degrade off)
    uint64_t shed = 0;      ///< rejected by admission control

    MsaResultCache::Stats cacheStats;
    uint64_t cacheBytesInUse = 0;
    uint64_t cacheEntries = 0;

    double msaBusySeconds = 0.0; ///< summed MSA service time
    double gpuBusySeconds = 0.0; ///< summed inference service time

    uint32_t msaWorkers = 0; ///< whole-cluster (per-node × nodes)
    uint32_t gpuWorkers = 0;

    size_t msaQueueMaxDepth = 0;
    size_t gpuQueueMaxDepth = 0;
    size_t maxInSystem = 0;

    /** True when the configured fault plan could inject anything;
     *  gates the fault section of reports so fault-free output is
     *  byte-identical to a build without the machinery. */
    bool faultsEnabled = false;

    uint64_t faultsInjected = 0; ///< fault-log length
    std::array<uint64_t, fault::kFaultKinds> faultsByKind{};

    uint64_t retries = 0;  ///< retry dispatches scheduled
    uint64_t timeouts = 0; ///< per-stage deadline expiries
    uint64_t msaRespawns = 0;
    uint64_t gpuRespawns = 0;
    uint64_t permanentWorkerLosses = 0;

    /** Worker-seconds burned by attempts a fault aborted. */
    double lostServiceSeconds = 0.0;

    /** Canonical fault log (fault::Injector::renderLog) —
     *  byte-identical across runs with identical seeds. */
    std::string faultLog;

    /** True when the batch former could coalesce (batchMax > 1);
     *  gates the batching section of reports, so batchMax 1 output
     *  stays byte-identical to the pre-batching simulator. */
    bool batchingEnabled = false;

    uint32_t gpusPerNode = 1; ///< data-parallel devices per node

    uint64_t batchesFormed = 0;   ///< dispatches the former built
    uint64_t batchedRequests = 0; ///< members across all batches
    uint64_t maxBatchOccupancy = 0;

    /** Dispatches whose size the VRAM capacity gate cut below the
     *  configured batchMax (the oversized remainder stays queued). */
    uint64_t vramBatchSplits = 0;

    uint64_t batchCompiles = 0; ///< batches that paid any compile
    double batchCompileSeconds = 0.0;

    /** Members riding batches that paid a compile — the numerator
     *  of the compile amortization factor. */
    uint64_t compileSharedRequests = 0;

    /** Executed FLOPs split into real-token work vs pad tokens. */
    double batchUsefulFlops = 0.0;
    double batchPaddedFlops = 0.0;

    /** Mean members per formed batch. */
    double
    meanBatchOccupancy() const
    {
        return batchesFormed > 0
                   ? static_cast<double>(batchedRequests) /
                         static_cast<double>(batchesFormed)
                   : 0.0;
    }

    /** Share of executed FLOPs burned on padding. */
    double
    paddingWasteFraction() const
    {
        const double total = batchUsefulFlops + batchPaddedFlops;
        return total > 0.0 ? batchPaddedFlops / total : 0.0;
    }

    /** Requests served per compile paid: how far one shared
     *  executable stretched. */
    double
    compileAmortizationFactor() const
    {
        return batchCompiles > 0
                   ? static_cast<double>(compileSharedRequests) /
                         static_cast<double>(batchCompiles)
                   : 0.0;
    }

    /** True when the run used the similarity cache tier
     *  (simCacheThreshold > 0); gates the approximate-hit section
     *  of reports, so exact-only output stays byte-identical to the
     *  pre-similarity simulator. */
    bool simCacheEnabled = false;

    double simCacheThreshold = 0.0; ///< configured Jaccard threshold

    uint64_t approxHits = 0;      ///< requests served via a delta
    uint64_t deltaFallbacks = 0;  ///< deltas rejected -> full scan

    /** Net MSA service seconds the similarity tier avoided: the
     *  full-minus-delta gap on every accepted delta, minus the
     *  wasted delta time on every fallback. */
    double deltaSecondsSaved = 0.0;

    /** Multi-node only: similarity probes answered by (and accepted
     *  survivor sets shipped from) a remote cache shard. */
    uint64_t remoteApproxProbes = 0;
    uint64_t remoteApproxHits = 0;

    /** True when the run used a multi-node topology; gates the
     *  cross-node section of reports, so single-node output stays
     *  byte-identical to the pre-topology simulator. */
    bool multiNode = false;

    uint32_t nodes = 1; ///< serving nodes in the topology

    /** Whole-fabric interconnect counters (all zero single-node). */
    net::CommStats comm;

    /** Per-link counters, (src, dst) ascending; links that never
     *  carried a message are omitted. */
    std::vector<net::LinkStats> links;

    uint64_t nodeKills = 0;    ///< scripted node failures executed
    uint64_t nodeRebuilds = 0; ///< killed nodes that rejoined
    uint64_t rerouted = 0;     ///< requests re-sent to another node

    uint64_t remoteCacheLookups = 0; ///< probes to a remote shard
    uint64_t remoteCacheHits = 0;    ///< ... that shipped a result

    /** Per-node serving counters (size nodes). */
    struct NodeStats
    {
        uint64_t routed = 0; ///< requests the router sent here
        double msaBusySeconds = 0.0;
        double gpuBusySeconds = 0.0;
        uint32_t msaWorkers = 0; ///< configured per-node pool sizes
        uint32_t gpuWorkers = 0;
    };
    std::vector<NodeStats> nodeStats;

    /** Every cross-node message, in send order; render() gives the
     *  canonical text on demand. Empty single-node. */
    net::CommTrace commTrace;

    /** Deterministic per-sample MSA service time (the memoized
     *  characterization runs). */
    std::map<std::string, double> msaSecondsBySample;

    /** Busy fraction of the MSA pool over the makespan. */
    double
    msaUtilization() const
    {
        const double cap = makespanSeconds * msaWorkers;
        return cap > 0.0 ? msaBusySeconds / cap : 0.0;
    }

    /** Busy fraction of the GPU pool over the makespan. */
    double
    gpuUtilization() const
    {
        const double cap = makespanSeconds * gpuWorkers;
        return cap > 0.0 ? gpuBusySeconds / cap : 0.0;
    }

    /** All responses per hour: full-quality and degraded alike. */
    double
    throughputPerHour() const
    {
        return makespanSeconds > 0.0
                   ? 3600.0 *
                         static_cast<double>(completed + degraded) /
                         makespanSeconds
                   : 0.0;
    }

    /** Full-quality responses per hour — what throughput degrades
     *  to once fallback answers stop counting. */
    double
    goodputPerHour() const
    {
        return makespanSeconds > 0.0
                   ? 3600.0 * static_cast<double>(completed) /
                         makespanSeconds
                   : 0.0;
    }

    /** End-to-end latencies of completed requests, arrival order. */
    std::vector<double> completedLatencies() const;

    /** Latencies of every served response (completed + degraded). */
    std::vector<double> servedLatencies() const;
};

/**
 * Simulate serving @p requests (sorted or not; they are ordered by
 * arrival internally) on @p platform with @p config. The
 * @p workspace provides the reference databases for the per-sample
 * MSA characterization runs.
 */
ClusterResult simulateCluster(const sys::PlatformSpec &platform,
                              const core::Workspace &workspace,
                              const std::vector<Request> &requests,
                              const ClusterConfig &config = {});

} // namespace afsb::serve

#endif // AFSB_SERVE_CLUSTER_HH
