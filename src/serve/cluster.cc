#include "serve/cluster.hh"

#include <algorithm>
#include <cmath>
#include <queue>

#include "gpusim/inference_sim.hh"
#include "gpusim/init_profile.hh"
#include "util/logging.hh"

namespace afsb::serve {

std::vector<double>
ClusterResult::completedLatencies() const
{
    std::vector<double> out;
    out.reserve(records.size());
    for (const auto &rec : records)
        if (rec.outcome == Outcome::Completed)
            out.push_back(rec.latencySeconds());
    return out;
}

std::vector<double>
ClusterResult::servedLatencies() const
{
    std::vector<double> out;
    out.reserve(records.size());
    for (const auto &rec : records)
        if (rec.outcome == Outcome::Completed ||
            rec.outcome == Outcome::Degraded)
            out.push_back(rec.latencySeconds());
    return out;
}

const MsaServiceOracle::Service &
MsaServiceOracle::characterize(const sys::PlatformSpec &platform,
                               const core::Workspace &workspace,
                               const ClusterConfig &config,
                               const std::string &sample)
{
    auto it = memo_.find(sample);
    if (it != memo_.end())
        return it->second;

    const auto input = bio::makeSample(sample);
    core::MsaPhaseOptions opt = config.msaOptions;
    opt.threads = config.msaThreadsPerWorker;
    const auto r =
        core::runMsaPhase(input.complex, platform, workspace, opt);
    if (r.oom)
        fatal("serve: MSA phase for sample '" + sample +
              "' OOMs on " + platform.name + "; use `estimate` first");

    Service svc;
    svc.seconds = r.seconds;
    // Stored-alignment footprint: one byte per residue per aligned
    // row, per chain (an a3m-like encoding).
    uint64_t bytes = 0;
    const auto &chains = input.complex.chains();
    for (size_t i = 0;
         i < chains.size() && i < r.msaDepthPerChain.size(); ++i)
        bytes += static_cast<uint64_t>(r.msaDepthPerChain[i]) *
                 chains[i].length();
    svc.resultBytes = std::max<uint64_t>(bytes, 1024);

    // Delta re-search cost model from the engine's own counters: a
    // survivors-only rescan touches the MSV cells of the survivor
    // fraction of targets, plus all Viterbi/Forward cells (the full
    // scan ran those kernels only on survivors anyway).
    const auto &sc = r.scanStats;
    const double fullCells =
        static_cast<double>(sc.cellsMsv + sc.cellsViterbi +
                            sc.cellsForward);
    double fraction = 1.0;
    if (fullCells > 0.0)
        fraction = (sc.msvPassRate() *
                        static_cast<double>(sc.cellsMsv) +
                    static_cast<double>(sc.cellsViterbi) +
                    static_cast<double>(sc.cellsForward)) /
                   fullCells;
    fraction = std::min(1.0, std::max(0.01, fraction));
    svc.deltaSeconds = svc.seconds * fraction;
    return memo_.emplace(sample, svc).first->second;
}

namespace {

/** A long-lived GPU worker process with persistent model state. */
struct GpuWorker
{
    gpusim::XlaCache xla;
    uint64_t served = 0;
    /** GPU context up (init paid): set on first dispatch, kept by a
     *  respawn — the boot cost covers re-init, only the XLA cache is
     *  lost. */
    bool initialized = false;
};

/** A stage completion (or mid-service fault) on the event clock. */
struct Completion
{
    double time = 0.0;
    uint32_t worker = 0; ///< node-local id within its pool
    size_t record = 0;
    uint32_t node = 0;
    double start = 0.0; ///< dispatch time (node-kill refunds)

    /** Batched GPU dispatch: record ids of every member, in
     *  dispatch (policy) order. Empty on the solo path — handlers
     *  treat that as the single `record` member, keeping the
     *  legacy event sequence untouched. */
    std::vector<uint64_t> members = {};

    /** The attempt aborts at @c time instead of finishing. */
    bool fault = false;
    fault::FaultKind kind = fault::FaultKind::MsaWorkerCrash;
    bool workerDies = false;
    bool permanent = false;

    bool
    operator>(const Completion &other) const
    {
        if (time != other.time)
            return time > other.time;
        return record > other.record;
    }
};

/** A batch-wait expiry: wakes the dispatcher so a partially formed
 *  batch stops holding for co-batchees. Carries no payload — the
 *  dispatch pass re-derives the decision from queue state. */
struct BatchTimer
{
    double time = 0.0;
    uint64_t seq = 0;

    bool
    operator>(const BatchTimer &other) const
    {
        if (time != other.time)
            return time > other.time;
        return seq > other.seq;
    }
};

using CompletionQueue =
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>;

/** A crashed worker finishing its boot. */
struct Respawn
{
    double time = 0.0;
    uint32_t worker = 0;
    bool gpuPool = false;
    uint64_t seq = 0;
    uint32_t node = 0;
    uint64_t gen = 0; ///< node generation; stale respawns drop

    bool
    operator>(const Respawn &other) const
    {
        if (time != other.time)
            return time > other.time;
        return seq > other.seq;
    }
};

/** A request (re-)entering a stage queue: retry backoff, a routed
 *  arrival reaching its node, or a node-kill reroute landing. */
struct Requeue
{
    double time = 0.0;
    size_t record = 0;
    bool gpuStage = false;
    uint64_t seq = 0;
    uint32_t node = 0;

    bool
    operator>(const Requeue &other) const
    {
        if (time != other.time)
            return time > other.time;
        return seq > other.seq;
    }
};

/** A killed node rejoining the cluster. */
struct NodeUp
{
    double time = 0.0;
    uint32_t node = 0;
    uint64_t seq = 0;

    bool
    operator>(const NodeUp &other) const
    {
        if (time != other.time)
            return time > other.time;
        return seq > other.seq;
    }
};

template <typename T>
using MinQueue =
    std::priority_queue<T, std::vector<T>, std::greater<T>>;

constexpr double kNoEvent = 1e300;

template <typename Q>
double
nextTime(const Q &q)
{
    return q.empty() ? kNoEvent : q.top().time;
}

} // namespace

ClusterResult
simulateCluster(const sys::PlatformSpec &platform,
                const core::Workspace &workspace,
                const std::vector<Request> &requests,
                const ClusterConfig &config)
{
    if (config.msaWorkers == 0 || config.gpuWorkers == 0)
        fatal("serve: need at least one worker in each pool");
    if (config.admissionCapacity == 0)
        fatal("serve: admission capacity must be >= 1");
    if (config.topology.nodes == 0)
        fatal("serve: topology needs at least one node");
    const RecoveryPolicy &recovery = config.recovery;
    if (recovery.maxAttemptsPerStage == 0)
        fatal("serve: maxAttemptsPerStage must be >= 1");
    if (config.batchMax == 0)
        fatal("serve: batchMax must be >= 1");
    if (config.batchWaitSeconds < 0.0)
        fatal("serve: batchWaitSeconds must be >= 0");
    if (config.gpusPerNode == 0)
        fatal("serve: gpusPerNode must be >= 1");
    if (config.bucketTokens == 0)
        fatal("serve: bucketTokens must be >= 1");
    if (config.simCacheThreshold < 0.0 ||
        config.simCacheThreshold > 1.0)
        fatal("serve: simCacheThreshold must be in (0, 1] "
              "(0 disables)");
    if (config.simCacheMinRetention < 0.0 ||
        config.simCacheMinRetention > 1.0)
        fatal("serve: simCacheMinRetention must be in [0, 1]");

    const uint32_t nodes = config.topology.nodes;
    const bool multiNode = nodes > 1;
    const bool simEnabled = config.simCacheThreshold > 0.0;
    net::Interconnect fabric(config.topology);
    const uint32_t router = config.topology.routerId();

    ClusterResult result;
    result.msaWorkers = config.msaWorkers * nodes;
    result.gpuWorkers = config.gpuWorkers * nodes;
    result.multiNode = multiNode;
    result.simCacheEnabled = simEnabled;
    result.simCacheThreshold = config.simCacheThreshold;
    result.nodes = nodes;
    result.nodeStats.resize(nodes);
    for (auto &ns : result.nodeStats) {
        ns.msaWorkers = config.msaWorkers;
        ns.gpuWorkers = config.gpuWorkers;
    }

    // Arrival order defines record order and request ids.
    std::vector<Request> arrivals = requests;
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrivalSeconds < b.arrivalSeconds;
                     });
    result.records.resize(arrivals.size());
    for (size_t i = 0; i < arrivals.size(); ++i) {
        arrivals[i].id = i;
        result.records[i].request = arrivals[i];
    }

    MsaServiceOracle localOracle;
    MsaServiceOracle &oracle =
        config.msaOracle ? *config.msaOracle : localOracle;
    const auto msaService = [&](const std::string &sample)
        -> const MsaServiceOracle::Service & {
        return oracle.characterize(platform, workspace, config,
                                   sample);
    };

    // The MSA result cache shards by content hash across nodes;
    // single-node keeps the whole budget in its one shard, so its
    // behavior is exactly the unsharded cache.
    const uint64_t perNodeBudget =
        multiNode ? config.msaCacheBudgetBytes / nodes
                  : config.msaCacheBudgetBytes;
    std::vector<MsaResultCache> caches;
    caches.reserve(nodes);
    for (uint32_t nd = 0; nd < nodes; ++nd)
        caches.emplace_back(perNodeBudget);
    const auto ownerOf = [&](uint64_t key) -> uint32_t {
        return multiNode ? static_cast<uint32_t>(key % nodes) : 0;
    };

    AdmissionController admission(config.admissionCapacity);
    std::vector<DispatchQueue> msaQueues;
    std::vector<DispatchQueue> gpuQueues;
    for (uint32_t nd = 0; nd < nodes; ++nd) {
        msaQueues.emplace_back(config.policy);
        gpuQueues.emplace_back(config.policy);
    }

    // GPU workers carry persistent compile caches at the configured
    // bucket width (the batch former groups by the same buckets).
    const GpuWorker freshGpuWorker{
        gpusim::XlaCache(config.bucketTokens), 0, false};
    std::vector<std::vector<GpuWorker>> gpuWorkers(
        nodes,
        std::vector<GpuWorker>(config.gpuWorkers, freshGpuWorker));
    std::vector<std::vector<uint32_t>> freeGpu(nodes);
    std::vector<std::vector<uint32_t>> freeMsa(nodes);
    for (uint32_t nd = 0; nd < nodes; ++nd) {
        for (uint32_t w = config.gpuWorkers; w-- > 0;)
            freeGpu[nd].push_back(w); // back() pops lowest id first
        for (uint32_t w = config.msaWorkers; w-- > 0;)
            freeMsa[nd].push_back(w);
    }

    CompletionQueue msaBusy;
    CompletionQueue gpuBusy;
    MinQueue<Respawn> respawnQueue;
    MinQueue<Requeue> requeueQueue;
    MinQueue<NodeUp> nodeUpQueue;
    MinQueue<BatchTimer> batchTimerQueue;
    uint64_t eventSeq = 0;

    // Continuous batching: each GPU worker drives an equal share of
    // the node's data-parallel devices (at least one).
    const bool batching = config.batchMax > 1;
    const uint32_t gpusPerWorker = std::max<uint32_t>(
        1, config.gpusPerNode / config.gpuWorkers);
    result.batchingEnabled = batching;
    result.gpusPerNode = config.gpusPerNode;

    fault::Injector injector(config.faultPlan);
    const bool faultsOn = !config.faultPlan.empty();
    // Deadlines inject timeouts even without a plan, so they also
    // switch the fault section of reports on.
    result.faultsEnabled = faultsOn ||
                           recovery.msaDeadlineSeconds > 0.0 ||
                           recovery.gpuDeadlineSeconds > 0.0;
    // Per-node live-replica counts; the last live replica of a pool
    // on a node is never lost permanently (the supervisor always
    // restarts the final replica), so no queue can strand.
    std::vector<uint32_t> liveMsa(nodes, config.msaWorkers);
    std::vector<uint32_t> liveGpu(nodes, config.gpuWorkers);
    std::vector<char> nodeAlive(nodes, 1);
    std::vector<uint64_t> nodeGen(nodes, 0);
    uint64_t retriesUsed = 0;

    // Scripted node kills, in (time, script order); only meaningful
    // in a multi-node topology (a kill may never take the last
    // live node).
    std::vector<fault::NodeKill> kills = config.faultPlan.nodeKills;
    std::stable_sort(kills.begin(), kills.end(),
                     [](const fault::NodeKill &a,
                        const fault::NodeKill &b) {
                         return a.atSeconds < b.atSeconds;
                     });
    size_t nextKill = 0;
    MsaResultCache::Stats lostCacheStats;

    uint64_t routeCounter = 0;
    const auto pickNode = [&]() -> uint32_t {
        uint32_t cand = static_cast<uint32_t>(routeCounter % nodes);
        while (!nodeAlive[cand]) {
            ++routeCounter;
            cand = static_cast<uint32_t>(routeCounter % nodes);
        }
        ++routeCounter;
        return cand;
    };

    const double msaRespawnDelay =
        recovery.respawnSpawnSeconds + recovery.msaRespawnSeconds;
    const double gpuRespawnDelay =
        recovery.respawnSpawnSeconds +
        (recovery.gpuRespawnSeconds >= 0.0
             ? recovery.gpuRespawnSeconds
             : gpusim::initPhaseSeconds(platform));

    // Per-request time of the latest entry into its current stage
    // queue (deadlines run from here); terminal flag for the
    // conservation check.
    std::vector<double> stageEnqueue(arrivals.size(), 0.0);
    std::vector<char> finished(arrivals.size(), 0);

    gpusim::InferenceSimOptions inferOptions;
    inferOptions.threads = config.inferenceThreads;
    inferOptions.unifiedMemory = config.unifiedMemory;

    size_t nextArrival = 0;
    double clock = 0.0;

    const auto finish = [&](RequestRecord &rec, Outcome outcome,
                            double now) {
        rec.outcome = outcome;
        rec.finishSeconds = now;
        finished[rec.request.id] = 1;
        admission.release();
    };

    /**
     * A service attempt for @p rec on @p stage just died at @p now
     * (injected fault, deadline, or node loss): retry with backoff
     * while the per-stage attempt cap and the cluster retry budget
     * allow, else degrade (shed the MSA stage, reduced-recycling
     * GPU pass) or fail hard. @p node is where the retry re-enters;
     * a dead node reroutes when the requeue fires.
     */
    const auto failAttempt = [&](RequestRecord &rec, bool gpuStage,
                                 double now, fault::FaultKind kind,
                                 uint32_t worker, bool permanent,
                                 uint32_t node) {
        ++rec.faultsSeen;
        injector.record({now, kind, worker, rec.request.id,
                         permanent});
        if (kind == fault::FaultKind::RequestTimeout)
            ++result.timeouts;

        const uint32_t attempts =
            gpuStage ? rec.gpuAttempts : rec.msaAttempts;
        if (attempts < recovery.maxAttemptsPerStage &&
            retriesUsed < recovery.retryBudget) {
            ++retriesUsed;
            ++result.retries;
            const double backoff =
                recovery.backoffBaseSeconds *
                std::pow(recovery.backoffMultiplier,
                         static_cast<double>(attempts) - 1.0);
            requeueQueue.push(
                {now + backoff, rec.request.id, gpuStage,
                 eventSeq++, node});
            return;
        }
        if (recovery.degradeOnExhaustion) {
            if (!rec.degradedPath) {
                rec.degradedPath = true;
                if (!gpuStage) // no-MSA fallback: skip the stage
                    rec.msaEndSeconds = now;
            }
            requeueQueue.push(
                {now, rec.request.id, true, eventSeq++, node});
            return;
        }
        finish(rec, Outcome::Failed, now);
    };

    const auto dispatch = [&](double now) {
        for (uint32_t nd = 0; nd < nodes; ++nd) {
            auto &queue = msaQueues[nd];
            auto &idle = freeMsa[nd];
            while (!idle.empty() && !queue.empty()) {
                const Request r = queue.pop();
                auto &rec = result.records[r.id];
                // Expired while queued: the attempt never starts.
                if (recovery.msaDeadlineSeconds > 0.0 &&
                    now - stageEnqueue[r.id] >=
                        recovery.msaDeadlineSeconds) {
                    ++rec.msaAttempts;
                    failAttempt(rec, false, now,
                                fault::FaultKind::RequestTimeout, 0,
                                false, nd);
                    continue;
                }
                const uint32_t wid = idle.back();
                idle.pop_back();
                ++rec.msaAttempts;
                rec.node = nd;
                const auto &svc = msaService(r.sample);
                double service = svc.seconds;
                if (rec.approxHit) {
                    // Similarity tier: the stage is a delta
                    // re-search over the cached survivor set, not a
                    // full database scan.
                    service = svc.deltaSeconds;
                    if (rec.msaAttempts == 1)
                        result.deltaSecondsSaved +=
                            svc.seconds - svc.deltaSeconds;
                } else if (rec.deltaFallback) {
                    // Rejected delta: the re-search ran, failed its
                    // acceptance check, and the full scan followed.
                    service = svc.deltaSeconds + svc.seconds;
                    if (rec.msaAttempts == 1)
                        result.deltaSecondsSaved -=
                            svc.deltaSeconds;
                }

                Completion c{now + service, wid, r.id, nd, now};
                if (faultsOn) {
                    const auto d = injector.msaService();
                    if (d.latencyFactor > 1.0) {
                        service *= d.latencyFactor;
                        c.time = now + service;
                        injector.record(
                            {now,
                             fault::FaultKind::StorageLatencySpike,
                             nd * config.msaWorkers + wid, r.id,
                             false});
                        ++rec.faultsSeen;
                    }
                    if (d.failed()) {
                        c.fault = true;
                        c.kind =
                            d.crash
                                ? fault::FaultKind::MsaWorkerCrash
                                : fault::FaultKind::StorageReadError;
                        c.workerDies = d.crash;
                        c.permanent = d.crash && d.permanent;
                        c.time = now + service * d.failFraction;
                    }
                }
                if (recovery.msaDeadlineSeconds > 0.0) {
                    const double deadline =
                        stageEnqueue[r.id] +
                        recovery.msaDeadlineSeconds;
                    if (deadline < c.time) {
                        c.time = deadline;
                        c.fault = true;
                        c.kind = fault::FaultKind::RequestTimeout;
                        c.workerDies = false;
                        c.permanent = false;
                    }
                }
                rec.msaStartSeconds = now;
                const double occupied = c.time - now;
                result.msaBusySeconds += occupied;
                result.nodeStats[nd].msaBusySeconds += occupied;
                if (c.fault)
                    result.lostServiceSeconds += occupied;
                msaBusy.push(c);
            }
        }
        for (uint32_t nd = 0; nd < nodes; ++nd) {
            auto &queue = gpuQueues[nd];
            auto &idle = freeGpu[nd];
            // Solo dispatch (batching off): the pre-batching event
            // sequence, kept verbatim so batchMax == 1 is
            // bit-identical to the legacy simulator. Each dispatch
            // is a batch of one, which reproduces the unbatched
            // simulator's scalars.
            while (!batching && !idle.empty() && !queue.empty()) {
                const Request r = queue.pop();
                auto &rec = result.records[r.id];
                const bool degraded = rec.degradedPath;
                if (!degraded &&
                    recovery.gpuDeadlineSeconds > 0.0 &&
                    now - stageEnqueue[r.id] >=
                        recovery.gpuDeadlineSeconds) {
                    ++rec.gpuAttempts;
                    failAttempt(rec, true, now,
                                fault::FaultKind::RequestTimeout, 0,
                                false, nd);
                    continue;
                }
                const uint32_t wid = idle.back();
                idle.pop_back();
                ++rec.gpuAttempts;
                rec.node = nd;
                auto &worker = gpuWorkers[nd][wid];
                inferOptions.gpuAlreadyInitialized =
                    worker.initialized;
                const auto infer = gpusim::simulateBatchedInference(
                    platform, {r.tokens}, worker.xla, inferOptions);
                if (infer.oom)
                    fatal("serve: inference for sample '" +
                          r.sample + "' OOMs on " + platform.name +
                          " without unified memory");
                ++worker.served;
                worker.initialized = true;
                rec.gpuStartSeconds = now;
                rec.compileSeconds = infer.compileSeconds;
                double service = infer.totalSeconds();
                if (degraded)
                    // Reduced-recycling fallback: fewer diffusion
                    // recycles, proportionally less GPU compute.
                    service -=
                        infer.gpuComputeSeconds *
                        (1.0 - recovery.degradedRecyclingFactor);

                Completion c{now + service, wid, r.id, nd, now};
                // The degraded pass is the last-ditch answer:
                // exempt from injection and deadlines so it always
                // completes.
                if (faultsOn && !degraded) {
                    const auto d = injector.gpuService();
                    if (d.crash) {
                        c.fault = true;
                        c.kind = fault::FaultKind::GpuWorkerCrash;
                        c.workerDies = true;
                        c.permanent = d.permanent;
                        c.time = now + service * d.failFraction;
                    }
                }
                if (!degraded &&
                    recovery.gpuDeadlineSeconds > 0.0) {
                    const double deadline =
                        stageEnqueue[r.id] +
                        recovery.gpuDeadlineSeconds;
                    if (deadline < c.time) {
                        c.time = deadline;
                        c.fault = true;
                        c.kind = fault::FaultKind::RequestTimeout;
                        c.workerDies = false;
                        c.permanent = false;
                    }
                }
                const double occupied = c.time - now;
                result.gpuBusySeconds += occupied;
                result.nodeStats[nd].gpuBusySeconds += occupied;
                if (c.fault)
                    result.lostServiceSeconds += occupied;
                gpuBusy.push(c);
            }

            // Continuous batching: the policy head leads a batch of
            // bucket-compatible queued requests; the whole batch
            // runs as one padded dispatch on the worker's device
            // share, paying compile and finalize base once.
            while (batching && !idle.empty() && !queue.empty()) {
                const Request head = queue.peek();
                auto &headRec = result.records[head.id];
                const bool degraded = headRec.degradedPath;
                if (!degraded &&
                    recovery.gpuDeadlineSeconds > 0.0 &&
                    now - stageEnqueue[head.id] >=
                        recovery.gpuDeadlineSeconds) {
                    queue.pop();
                    ++headRec.gpuAttempts;
                    failAttempt(headRec, true, now,
                                fault::FaultKind::RequestTimeout, 0,
                                false, nd);
                    continue;
                }

                std::vector<Request> members;
                if (degraded) {
                    // The degraded pass dispatches solo: it is the
                    // last-ditch answer, never held for co-batchees
                    // and never mixed into a shared executable run.
                    queue.pop();
                    members.push_back(head);
                } else {
                    const uint32_t bucket = static_cast<uint32_t>(
                        head.tokens / config.bucketTokens);
                    const auto accept =
                        [&](const Request &cand) -> bool {
                        const auto &rec = result.records[cand.id];
                        if (rec.degradedPath)
                            return false;
                        // Expired candidates stay queued; they fail
                        // at the head, exactly like the solo path.
                        if (recovery.gpuDeadlineSeconds > 0.0 &&
                            now - stageEnqueue[cand.id] >=
                                recovery.gpuDeadlineSeconds)
                            return false;
                        return cand.tokens / config.bucketTokens ==
                               bucket;
                    };
                    // VRAM gate: the batch's padded activations
                    // must fit the worker's device share; an
                    // oversized group splits (the remainder stays
                    // queued for the next free worker).
                    const size_t execTokens =
                        static_cast<size_t>(bucket + 1) *
                            config.bucketTokens -
                        1;
                    const size_t vramCap =
                        gpusim::maxBatchForVram(
                            platform, execTokens,
                            inferOptions.config) *
                        gpusPerWorker;
                    const size_t cap = std::min<size_t>(
                        config.batchMax,
                        std::max<size_t>(1, vramCap));
                    const size_t avail = queue.countIf(accept);
                    // Compare against the same rounded sum the
                    // timer carries, so the hold always ends once
                    // the clock reaches the pushed wake-up.
                    const double waitDeadline =
                        stageEnqueue[head.id] +
                        config.batchWaitSeconds;
                    if (avail < cap &&
                        config.batchWaitSeconds > 0.0 &&
                        now < waitDeadline) {
                        // Hold for co-batchees: wake the dispatcher
                        // when the head's wait budget expires.
                        batchTimerQueue.push(
                            {waitDeadline, eventSeq++});
                        break; // head-of-line holds this queue
                    }
                    if (cap < config.batchMax && avail > cap)
                        ++result.vramBatchSplits;
                    members = queue.popBatch(cap, accept);
                }

                const uint32_t wid = idle.back();
                idle.pop_back();
                auto &worker = gpuWorkers[nd][wid];
                inferOptions.gpuAlreadyInitialized =
                    worker.initialized;
                std::vector<size_t> tokensList;
                tokensList.reserve(members.size());
                for (const auto &m : members)
                    tokensList.push_back(m.tokens);
                const auto infer =
                    gpusim::simulateBatchedInference(
                        platform, tokensList, worker.xla,
                        inferOptions, gpusPerWorker);
                if (infer.oom)
                    fatal("serve: batched inference for sample '" +
                          head.sample + "' OOMs on " +
                          platform.name +
                          " without unified memory");
                worker.served += members.size();
                worker.initialized = true;

                double service = infer.totalSeconds();
                if (degraded)
                    service -=
                        infer.gpuComputeSeconds *
                        (1.0 - recovery.degradedRecyclingFactor);

                Completion c{now + service, wid, head.id, nd, now};
                c.members.reserve(members.size());
                for (const auto &m : members) {
                    auto &rec = result.records[m.id];
                    ++rec.gpuAttempts;
                    rec.node = nd;
                    rec.gpuStartSeconds = now;
                    rec.compileSeconds = infer.compileSeconds;
                    rec.batchSize =
                        static_cast<uint32_t>(members.size());
                    c.members.push_back(m.id);
                }

                // Former accounting; the degraded singleton is the
                // fallback path, not a formed batch.
                if (!degraded) {
                    ++result.batchesFormed;
                    result.batchedRequests += members.size();
                    result.maxBatchOccupancy =
                        std::max<uint64_t>(result.maxBatchOccupancy,
                                           members.size());
                    result.batchUsefulFlops += infer.usefulFlops;
                    result.batchPaddedFlops += infer.paddedFlops;
                    if (infer.compileSeconds > 0.0) {
                        ++result.batchCompiles;
                        result.batchCompileSeconds +=
                            infer.compileSeconds;
                        result.compileSharedRequests +=
                            members.size();
                    }
                }

                // One service attempt per dispatch: a batch draws
                // the injector exactly once, like a solo dispatch,
                // so enabling batching never shifts the decision
                // stream of later sites.
                if (faultsOn && !degraded) {
                    const auto d = injector.gpuService();
                    if (d.crash) {
                        c.fault = true;
                        c.kind = fault::FaultKind::GpuWorkerCrash;
                        c.workerDies = true;
                        c.permanent = d.permanent;
                        c.time = now + service * d.failFraction;
                    }
                }
                if (!degraded &&
                    recovery.gpuDeadlineSeconds > 0.0) {
                    // The batch must beat the tightest member
                    // deadline; an overrun aborts every member.
                    double deadline = kNoEvent;
                    for (const auto &m : members)
                        deadline = std::min(
                            deadline,
                            stageEnqueue[m.id] +
                                recovery.gpuDeadlineSeconds);
                    if (deadline < c.time) {
                        c.time = deadline;
                        c.fault = true;
                        c.kind = fault::FaultKind::RequestTimeout;
                        c.workerDies = false;
                        c.permanent = false;
                    }
                }
                const double occupied = c.time - now;
                result.gpuBusySeconds += occupied;
                result.nodeStats[nd].gpuBusySeconds += occupied;
                if (c.fault)
                    result.lostServiceSeconds += occupied;
                gpuBusy.push(c);
            }
        }
    };

    /** Handle a crash: respawn after the boot delay, or shrink the
     *  pool permanently — never below one live replica. */
    const auto crashWorker = [&](uint32_t nd, uint32_t wid,
                                 bool gpuPool, double now,
                                 bool permanent) {
        uint32_t &live = gpuPool ? liveGpu[nd] : liveMsa[nd];
        if (permanent && live <= 1)
            permanent = false; // supervisor restarts the last one
        if (gpuPool)
            gpuWorkers[nd][wid].xla.clear(); // persistent state lost
        if (permanent) {
            --live;
            ++result.permanentWorkerLosses;
            return permanent;
        }
        respawnQueue.push(
            {now + (gpuPool ? gpuRespawnDelay : msaRespawnDelay),
             wid, gpuPool, eventSeq++, nd, nodeGen[nd]});
        return permanent;
    };

    /** The MSA stage for @p rec finished at @p now on @p nd: insert
     *  the result into its owner's cache shard (paying a transfer
     *  when the owner is remote) and enter the GPU queue. */
    const auto msaDone = [&](RequestRecord &rec, uint32_t nd,
                             double now) {
        const uint64_t key = rec.request.contentHash;
        const uint32_t owner = ownerOf(key);
        if (nodeAlive[owner]) {
            const bool corrupt =
                faultsOn && injector.cacheInsertCorrupted();
            const uint64_t bytes =
                msaService(rec.request.sample).resultBytes;
            if (multiNode && owner != nd)
                fabric.send(now, nd, owner, bytes,
                            net::MsgKind::CacheInsert,
                            rec.request.id);
            if (simEnabled && !rec.request.sketch.empty())
                // Register the query's sketch so later
                // near-duplicates can find this entry's survivor
                // set through the LSH bands.
                caches[owner].insert(key, bytes,
                                     rec.request.sketch);
            else
                caches[owner].insert(key, bytes);
            if (corrupt && caches[owner].corrupt(key))
                injector.record({now,
                                 fault::FaultKind::CacheCorruption,
                                 owner, rec.request.id, false});
        }
        stageEnqueue[rec.request.id] = now;
        gpuQueues[nd].push(rec.request);
    };

    while (nextArrival < arrivals.size() || !msaBusy.empty() ||
           !gpuBusy.empty() || !respawnQueue.empty() ||
           !requeueQueue.empty() || !nodeUpQueue.empty() ||
           !batchTimerQueue.empty() || nextKill < kills.size()) {
        const double arrivalTime =
            nextArrival < arrivals.size()
                ? arrivals[nextArrival].arrivalSeconds
                : kNoEvent;
        const double killTime = nextKill < kills.size()
                                    ? kills[nextKill].atSeconds
                                    : kNoEvent;
        clock = std::min({arrivalTime, nextTime(msaBusy),
                          nextTime(gpuBusy),
                          nextTime(respawnQueue),
                          nextTime(requeueQueue),
                          nextTime(nodeUpQueue),
                          nextTime(batchTimerQueue), killTime});

        // Batch-wait timers only advance the clock: the dispatch
        // pass below re-derives everything from queue state.
        while (!batchTimerQueue.empty() &&
               batchTimerQueue.top().time <= clock)
            batchTimerQueue.pop();

        // Completions first, so capacity freed at this instant is
        // visible to a simultaneous arrival.
        while (!gpuBusy.empty() && gpuBusy.top().time <= clock) {
            const Completion done = gpuBusy.top();
            gpuBusy.pop();
            // Solo completions carry one record; batched ones carry
            // every member of the dispatch, finished (or failed) in
            // dispatch order.
            std::vector<uint64_t> ids = done.members;
            if (ids.empty())
                ids.push_back(done.record);
            if (!done.fault) {
                for (uint64_t id : ids) {
                    auto &rec = result.records[id];
                    double finishAt = done.time;
                    if (multiNode)
                        // The structure travels back to the front
                        // end; the user-visible latency ends at the
                        // router.
                        finishAt =
                            fabric
                                .send(done.time, done.node, router,
                                      config.routeResponseBytes,
                                      net::MsgKind::RouteResponse,
                                      rec.request.id)
                                .arriveTime;
                    finish(rec,
                           rec.degradedPath ? Outcome::Degraded
                                            : Outcome::Completed,
                           finishAt);
                }
                freeGpu[done.node].push_back(done.worker);
                continue;
            }
            const bool permanent =
                done.workerDies
                    ? crashWorker(done.node, done.worker, true,
                                  done.time, done.permanent)
                    : (freeGpu[done.node].push_back(done.worker),
                       false);
            // A mid-batch crash or timeout aborts every member; each
            // re-enters the retry path with its own backoff budget.
            for (uint64_t id : ids)
                failAttempt(result.records[id], true, done.time,
                            done.kind,
                            done.node * config.gpuWorkers +
                                done.worker,
                            permanent, done.node);
        }

        while (!msaBusy.empty() && msaBusy.top().time <= clock) {
            const Completion done = msaBusy.top();
            msaBusy.pop();
            auto &rec = result.records[done.record];
            if (!done.fault) {
                rec.msaEndSeconds = done.time;
                freeMsa[done.node].push_back(done.worker);
                msaDone(rec, done.node, done.time);
                continue;
            }
            const bool permanent =
                done.workerDies
                    ? crashWorker(done.node, done.worker, false,
                                  done.time, done.permanent)
                    : (freeMsa[done.node].push_back(done.worker),
                       false);
            failAttempt(rec, false, done.time, done.kind,
                        done.node * config.msaWorkers + done.worker,
                        permanent, done.node);
        }

        // Scripted node kills: completions at exactly the kill time
        // made it out; everything still on the node is lost.
        while (nextKill < kills.size() &&
               kills[nextKill].atSeconds <= clock) {
            const fault::NodeKill kill = kills[nextKill++];
            const double now = kill.atSeconds;
            if (!multiNode)
                continue; // a single node is never killable
            if (kill.node >= nodes)
                fatal("serve: node kill targets a node beyond the "
                      "topology");
            if (!nodeAlive[kill.node])
                continue;
            uint32_t liveNodes = 0;
            for (uint32_t nd = 0; nd < nodes; ++nd)
                liveNodes += nodeAlive[nd] ? 1 : 0;
            if (liveNodes <= 1)
                continue; // never take the last live node
            const uint32_t nd = kill.node;
            nodeAlive[nd] = 0;
            ++nodeGen[nd];
            ++result.nodeKills;
            injector.record({now, fault::FaultKind::NodeFailure, nd,
                             0, kill.rebuildSeconds < 0.0});

            // In-flight attempts die mid-service: refund the busy
            // time they will never serve, book what they did burn
            // as lost, and push each through the retry path.
            const auto extractInflight = [&](CompletionQueue &q,
                                             bool gpuStage) {
                std::vector<Completion> keep, lost;
                while (!q.empty()) {
                    const Completion c = q.top();
                    q.pop();
                    (c.node == nd ? lost : keep).push_back(c);
                }
                for (const auto &c : keep)
                    q.push(c);
                for (const auto &c : lost) {
                    const double refund = c.time - now;
                    double &busy = gpuStage
                                       ? result.gpuBusySeconds
                                       : result.msaBusySeconds;
                    busy -= refund;
                    auto &ns = result.nodeStats[nd];
                    (gpuStage ? ns.gpuBusySeconds
                              : ns.msaBusySeconds) -= refund;
                    if (c.fault)
                        result.lostServiceSeconds -= refund;
                    else
                        result.lostServiceSeconds += now - c.start;
                    const uint32_t perPool =
                        gpuStage ? config.gpuWorkers
                                 : config.msaWorkers;
                    // Every batch member aboard a dying node fails
                    // and retries (busy/lost time refunds above are
                    // per dispatch, not per member).
                    std::vector<uint64_t> ids = c.members;
                    if (ids.empty())
                        ids.push_back(c.record);
                    for (uint64_t id : ids)
                        failAttempt(result.records[id], gpuStage,
                                    now,
                                    fault::FaultKind::NodeFailure,
                                    nd * perPool + c.worker, false,
                                    nd);
                }
            };
            extractInflight(gpuBusy, true);
            extractInflight(msaBusy, false);

            // Queued requests reroute through the router to a live
            // node, paying a fresh forward transfer.
            const auto drainQueue = [&](DispatchQueue &q,
                                        bool gpuStage) {
                while (!q.empty()) {
                    const Request r = q.pop();
                    ++result.rerouted;
                    const uint32_t tgt = pickNode();
                    ++result.nodeStats[tgt].routed;
                    result.records[r.id].node = tgt;
                    const auto d = fabric.send(
                        now, router, tgt, config.routeRequestBytes,
                        net::MsgKind::RouteRequest, r.id);
                    requeueQueue.push({d.arriveTime, r.id, gpuStage,
                                       eventSeq++, tgt});
                }
            };
            drainQueue(msaQueues[nd], false);
            drainQueue(gpuQueues[nd], true);

            freeMsa[nd].clear();
            freeGpu[nd].clear();
            liveMsa[nd] = 0;
            liveGpu[nd] = 0;

            // The cache shard dies with the node; keep its counters
            // for the end-of-run aggregate.
            const auto &cs = caches[nd].stats();
            lostCacheStats.lookups += cs.lookups;
            lostCacheStats.hits += cs.hits;
            lostCacheStats.insertions += cs.insertions;
            lostCacheStats.evictions += cs.evictions;
            lostCacheStats.rejected += cs.rejected;
            lostCacheStats.corrupted += cs.corrupted;
            lostCacheStats.approxLookups += cs.approxLookups;
            lostCacheStats.approxHits += cs.approxHits;
            caches[nd] = MsaResultCache(perNodeBudget);

            if (kill.rebuildSeconds >= 0.0)
                nodeUpQueue.push(
                    {now + kill.rebuildSeconds, nd, eventSeq++});
        }

        while (!respawnQueue.empty() &&
               respawnQueue.top().time <= clock) {
            const Respawn up = respawnQueue.top();
            respawnQueue.pop();
            // The node died while this worker was booting.
            if (up.gen != nodeGen[up.node])
                continue;
            if (up.gpuPool) {
                ++result.gpuRespawns;
                freeGpu[up.node].push_back(up.worker);
            } else {
                ++result.msaRespawns;
                freeMsa[up.node].push_back(up.worker);
            }
        }

        while (!nodeUpQueue.empty() &&
               nodeUpQueue.top().time <= clock) {
            const NodeUp up = nodeUpQueue.top();
            nodeUpQueue.pop();
            const uint32_t nd = up.node;
            nodeAlive[nd] = 1;
            ++result.nodeRebuilds;
            liveMsa[nd] = config.msaWorkers;
            liveGpu[nd] = config.gpuWorkers;
            gpuWorkers[nd].assign(config.gpuWorkers,
                                  freshGpuWorker);
            freeMsa[nd].clear();
            freeGpu[nd].clear();
            for (uint32_t w = config.gpuWorkers; w-- > 0;)
                freeGpu[nd].push_back(w);
            for (uint32_t w = config.msaWorkers; w-- > 0;)
                freeMsa[nd].push_back(w);
        }

        // Keep the free-worker lists ordered so the lowest id is
        // always dispatched next (determinism).
        for (uint32_t nd = 0; nd < nodes; ++nd) {
            std::sort(freeGpu[nd].begin(), freeGpu[nd].end(),
                      std::greater<uint32_t>());
            std::sort(freeMsa[nd].begin(), freeMsa[nd].end(),
                      std::greater<uint32_t>());
        }

        while (!requeueQueue.empty() &&
               requeueQueue.top().time <= clock) {
            const Requeue rq = requeueQueue.top();
            requeueQueue.pop();
            auto &rec = result.records[rq.record];
            if (multiNode && !nodeAlive[rq.node]) {
                // Destination died while the request was in flight
                // or backing off: the router re-forwards it.
                ++result.rerouted;
                const uint32_t tgt = pickNode();
                ++result.nodeStats[tgt].routed;
                rec.node = tgt;
                const auto d = fabric.send(
                    rq.time, router, tgt, config.routeRequestBytes,
                    net::MsgKind::RouteRequest, rq.record);
                requeueQueue.push({d.arriveTime, rq.record,
                                   rq.gpuStage, eventSeq++, tgt});
                continue;
            }
            stageEnqueue[rq.record] = rq.time;
            (rq.gpuStage ? gpuQueues[rq.node]
                         : msaQueues[rq.node])
                .push(rec.request);
        }

        while (nextArrival < arrivals.size() &&
               arrivals[nextArrival].arrivalSeconds <= clock) {
            const Request &r = arrivals[nextArrival++];
            auto &rec = result.records[r.id];
            ++result.offered;
            if (!admission.tryAdmit()) {
                rec.outcome = Outcome::Shed;
                rec.msaStartSeconds = rec.msaEndSeconds =
                    rec.gpuStartSeconds = rec.finishSeconds =
                        r.arrivalSeconds;
                finished[r.id] = 1;
                continue;
            }
            if (!multiNode) {
                stageEnqueue[r.id] = r.arrivalSeconds;
                if (caches[0].lookup(r.contentHash) ==
                    MsaResultCache::Lookup::Hit) {
                    // AF_Cache hit: the MSA stage vanishes.
                    rec.msaCacheHit = true;
                    rec.msaStartSeconds = rec.msaEndSeconds =
                        r.arrivalSeconds;
                    gpuQueues[0].push(r);
                } else {
                    // Miss, or a corrupted entry detected and
                    // dropped at lookup — either way the MSA stage
                    // runs. With the similarity tier on, a
                    // near-identical cached query can still shrink
                    // it to a delta re-search.
                    if (simEnabled && !r.sketch.empty()) {
                        const auto ap = caches[0].approxLookup(
                            r.sketch, config.simCacheThreshold);
                        if (ap.accepted) {
                            if (ap.jaccard >=
                                config.simCacheMinRetention) {
                                rec.approxHit = true;
                                ++result.approxHits;
                            } else {
                                rec.deltaFallback = true;
                                ++result.deltaFallbacks;
                            }
                        }
                    }
                    msaQueues[0].push(r);
                }
                continue;
            }

            // Multi-node: the router forwards the request to a live
            // node; the cache shard owning its content hash answers
            // the MSA-cache probe, paying a control round trip (and
            // the result transfer on a hit) when it is remote. The
            // shard's answer is decided here, at forward time — a
            // modeled approximation that keeps the lookup on the
            // deterministic arrival order.
            const uint32_t nd = pickNode();
            rec.node = nd;
            ++result.nodeStats[nd].routed;
            double ready =
                fabric
                    .send(r.arrivalSeconds, router, nd,
                          config.routeRequestBytes,
                          net::MsgKind::RouteRequest, r.id)
                    .arriveTime;
            const uint32_t owner = ownerOf(r.contentHash);
            bool hit = false;
            if (nodeAlive[owner]) {
                if (owner != nd) {
                    rec.remoteCache = true;
                    ++result.remoteCacheLookups;
                    const auto probe = fabric.send(
                        ready, nd, owner, config.cacheControlBytes,
                        net::MsgKind::CacheLookup, r.id);
                    hit = caches[owner].lookup(r.contentHash) ==
                          MsaResultCache::Lookup::Hit;
                    if (hit) {
                        ++result.remoteCacheHits;
                        ready = fabric
                                    .send(probe.arriveTime, owner,
                                          nd,
                                          msaService(r.sample)
                                              .resultBytes,
                                          net::MsgKind::CacheResult,
                                          r.id)
                                    .arriveTime;
                    } else {
                        ready = fabric
                                    .send(probe.arriveTime, owner,
                                          nd,
                                          config.cacheControlBytes,
                                          net::MsgKind::CacheReply,
                                          r.id)
                                    .arriveTime;
                    }
                } else {
                    hit = caches[owner].lookup(r.contentHash) ==
                          MsaResultCache::Lookup::Hit;
                }
            }
            if (hit) {
                rec.msaCacheHit = true;
                rec.msaStartSeconds = rec.msaEndSeconds = ready;
            } else if (simEnabled && !r.sketch.empty()) {
                // Exact miss: broadcast the similarity probe to
                // every live cache shard (the sketch index is
                // sharded with the entries it describes). All
                // probes go out in parallel; the request proceeds
                // once the last reply — and the survivor set from
                // an accepting shard — is in.
                MsaResultCache::ApproxResult best;
                uint32_t bestShard = 0;
                double repliesIn = ready;
                for (uint32_t shard = 0; shard < nodes; ++shard) {
                    if (!nodeAlive[shard])
                        continue;
                    double shardReady = ready;
                    if (shard != nd) {
                        ++result.remoteApproxProbes;
                        shardReady =
                            fabric
                                .send(ready, nd, shard,
                                      config.cacheControlBytes,
                                      net::MsgKind::CacheLookup,
                                      r.id)
                                .arriveTime;
                    }
                    const auto ap = caches[shard].approxLookup(
                        r.sketch, config.simCacheThreshold);
                    const bool better =
                        ap.candidate &&
                        (!best.candidate ||
                         ap.jaccard > best.jaccard ||
                         (ap.jaccard == best.jaccard &&
                          ap.key < best.key));
                    if (better) {
                        best = ap;
                        bestShard = shard;
                    }
                    if (shard != nd) {
                        // A shard with an accepted candidate ships
                        // its survivor set (it cannot know whether
                        // another shard holds a better one); the
                        // rest send a control-size negative reply.
                        const bool ships = ap.accepted;
                        const double back =
                            fabric
                                .send(shardReady, shard, nd,
                                      ships ? config
                                                  .simCacheSurvivorBytes
                                            : config
                                                  .cacheControlBytes,
                                      ships
                                          ? net::MsgKind::CacheResult
                                          : net::MsgKind::CacheReply,
                                      r.id)
                                .arriveTime;
                        repliesIn = std::max(repliesIn, back);
                    }
                }
                if (best.accepted) {
                    if (bestShard != nd) {
                        rec.remoteCache = true;
                        ++result.remoteApproxHits;
                    }
                    if (best.jaccard >=
                        config.simCacheMinRetention) {
                        rec.approxHit = true;
                        ++result.approxHits;
                    } else {
                        rec.deltaFallback = true;
                        ++result.deltaFallbacks;
                    }
                }
                ready = repliesIn;
            }
            requeueQueue.push(
                {ready, r.id, hit, eventSeq++, nd});
        }

        dispatch(clock);
        result.makespanSeconds =
            std::max(result.makespanSeconds, clock);
    }

    for (size_t i = 0; i < result.records.size(); ++i) {
        panicIf(!finished[i],
                "serve: request lost by the event loop");
        switch (result.records[i].outcome) {
        case Outcome::Completed:
            ++result.completed;
            break;
        case Outcome::Degraded:
            ++result.degraded;
            break;
        case Outcome::Failed:
            ++result.failed;
            break;
        case Outcome::Shed:
            ++result.shed;
            break;
        }
        // A response may still be on the wire when the last node
        // event fires; the makespan covers its arrival.
        result.makespanSeconds =
            std::max(result.makespanSeconds,
                     result.records[i].finishSeconds);
    }
    MsaResultCache::Stats aggStats = lostCacheStats;
    for (const auto &shard : caches) {
        const auto &cs = shard.stats();
        aggStats.lookups += cs.lookups;
        aggStats.hits += cs.hits;
        aggStats.insertions += cs.insertions;
        aggStats.evictions += cs.evictions;
        aggStats.rejected += cs.rejected;
        aggStats.corrupted += cs.corrupted;
        aggStats.approxLookups += cs.approxLookups;
        aggStats.approxHits += cs.approxHits;
        result.cacheBytesInUse += shard.bytesInUse();
        result.cacheEntries += shard.entries();
    }
    result.cacheStats = aggStats;
    for (uint32_t nd = 0; nd < nodes; ++nd) {
        result.msaQueueMaxDepth = std::max(
            result.msaQueueMaxDepth, msaQueues[nd].maxDepth());
        result.gpuQueueMaxDepth = std::max(
            result.gpuQueueMaxDepth, gpuQueues[nd].maxDepth());
    }
    result.maxInSystem = admission.maxInSystem();

    result.faultsInjected = injector.injectedCount();
    result.faultsByKind = injector.countsByKind();
    result.faultLog = injector.renderLog();

    result.comm = fabric.stats();
    result.links = fabric.activeLinks();
    if (multiNode)
        result.commTrace = fabric.trace();

    for (const auto &rec : result.records) {
        const std::string &s = rec.request.sample;
        if (!result.msaSecondsBySample.count(s) &&
            rec.outcome == Outcome::Completed &&
            !rec.msaCacheHit && !rec.faultAffected())
            result.msaSecondsBySample[s] =
                rec.msaEndSeconds - rec.msaStartSeconds;
    }
    return result;
}

} // namespace afsb::serve
