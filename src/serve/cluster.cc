#include "serve/cluster.hh"

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>
#include <utility>

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
    size_t record = 0;   ///< the dispatch's first (or only) member
    uint32_t node = 0;
    double start = 0.0; ///< dispatch time (node-kill refunds)

    /** Record ids of every member of a multi-member GPU dispatch,
     *  in dispatch (policy) order. Empty for a dispatch of one,
     *  whose only member is @c record. */
    std::vector<uint64_t> members = {};

    /** The attempt aborts at @c time instead of finishing. */
    bool fault = false;
    fault::FaultKind kind = fault::FaultKind::MsaWorkerCrash;
    bool workerDies = false;
    bool permanent = false;
    std::pair<double, uint64_t> key() const { return {time, record}; }
};

/** Call @p fn with the record id of every member of @p c, in
 *  dispatch order. */
template <typename Fn>
void
forEachMember(const Completion &c, Fn &&fn)
{
    if (c.members.empty())
        fn(c.record);
    else
        for (uint64_t id : c.members)
            fn(id);
}

/** A batch-wait expiry: wakes the dispatcher so a partially formed
 *  batch stops holding for co-batchees. Carries no payload — the
 *  dispatch pass re-derives the decision from queue state. */
struct BatchTimer
{
    double time = 0.0;
    uint64_t seq = 0;
    std::pair<double, uint64_t> key() const { return {time, seq}; }
};

/** A crashed worker finishing its boot. */
struct Respawn
{
    double time = 0.0;
    uint32_t worker = 0;
    bool gpuPool = false;
    uint64_t seq = 0;
    uint32_t node = 0;
    uint64_t gen = 0; ///< node generation; stale respawns drop
    std::pair<double, uint64_t> key() const { return {time, seq}; }
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
    std::pair<double, uint64_t> key() const { return {time, seq}; }
};

/** A killed node rejoining the cluster. */
struct NodeUp
{
    double time = 0.0;
    uint32_t node = 0;
    uint64_t seq = 0;
    std::pair<double, uint64_t> key() const { return {time, seq}; }
};

/** Event order: time, then the event's tie-break (a completion's
 *  record id, else its scheduling sequence). */
struct LaterEvent
{
    template <typename T>
    bool
    operator()(const T &a, const T &b) const
    {
        return a.key() > b.key();
    }
};

template <typename T>
using MinQueue = std::priority_queue<T, std::vector<T>, LaterEvent>;

constexpr double kNoEvent = 1e300;

template <typename Q>
double
nextTime(const Q &q)
{
    return q.empty() ? kNoEvent : q.top().time;
}

/**
 * One simulateCluster run, its members the run's state. run() is the
 * event loop: each step hands every event due at the clock to its
 * kind's handler, in a fixed kind order, then dispatches both stages.
 */
class ClusterSim
{
  public:
    ClusterSim(const sys::PlatformSpec &platform,
               const core::Workspace &workspace,
               const std::vector<Request> &requests,
               const ClusterConfig &config)
        : platform_(platform), workspace_(workspace), config_(config),
          recovery_(config.recovery), nodes_(config.topology.nodes),
          multiNode_(nodes_ > 1),
          simEnabled_(config.simCacheThreshold > 0.0),
          batching_(config.batchMax > 1),
          faultsOn_(!config.faultPlan.empty()),
          router_(config.topology.routerId()),
          gpusPerWorker_(std::max<uint32_t>(
              1, config.gpusPerNode / config.gpuWorkers)),
          msaRespawnDelay_(recovery_.respawnSpawnSeconds +
                           recovery_.msaRespawnSeconds),
          gpuRespawnDelay_(recovery_.respawnSpawnSeconds +
                           (recovery_.gpuRespawnSeconds >= 0.0
                                ? recovery_.gpuRespawnSeconds
                                : gpusim::initPhaseSeconds(platform))),
          perNodeBudget_(multiNode_
                             ? config.msaCacheBudgetBytes / nodes_
                             : config.msaCacheBudgetBytes),
          arrivals_(requests),
          oracle_(config.msaOracle ? *config.msaOracle : localOracle_),
          fabric_(config.topology), injector_(config.faultPlan),
          admission_(config.admissionCapacity), gpuWorkers_(nodes_),
          freeGpu_(nodes_), freeMsa_(nodes_), liveMsa_(nodes_),
          liveGpu_(nodes_), nodeAlive_(nodes_, 1), nodeGen_(nodes_, 0),
          kills_(config.faultPlan.nodeKills),
          stageEnqueue_(requests.size()), finished_(requests.size())
    {
        result_.msaWorkers = config.msaWorkers * nodes_;
        result_.gpuWorkers = config.gpuWorkers * nodes_;
        result_.multiNode = multiNode_;
        result_.simCacheEnabled = simEnabled_;
        result_.simCacheThreshold = config.simCacheThreshold;
        result_.nodes = nodes_;
        result_.nodeStats.assign(
            nodes_, {.msaWorkers = config.msaWorkers,
                     .gpuWorkers = config.gpuWorkers});
        result_.batchingEnabled = batching_;
        result_.gpusPerNode = config.gpusPerNode;
        // Deadlines inject timeouts even without a plan, so they
        // also switch the fault section of reports on.
        result_.faultsEnabled = faultsOn_ ||
                                recovery_.msaDeadlineSeconds > 0.0 ||
                                recovery_.gpuDeadlineSeconds > 0.0;

        // Arrival order defines record order and request ids.
        std::stable_sort(arrivals_.begin(), arrivals_.end(),
                         [](const Request &a, const Request &b) {
                             return a.arrivalSeconds <
                                    b.arrivalSeconds;
                         });
        result_.records.resize(arrivals_.size());
        for (size_t i = 0; i < arrivals_.size(); ++i) {
            arrivals_[i].id = i;
            result_.records[i].request = arrivals_[i];
        }

        caches_.reserve(nodes_);
        for (uint32_t nd = 0; nd < nodes_; ++nd) {
            caches_.emplace_back(perNodeBudget_);
            msaQueues_.emplace_back(config.policy);
            gpuQueues_.emplace_back(config.policy);
            resetNodeWorkers(nd);
        }
        std::stable_sort(kills_.begin(), kills_.end(),
                         [](const fault::NodeKill &a,
                            const fault::NodeKill &b) {
                             return a.atSeconds < b.atSeconds;
                         });
        inferOptions_.threads = config.inferenceThreads;
        inferOptions_.unifiedMemory = config.unifiedMemory;
    }

    ClusterResult
    run()
    {
        while (nextArrival_ < arrivals_.size() || !msaBusy_.empty() ||
               !gpuBusy_.empty() || !respawns_.empty() ||
               !requeues_.empty() || !nodeUps_.empty() ||
               !batchTimers_.empty() || nextKill_ < kills_.size()) {
            const double arrivalTime =
                nextArrival_ < arrivals_.size()
                    ? arrivals_[nextArrival_].arrivalSeconds
                    : kNoEvent;
            const double killTime = nextKill_ < kills_.size()
                                        ? kills_[nextKill_].atSeconds
                                        : kNoEvent;
            clock_ = std::min({arrivalTime, nextTime(msaBusy_),
                               nextTime(gpuBusy_), nextTime(respawns_),
                               nextTime(requeues_), nextTime(nodeUps_),
                               nextTime(batchTimers_), killTime});

            drainDue(batchTimers_, &ClusterSim::onBatchTimer);
            // Completions first, so capacity freed at this instant
            // is visible to a simultaneous arrival.
            drainDue(gpuBusy_, &ClusterSim::onGpuCompletion);
            drainDue(msaBusy_, &ClusterSim::onMsaCompletion);
            while (nextKill_ < kills_.size() &&
                   kills_[nextKill_].atSeconds <= clock_)
                onNodeKill(kills_[nextKill_++]);
            drainDue(respawns_, &ClusterSim::onRespawn);
            drainDue(nodeUps_, &ClusterSim::onNodeUp);

            // Keep the free-worker lists ordered so the lowest id is
            // always dispatched next (determinism).
            for (uint32_t nd = 0; nd < nodes_; ++nd) {
                std::sort(freeGpu_[nd].begin(), freeGpu_[nd].end(),
                          std::greater<uint32_t>());
                std::sort(freeMsa_[nd].begin(), freeMsa_[nd].end(),
                          std::greater<uint32_t>());
            }

            drainDue(requeues_, &ClusterSim::onRequeue);
            while (nextArrival_ < arrivals_.size() &&
                   arrivals_[nextArrival_].arrivalSeconds <= clock_)
                onArrival(arrivals_[nextArrival_++]);

            for (uint32_t nd = 0; nd < nodes_; ++nd)
                dispatchMsa(nd);
            for (uint32_t nd = 0; nd < nodes_; ++nd)
                dispatchGpu(nd);
            result_.makespanSeconds =
                std::max(result_.makespanSeconds, clock_);
        }
        return collect();
    }

  private:
    /** Pop and handle every event of @p q due by the clock, in
     *  queue order (handlers may push further due events). */
    template <typename Q, typename Event>
    void
    drainDue(Q &q, void (ClusterSim::*handle)(const Event &))
    {
        while (!q.empty() && q.top().time <= clock_) {
            const Event event = q.top();
            q.pop();
            (this->*handle)(event);
        }
    }

    /** Batch-wait timers only wake the dispatch pass, which
     *  re-derives everything from queue state. */
    void onBatchTimer(const BatchTimer &) {}

    void
    onGpuCompletion(const Completion &done)
    {
        if (done.fault) {
            failDispatch(done, true);
            return;
        }
        forEachMember(done, [&](uint64_t id) {
            auto &rec = result_.records[id];
            double finishAt = done.time;
            if (multiNode_)
                // The structure travels back to the front end; the
                // user-visible latency ends at the router.
                finishAt = fabric_
                               .send(done.time, done.node, router_,
                                     config_.routeResponseBytes,
                                     net::MsgKind::RouteResponse,
                                     rec.request.id)
                               .arriveTime;
            finish(rec,
                   rec.degradedPath ? Outcome::Degraded
                                    : Outcome::Completed,
                   finishAt);
        });
        freeGpu_[done.node].push_back(done.worker);
    }

    /** The MSA stage finished: insert the result into its owner's
     *  cache shard (paying a transfer when the owner is remote) and
     *  enter the GPU queue. */
    void
    onMsaCompletion(const Completion &done)
    {
        if (done.fault) {
            failDispatch(done, false);
            return;
        }
        auto &rec = result_.records[done.record];
        const double now = done.time;
        const uint32_t nd = done.node;
        rec.msaEndSeconds = now;
        freeMsa_[nd].push_back(done.worker);

        const uint64_t key = rec.request.contentHash;
        const uint32_t owner = ownerOf(key);
        if (nodeAlive_[owner]) {
            const bool corrupt =
                faultsOn_ && injector_.cacheInsertCorrupted();
            const uint64_t bytes =
                msaService(rec.request.sample).resultBytes;
            if (multiNode_ && owner != nd)
                fabric_.send(now, nd, owner, bytes,
                             net::MsgKind::CacheInsert,
                             rec.request.id);
            if (simEnabled_ && !rec.request.sketch.empty())
                // Register the query's sketch so later
                // near-duplicates can find this entry's survivor set
                // through the LSH bands.
                caches_[owner].insert(key, bytes, rec.request.sketch);
            else
                caches_[owner].insert(key, bytes);
            if (corrupt && caches_[owner].corrupt(key))
                injector_.record({now,
                                  fault::FaultKind::CacheCorruption,
                                  owner, rec.request.id, false});
        }
        stageEnqueue_[rec.request.id] = now;
        gpuQueues_[nd].push(rec.request);
    }

    /** Scripted node kill: completions at exactly the kill time made
     *  it out; everything still on the node is lost. */
    void
    onNodeKill(const fault::NodeKill &kill)
    {
        const double now = kill.atSeconds;
        if (!multiNode_)
            return; // a single node is never killable
        if (kill.node >= nodes_)
            fatal("serve: node kill targets a node beyond the "
                  "topology");
        if (!nodeAlive_[kill.node] ||
            std::count(nodeAlive_.begin(), nodeAlive_.end(), 1) <= 1)
            return; // never take the last live node
        const uint32_t nd = kill.node;
        nodeAlive_[nd] = 0;
        ++nodeGen_[nd];
        ++result_.nodeKills;
        injector_.record({now, fault::FaultKind::NodeFailure, nd, 0,
                          kill.rebuildSeconds < 0.0});

        abortInflight(gpuBusy_, true, nd, now);
        abortInflight(msaBusy_, false, nd, now);

        // Queued requests reroute through the router to a live
        // node, paying a fresh forward transfer.
        for (const bool gpuStage : {false, true}) {
            auto &queue = (gpuStage ? gpuQueues_ : msaQueues_)[nd];
            while (!queue.empty())
                reroute(queue.pop().id, gpuStage, now);
        }

        freeMsa_[nd].clear();
        freeGpu_[nd].clear();
        liveMsa_[nd] = 0;
        liveGpu_[nd] = 0;

        // The cache shard dies with the node; keep its counters for
        // the end-of-run aggregate.
        lostCacheStats_ += caches_[nd].stats();
        caches_[nd] = MsaResultCache(perNodeBudget_);

        if (kill.rebuildSeconds >= 0.0)
            nodeUps_.push({now + kill.rebuildSeconds, nd, eventSeq_++});
    }

    /** In-flight attempts on dying node @p nd die mid-service:
     *  refund the busy time they will never serve, book what they
     *  did burn as lost, and push every member through the retry
     *  path (the refunds are per dispatch, not per member). */
    void
    abortInflight(MinQueue<Completion> &q, bool gpuStage, uint32_t nd,
                  double now)
    {
        std::vector<Completion> keep, lost;
        while (!q.empty()) {
            const Completion c = q.top();
            q.pop();
            (c.node == nd ? lost : keep).push_back(c);
        }
        for (const auto &c : keep)
            q.push(c);
        const uint32_t perPool =
            gpuStage ? config_.gpuWorkers : config_.msaWorkers;
        for (const auto &c : lost) {
            const double refund = c.time - now;
            bookBusy(gpuStage, nd, -refund);
            if (c.fault)
                result_.lostServiceSeconds -= refund;
            else
                result_.lostServiceSeconds += now - c.start;
            forEachMember(c, [&](uint64_t id) {
                failAttempt(result_.records[id], gpuStage, now,
                            fault::FaultKind::NodeFailure,
                            nd * perPool + c.worker, false, nd);
            });
        }
    }

    void
    onRespawn(const Respawn &up)
    {
        if (up.gen != nodeGen_[up.node])
            return; // the node died while this worker was booting
        ++(up.gpuPool ? result_.gpuRespawns : result_.msaRespawns);
        (up.gpuPool ? freeGpu_ : freeMsa_)[up.node].push_back(
            up.worker);
    }

    void
    onNodeUp(const NodeUp &up)
    {
        nodeAlive_[up.node] = 1;
        ++result_.nodeRebuilds;
        resetNodeWorkers(up.node);
    }

    void
    onRequeue(const Requeue &rq)
    {
        if (multiNode_ && !nodeAlive_[rq.node]) {
            // Destination died while the request was in flight or
            // backing off: the router re-forwards it.
            reroute(rq.record, rq.gpuStage, rq.time);
            return;
        }
        stageEnqueue_[rq.record] = rq.time;
        (rq.gpuStage ? gpuQueues_ : msaQueues_)[rq.node].push(
            result_.records[rq.record].request);
    }

    /** The router re-forwards @p id to a live node, which it
     *  reaches after the route transfer. */
    void
    reroute(uint64_t id, bool gpuStage, double now)
    {
        ++result_.rerouted;
        const uint32_t tgt = pickNode();
        ++result_.nodeStats[tgt].routed;
        result_.records[id].node = tgt;
        const auto d =
            fabric_.send(now, router_, tgt, config_.routeRequestBytes,
                         net::MsgKind::RouteRequest, id);
        requeues_.push({d.arriveTime, id, gpuStage, eventSeq_++, tgt});
    }

    /** Round-robin over live nodes. */
    uint32_t
    pickNode()
    {
        uint32_t cand = static_cast<uint32_t>(routeCounter_ % nodes_);
        while (!nodeAlive_[cand]) {
            ++routeCounter_;
            cand = static_cast<uint32_t>(routeCounter_ % nodes_);
        }
        ++routeCounter_;
        return cand;
    }

    void
    onArrival(const Request &r)
    {
        auto &rec = result_.records[r.id];
        ++result_.offered;
        if (!admission_.tryAdmit()) {
            rec.outcome = Outcome::Shed;
            rec.msaStartSeconds = rec.msaEndSeconds =
                rec.gpuStartSeconds = rec.finishSeconds =
                    r.arrivalSeconds;
            finished_[r.id] = 1;
            return;
        }
        if (multiNode_) {
            routeArrival(r, rec);
            return;
        }
        stageEnqueue_[r.id] = r.arrivalSeconds;
        if (caches_[0].lookup(r.contentHash) ==
            MsaResultCache::Lookup::Hit) {
            // AF_Cache hit: the MSA stage vanishes.
            rec.msaCacheHit = true;
            rec.msaStartSeconds = rec.msaEndSeconds = r.arrivalSeconds;
            gpuQueues_[0].push(r);
            return;
        }
        // Miss, or a corrupted entry detected and dropped at lookup
        // — either way the MSA stage runs. With the similarity tier
        // on, a near-identical cached query can still shrink it to a
        // delta re-search.
        if (simEnabled_ && !r.sketch.empty()) {
            const auto ap = caches_[0].approxLookup(
                r.sketch, config_.simCacheThreshold);
            if (ap.accepted)
                noteSimilarHit(rec, ap.jaccard);
        }
        msaQueues_[0].push(r);
    }

    /**
     * Multi-node arrival: the router forwards the request to a live
     * node; the cache shard owning its content hash answers the
     * MSA-cache probe, paying a control round trip (and the result
     * transfer on a hit) when it is remote. The shard's answer is
     * decided here, at forward time — a modeled approximation that
     * keeps the lookup on the deterministic arrival order.
     */
    void
    routeArrival(const Request &r, RequestRecord &rec)
    {
        const uint32_t nd = pickNode();
        rec.node = nd;
        ++result_.nodeStats[nd].routed;
        double ready = fabric_
                           .send(r.arrivalSeconds, router_, nd,
                                 config_.routeRequestBytes,
                                 net::MsgKind::RouteRequest, r.id)
                           .arriveTime;
        const uint32_t owner = ownerOf(r.contentHash);
        bool hit = false;
        if (nodeAlive_[owner]) {
            hit = caches_[owner].lookup(r.contentHash) ==
                  MsaResultCache::Lookup::Hit;
            if (owner != nd) {
                rec.remoteCache = true;
                ++result_.remoteCacheLookups;
                const auto probe = fabric_.send(
                    ready, nd, owner, config_.cacheControlBytes,
                    net::MsgKind::CacheLookup, r.id);
                if (hit)
                    ++result_.remoteCacheHits;
                ready =
                    fabric_
                        .send(probe.arriveTime, owner, nd,
                              hit ? msaService(r.sample).resultBytes
                                  : config_.cacheControlBytes,
                              hit ? net::MsgKind::CacheResult
                                  : net::MsgKind::CacheReply,
                              r.id)
                        .arriveTime;
            }
        }
        if (hit) {
            rec.msaCacheHit = true;
            rec.msaStartSeconds = rec.msaEndSeconds = ready;
        } else if (simEnabled_ && !r.sketch.empty()) {
            ready = probeSimilarShards(r, rec, nd, ready);
        }
        requeues_.push({ready, r.id, hit, eventSeq_++, nd});
    }

    /**
     * Exact miss on node @p nd: broadcast the similarity probe to
     * every live cache shard (the sketch index is sharded with the
     * entries it describes). All probes go out in parallel at
     * @p ready; returns when the last reply — and the survivor set
     * from an accepting shard — is in.
     */
    double
    probeSimilarShards(const Request &r, RequestRecord &rec,
                       uint32_t nd, double ready)
    {
        MsaResultCache::ApproxResult best;
        uint32_t bestShard = 0;
        double repliesIn = ready;
        for (uint32_t shard = 0; shard < nodes_; ++shard) {
            if (!nodeAlive_[shard])
                continue;
            double shardReady = ready;
            if (shard != nd) {
                ++result_.remoteApproxProbes;
                shardReady = fabric_
                                 .send(ready, nd, shard,
                                       config_.cacheControlBytes,
                                       net::MsgKind::CacheLookup, r.id)
                                 .arriveTime;
            }
            const auto ap = caches_[shard].approxLookup(
                r.sketch, config_.simCacheThreshold);
            const bool better =
                ap.candidate &&
                (!best.candidate || ap.jaccard > best.jaccard ||
                 (ap.jaccard == best.jaccard && ap.key < best.key));
            if (better) {
                best = ap;
                bestShard = shard;
            }
            if (shard != nd) {
                // A shard with an accepted candidate ships its
                // survivor set (it cannot know whether another shard
                // holds a better one); the rest send a control-size
                // negative reply.
                const bool ships = ap.accepted;
                const double back =
                    fabric_
                        .send(shardReady, shard, nd,
                              ships ? config_.simCacheSurvivorBytes
                                    : config_.cacheControlBytes,
                              ships ? net::MsgKind::CacheResult
                                    : net::MsgKind::CacheReply,
                              r.id)
                        .arriveTime;
                repliesIn = std::max(repliesIn, back);
            }
        }
        if (best.accepted) {
            if (bestShard != nd) {
                rec.remoteCache = true;
                ++result_.remoteApproxHits;
            }
            noteSimilarHit(rec, best.jaccard);
        }
        return repliesIn;
    }

    /** An accepted similarity candidate: the MSA stage becomes a
     *  delta re-search, or a rejected delta plus the full scan when
     *  the candidate keeps too little of the survivor set. */
    void
    noteSimilarHit(RequestRecord &rec, double jaccard)
    {
        if (jaccard >= config_.simCacheMinRetention) {
            rec.approxHit = true;
            ++result_.approxHits;
        } else {
            rec.deltaFallback = true;
            ++result_.deltaFallbacks;
        }
    }

    void
    dispatchMsa(uint32_t nd)
    {
        const double now = clock_;
        auto &queue = msaQueues_[nd];
        auto &idle = freeMsa_[nd];
        while (!idle.empty() && !queue.empty()) {
            const Request r = queue.pop();
            auto &rec = result_.records[r.id];
            // Expired while queued: the attempt never starts.
            if (expired(r.id, recovery_.msaDeadlineSeconds)) {
                ++rec.msaAttempts;
                failAttempt(rec, false, now,
                            fault::FaultKind::RequestTimeout, 0, false,
                            nd);
                continue;
            }
            const uint32_t wid = idle.back();
            idle.pop_back();
            ++rec.msaAttempts;
            rec.node = nd;
            rec.msaStartSeconds = now;
            const auto &svc = msaService(r.sample);
            double service = svc.seconds;
            if (rec.approxHit) {
                // Similarity tier: the stage is a delta re-search
                // over the cached survivor set, not a full database
                // scan.
                service = svc.deltaSeconds;
                if (rec.msaAttempts == 1)
                    result_.deltaSecondsSaved +=
                        svc.seconds - svc.deltaSeconds;
            } else if (rec.deltaFallback) {
                // Rejected delta: the re-search ran, failed its
                // acceptance check, and the full scan followed.
                service = svc.deltaSeconds + svc.seconds;
                if (rec.msaAttempts == 1)
                    result_.deltaSecondsSaved -= svc.deltaSeconds;
            }

            Completion c{now + service, wid, r.id, nd, now};
            if (faultsOn_) {
                const auto d = injector_.msaService();
                if (d.latencyFactor > 1.0) {
                    service *= d.latencyFactor;
                    c.time = now + service;
                    injector_.record(
                        {now, fault::FaultKind::StorageLatencySpike,
                         nd * config_.msaWorkers + wid, r.id, false});
                    ++rec.faultsSeen;
                }
                if (d.failed()) {
                    c.fault = true;
                    c.kind = d.crash
                                 ? fault::FaultKind::MsaWorkerCrash
                                 : fault::FaultKind::StorageReadError;
                    c.workerDies = d.crash;
                    c.permanent = d.crash && d.permanent;
                    c.time = now + service * d.failFraction;
                }
            }
            startAttempt(std::move(c),
                         deadlineOf(r.id, recovery_.msaDeadlineSeconds),
                         false);
        }
    }

    /**
     * The GPU dispatcher, and its batch former. A head that cannot
     * batch (batchMax 1, or a degraded request) dispatches alone,
     * straight off the queue. Otherwise the policy head leads a
     * batch of bucket-compatible queued requests; the whole batch
     * runs as one padded dispatch on the worker's device share,
     * paying compile and finalize base once.
     */
    void
    dispatchGpu(uint32_t nd)
    {
        const double now = clock_;
        const double gpuDeadline = recovery_.gpuDeadlineSeconds;
        auto &queue = gpuQueues_[nd];
        while (!freeGpu_[nd].empty() && !queue.empty()) {
            const Request &head = queue.peek();
            auto &headRec = result_.records[head.id];
            const bool degraded = headRec.degradedPath;
            if (!degraded && expired(head.id, gpuDeadline)) {
                queue.pop();
                ++headRec.gpuAttempts;
                failAttempt(headRec, true, now,
                            fault::FaultKind::RequestTimeout, 0, false,
                            nd);
                continue;
            }
            if (degraded || !batching_) {
                // The degraded pass is the last-ditch answer: never
                // held for co-batchees, never mixed into a shared
                // run.
                const Request solo = queue.pop();
                launchGpu(nd, {&solo, 1}, degraded);
                continue;
            }

            const uint32_t bucket = static_cast<uint32_t>(
                head.tokens / config_.bucketTokens);
            const auto accept = [&](const Request &cand) -> bool {
                // Degraded and expired candidates stay queued; they
                // dispatch, or fail, once they reach the head.
                if (result_.records[cand.id].degradedPath ||
                    expired(cand.id, gpuDeadline))
                    return false;
                return cand.tokens / config_.bucketTokens == bucket;
            };
            // VRAM gate: the batch's padded activations must fit the
            // worker's device share; an oversized group splits (the
            // remainder stays queued for the next free worker).
            const size_t execTokens =
                static_cast<size_t>(bucket + 1) * config_.bucketTokens -
                1;
            const size_t vramCap =
                gpusim::maxBatchForVram(platform_, execTokens,
                                        inferOptions_.config) *
                gpusPerWorker_;
            const size_t cap = std::min<size_t>(
                config_.batchMax, std::max<size_t>(1, vramCap));
            const size_t avail = queue.countIf(accept);
            // Compare against the same rounded sum the timer
            // carries, so the hold always ends once the clock
            // reaches the pushed wake-up.
            const double waitDeadline =
                stageEnqueue_[head.id] + config_.batchWaitSeconds;
            if (avail < cap && config_.batchWaitSeconds > 0.0 &&
                now < waitDeadline) {
                // Hold for co-batchees: wake the dispatcher when the
                // head's wait budget expires.
                batchTimers_.push({waitDeadline, eventSeq_++});
                break; // head-of-line holds this queue
            }
            if (cap < config_.batchMax && avail > cap)
                ++result_.vramBatchSplits;
            const auto members = queue.popBatch(cap, accept);
            launchGpu(nd, members, false);
        }
    }

    /**
     * Start one GPU dispatch of @p members (policy order, head
     * first) on the node's lowest idle worker. A dispatch of one
     * runs through simulateBatchedInference's B = 1 path, which is
     * the unbatched simulator's arithmetic, and carries no member
     * list.
     */
    void
    launchGpu(uint32_t nd, std::span<const Request> members,
              bool degraded)
    {
        const double now = clock_;
        auto &idle = freeGpu_[nd];
        const uint32_t wid = idle.back();
        idle.pop_back();
        auto &worker = gpuWorkers_[nd][wid];
        inferOptions_.gpuAlreadyInitialized = worker.initialized;
        std::vector<size_t> tokensList;
        tokensList.reserve(members.size());
        for (const auto &m : members)
            tokensList.push_back(m.tokens);
        const auto infer = gpusim::simulateBatchedInference(
            platform_, tokensList, worker.xla, inferOptions_,
            gpusPerWorker_);
        if (infer.oom)
            fatal("serve: inference for sample '" + members[0].sample +
                  "' OOMs on " + platform_.name +
                  " without unified memory");
        worker.initialized = true;

        double service = infer.totalSeconds();
        if (degraded)
            // Reduced-recycling fallback: fewer diffusion recycles,
            // proportionally less GPU compute.
            service -= infer.gpuComputeSeconds *
                       (1.0 - recovery_.degradedRecyclingFactor);

        Completion c{now + service, wid, members[0].id, nd, now};
        if (members.size() > 1)
            c.members.reserve(members.size());
        // The dispatch must beat its tightest member deadline; an
        // overrun aborts every member. The degraded pass is exempt
        // from deadlines and injection, so it always completes.
        double deadline = kNoEvent;
        for (const auto &m : members) {
            auto &rec = result_.records[m.id];
            ++rec.gpuAttempts;
            rec.node = nd;
            rec.gpuStartSeconds = now;
            rec.compileSeconds = infer.compileSeconds;
            rec.batchSize = static_cast<uint32_t>(members.size());
            if (members.size() > 1)
                c.members.push_back(m.id);
            if (!degraded)
                deadline = std::min(
                    deadline,
                    deadlineOf(m.id, recovery_.gpuDeadlineSeconds));
        }

        // Former accounting: only batches the former built count,
        // not solo dispatches or the degraded singleton.
        if (batching_ && !degraded) {
            ++result_.batchesFormed;
            result_.batchedRequests += members.size();
            result_.maxBatchOccupancy = std::max<uint64_t>(
                result_.maxBatchOccupancy, members.size());
            result_.batchUsefulFlops += infer.usefulFlops;
            result_.batchPaddedFlops += infer.paddedFlops;
            if (infer.compileSeconds > 0.0) {
                ++result_.batchCompiles;
                result_.batchCompileSeconds += infer.compileSeconds;
                result_.compileSharedRequests += members.size();
            }
        }

        // One service attempt per dispatch: a batch draws the
        // injector exactly once, like a dispatch of one, so enabling
        // batching never shifts the decision stream of later sites.
        if (faultsOn_ && !degraded) {
            const auto d = injector_.gpuService();
            if (d.crash) {
                c.fault = true;
                c.kind = fault::FaultKind::GpuWorkerCrash;
                c.workerDies = true;
                c.permanent = d.permanent;
                c.time = now + service * d.failFraction;
            }
        }
        startAttempt(std::move(c), deadline, true);
    }

    /**
     * Put attempt @p c into service: an attempt still running at
     * @p deadline aborts there as a request timeout. Books the
     * worker time it occupies as busy (and as lost when it aborts)
     * and queues its completion. Both stages start every attempt
     * here.
     */
    void
    startAttempt(Completion c, double deadline, bool gpuStage)
    {
        if (deadline < c.time) {
            c.time = deadline;
            c.fault = true;
            c.kind = fault::FaultKind::RequestTimeout;
            c.workerDies = false;
            c.permanent = false;
        }
        const double occupied = c.time - c.start;
        bookBusy(gpuStage, c.node, occupied);
        if (c.fault)
            result_.lostServiceSeconds += occupied;
        (gpuStage ? gpuBusy_ : msaBusy_).push(std::move(c));
    }

    /** Add @p seconds to the stage's busy time, cluster-wide and on
     *  node @p nd. */
    void
    bookBusy(bool gpuStage, uint32_t nd, double seconds)
    {
        auto &ns = result_.nodeStats[nd];
        (gpuStage ? result_.gpuBusySeconds : result_.msaBusySeconds) +=
            seconds;
        (gpuStage ? ns.gpuBusySeconds : ns.msaBusySeconds) += seconds;
    }

    /** A dispatch aborted at its completion time: crash its worker,
     *  or return it to the idle list, then push every member through
     *  the retry path with its own backoff budget. */
    void
    failDispatch(const Completion &done, bool gpuStage)
    {
        bool permanent = false;
        if (done.workerDies)
            permanent = crashWorker(done.node, done.worker, gpuStage,
                                    done.time, done.permanent);
        else
            (gpuStage ? freeGpu_ : freeMsa_)[done.node].push_back(
                done.worker);
        const uint32_t perPool =
            gpuStage ? config_.gpuWorkers : config_.msaWorkers;
        forEachMember(done, [&](uint64_t id) {
            failAttempt(result_.records[id], gpuStage, done.time,
                        done.kind, done.node * perPool + done.worker,
                        permanent, done.node);
        });
    }

    /** Handle a crash: respawn after the boot delay, or shrink the
     *  pool permanently — never below one live replica. */
    bool
    crashWorker(uint32_t nd, uint32_t wid, bool gpuPool, double now,
                bool permanent)
    {
        uint32_t &live = gpuPool ? liveGpu_[nd] : liveMsa_[nd];
        if (permanent && live <= 1)
            permanent = false; // supervisor restarts the last one
        if (gpuPool)
            gpuWorkers_[nd][wid].xla.clear(); // persistent state lost
        if (permanent) {
            --live;
            ++result_.permanentWorkerLosses;
            return permanent;
        }
        respawns_.push(
            {now + (gpuPool ? gpuRespawnDelay_ : msaRespawnDelay_),
             wid, gpuPool, eventSeq_++, nd, nodeGen_[nd]});
        return permanent;
    }

    /**
     * A service attempt for @p rec on @p stage just died at @p now
     * (injected fault, deadline, or node loss): retry with backoff
     * while the per-stage attempt cap and the cluster retry budget
     * allow, else degrade (shed the MSA stage, reduced-recycling
     * GPU pass) or fail hard. @p node is where the retry re-enters;
     * a dead node reroutes when the requeue fires.
     */
    void
    failAttempt(RequestRecord &rec, bool gpuStage, double now,
                fault::FaultKind kind, uint32_t worker, bool permanent,
                uint32_t node)
    {
        ++rec.faultsSeen;
        injector_.record({now, kind, worker, rec.request.id,
                          permanent});
        if (kind == fault::FaultKind::RequestTimeout)
            ++result_.timeouts;

        const uint32_t attempts =
            gpuStage ? rec.gpuAttempts : rec.msaAttempts;
        if (attempts < recovery_.maxAttemptsPerStage &&
            retriesUsed_ < recovery_.retryBudget) {
            ++retriesUsed_;
            ++result_.retries;
            const double backoff =
                recovery_.backoffBaseSeconds *
                std::pow(recovery_.backoffMultiplier,
                         static_cast<double>(attempts) - 1.0);
            requeues_.push({now + backoff, rec.request.id, gpuStage,
                            eventSeq_++, node});
            return;
        }
        if (recovery_.degradeOnExhaustion) {
            if (!rec.degradedPath) {
                rec.degradedPath = true;
                if (!gpuStage) // no-MSA fallback: skip the stage
                    rec.msaEndSeconds = now;
            }
            requeues_.push(
                {now, rec.request.id, true, eventSeq_++, node});
            return;
        }
        finish(rec, Outcome::Failed, now);
    }

    void
    finish(RequestRecord &rec, Outcome outcome, double now)
    {
        rec.outcome = outcome;
        rec.finishSeconds = now;
        finished_[rec.request.id] = 1;
        admission_.release();
    }

    /** Node @p nd at full strength, shared by setup and rebuild:
     *  every worker live and idle, the GPU workers cold, with
     *  persistent compile caches at the configured bucket width (the
     *  batch former groups by the same buckets). */
    void
    resetNodeWorkers(uint32_t nd)
    {
        liveMsa_[nd] = config_.msaWorkers;
        liveGpu_[nd] = config_.gpuWorkers;
        gpuWorkers_[nd].assign(
            config_.gpuWorkers,
            GpuWorker{gpusim::XlaCache(config_.bucketTokens)});
        freeGpu_[nd].clear();
        freeMsa_[nd].clear();
        for (uint32_t w = config_.gpuWorkers; w-- > 0;)
            freeGpu_[nd].push_back(w); // back() pops lowest id first
        for (uint32_t w = config_.msaWorkers; w-- > 0;)
            freeMsa_[nd].push_back(w);
    }

    /** End-of-run aggregation: outcome counts, cache, queue and
     *  fault counters, and the fabric's trace. */
    ClusterResult
    collect()
    {
        for (size_t i = 0; i < result_.records.size(); ++i) {
            panicIf(!finished_[i],
                    "serve: request lost by the event loop");
            const Outcome o = result_.records[i].outcome;
            ++(o == Outcome::Completed  ? result_.completed
               : o == Outcome::Degraded ? result_.degraded
               : o == Outcome::Failed   ? result_.failed
                                        : result_.shed);
            // A response may still be on the wire when the last node
            // event fires; the makespan covers its arrival.
            result_.makespanSeconds =
                std::max(result_.makespanSeconds,
                         result_.records[i].finishSeconds);
        }
        result_.cacheStats = lostCacheStats_;
        for (const auto &shard : caches_) {
            result_.cacheStats += shard.stats();
            result_.cacheBytesInUse += shard.bytesInUse();
            result_.cacheEntries += shard.entries();
        }
        for (uint32_t nd = 0; nd < nodes_; ++nd) {
            result_.msaQueueMaxDepth = std::max(
                result_.msaQueueMaxDepth, msaQueues_[nd].maxDepth());
            result_.gpuQueueMaxDepth = std::max(
                result_.gpuQueueMaxDepth, gpuQueues_[nd].maxDepth());
        }
        result_.maxInSystem = admission_.maxInSystem();

        result_.faultsInjected = injector_.injectedCount();
        result_.faultsByKind = injector_.countsByKind();
        result_.faultLog = injector_.renderLog();

        result_.comm = fabric_.stats();
        result_.links = fabric_.activeLinks();
        if (multiNode_)
            result_.commTrace = fabric_.trace();

        for (const auto &rec : result_.records) {
            const std::string &s = rec.request.sample;
            if (!result_.msaSecondsBySample.count(s) &&
                rec.outcome == Outcome::Completed && !rec.msaCacheHit &&
                !rec.faultAffected())
                result_.msaSecondsBySample[s] =
                    rec.msaEndSeconds - rec.msaStartSeconds;
        }
        return std::move(result_);
    }

    const MsaServiceOracle::Service &
    msaService(const std::string &sample)
    {
        return oracle_.characterize(platform_, workspace_, config_,
                                    sample);
    }

    /** The cache shard owning content hash @p key. */
    uint32_t ownerOf(uint64_t key) const { return key % nodes_; }

    /** True when @p id has sat in its stage queue for @p limit
     *  seconds or more (a zero @p limit never expires). */
    bool
    expired(uint64_t id, double limit) const
    {
        return limit > 0.0 && clock_ - stageEnqueue_[id] >= limit;
    }

    /** Absolute stage deadline of @p id; kNoEvent for a zero
     *  @p limit. */
    double
    deadlineOf(uint64_t id, double limit) const
    {
        return limit > 0.0 ? stageEnqueue_[id] + limit : kNoEvent;
    }

    const sys::PlatformSpec &platform_;
    const core::Workspace &workspace_;
    const ClusterConfig &config_;
    const RecoveryPolicy &recovery_;
    const uint32_t nodes_;
    const bool multiNode_;
    const bool simEnabled_;
    const bool batching_;
    const bool faultsOn_;
    const uint32_t router_;
    /** Continuous batching: each GPU worker drives an equal share of
     *  the node's data-parallel devices (at least one). */
    const uint32_t gpusPerWorker_;
    const double msaRespawnDelay_;
    const double gpuRespawnDelay_;
    /** The MSA result cache shards by content hash across nodes;
     *  single-node keeps the whole budget in its one shard, so its
     *  behavior is exactly the unsharded cache. */
    const uint64_t perNodeBudget_;

    ClusterResult result_;
    std::vector<Request> arrivals_; ///< arrival order; index == id
    size_t nextArrival_ = 0;
    double clock_ = 0.0;

    MsaServiceOracle localOracle_;
    MsaServiceOracle &oracle_;
    net::Interconnect fabric_;
    fault::Injector injector_;
    AdmissionController admission_;
    gpusim::InferenceSimOptions inferOptions_;

    std::vector<MsaResultCache> caches_;
    MsaResultCache::Stats lostCacheStats_;
    std::vector<DispatchQueue> msaQueues_;
    std::vector<DispatchQueue> gpuQueues_;
    std::vector<std::vector<GpuWorker>> gpuWorkers_;
    std::vector<std::vector<uint32_t>> freeGpu_;
    std::vector<std::vector<uint32_t>> freeMsa_;

    MinQueue<Completion> msaBusy_;
    MinQueue<Completion> gpuBusy_;
    MinQueue<Respawn> respawns_;
    MinQueue<Requeue> requeues_;
    MinQueue<NodeUp> nodeUps_;
    MinQueue<BatchTimer> batchTimers_;
    uint64_t eventSeq_ = 0;

    /** Per-node live-replica counts; the last live replica of a pool
     *  on a node is never lost permanently (the supervisor always
     *  restarts the final replica), so no queue can strand. */
    std::vector<uint32_t> liveMsa_;
    std::vector<uint32_t> liveGpu_;
    std::vector<char> nodeAlive_;
    std::vector<uint64_t> nodeGen_;
    uint64_t retriesUsed_ = 0;
    uint64_t routeCounter_ = 0;

    /** Scripted node kills, in (time, script order); only meaningful
     *  in a multi-node topology (a kill may never take the last live
     *  node). */
    std::vector<fault::NodeKill> kills_;
    size_t nextKill_ = 0;

    /** Per-request time of the latest entry into its current stage
     *  queue (deadlines run from here); terminal flag for the
     *  conservation check. */
    std::vector<double> stageEnqueue_;
    std::vector<char> finished_;
};

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
    if (config.recovery.maxAttemptsPerStage == 0)
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
    return ClusterSim(platform, workspace, requests, config).run();
}

} // namespace afsb::serve
