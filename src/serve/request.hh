/**
 * @file
 * Request and per-request trace types for the serving-cluster
 * simulator.
 *
 * A request is one user query: a Table II sample (optionally one of
 * several distinct query variants with the same workload character),
 * arriving at a known simulated time. Its record captures every
 * timestamp on the way through the cluster — admission, MSA stage,
 * GPU stage — so the SLO report can split latency into queueing vs
 * service per pool.
 */

#ifndef AFSB_SERVE_REQUEST_HH
#define AFSB_SERVE_REQUEST_HH

#include <cstdint>
#include <string>

#include "msa/sketch.hh"

namespace afsb::serve {

/** One user query in the open-loop request stream. */
struct Request
{
    uint64_t id = 0;          ///< arrival order, 0-based
    std::string sample;       ///< Table II sample name
    uint32_t variant = 0;     ///< distinct-query salt within a sample
    size_t tokens = 0;        ///< total residues (the SJF predictor)
    uint64_t contentHash = 0; ///< content-addressed MSA cache key
    double arrivalSeconds = 0.0;

    /** MinHash sketch for the similarity cache tier; empty unless
     *  the workload was generated with sketching on. */
    msa::QuerySketch sketch;
};

/** Terminal state of a request. */
enum class Outcome {
    Completed, ///< served through both stages at full quality
    Degraded,  ///< served via the no-MSA / reduced-recycling
               ///< fallback after the retry budget ran out
    Failed,    ///< gave up: retries exhausted, degradation off
    Shed,      ///< rejected by admission control
};

/** Canonical lower-case name (stable; used in CSV and reports). */
inline const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
    case Outcome::Completed:
        return "completed";
    case Outcome::Degraded:
        return "degraded";
    case Outcome::Failed:
        return "failed";
    case Outcome::Shed:
        return "shed";
    }
    return "unknown";
}

/** Full per-request trace through the cluster. */
struct RequestRecord
{
    Request request;
    Outcome outcome = Outcome::Completed;

    /** MSA stage skipped via the content-addressed result cache. */
    bool msaCacheHit = false;

    /** Served via the similarity tier: a near-identical cached
     *  query's survivor set was reused, the MSA stage ran as a
     *  delta re-search instead of a full database scan. */
    bool approxHit = false;

    /** A similarity candidate was found but the delta's acceptance
     *  check failed: the request paid the delta re-search *and* the
     *  full scan it fell back to. */
    bool deltaFallback = false;

    /** Finished (or failed) on the degraded fallback path. */
    bool degradedPath = false;

    /** Node that served (or last attempted) the request; always 0
     *  in a single-node topology. */
    uint32_t node = 0;

    /** Multi-node only: the MSA-cache shard owning this request's
     *  content hash lived on a different node, so the lookup (and
     *  any hit) paid a modeled cross-node transfer. */
    bool remoteCache = false;

    /** Service dispatches per stage (1 on a fault-free run; each
     *  retry adds one). */
    uint32_t msaAttempts = 0;
    uint32_t gpuAttempts = 0;

    /** Faults (injected or deadline timeouts) this request hit. */
    uint32_t faultsSeen = 0;

    /** Timestamps below describe the *successful* attempt; earlier
     *  failed attempts and their backoff show up as queue time. */
    double msaStartSeconds = 0.0; ///< MSA service begins (hit: skip)
    double msaEndSeconds = 0.0;   ///< MSA result available
    double gpuStartSeconds = 0.0; ///< inference service begins
    double finishSeconds = 0.0;   ///< response complete

    /** XLA compile paid on the assigned GPU worker (0 once the
     *  worker's persistent cache holds the shape bucket). In a
     *  batched dispatch every member records the one shared
     *  compile it waited through. */
    double compileSeconds = 0.0;

    /** Members of the latest GPU dispatch this request rode: 1 for a
     *  dispatch of one, batching on or off; 0 if it never reached
     *  the GPU. */
    uint32_t batchSize = 0;

    /** Touched by at least one fault, retry, or timeout — the SLO
     *  report's clean-vs-affected tail split keys off this. */
    bool
    faultAffected() const
    {
        return faultsSeen > 0 || degradedPath || msaAttempts > 1 ||
               gpuAttempts > 1;
    }

    /** Wait before an MSA worker (0 on a cache hit). */
    double
    msaQueueSeconds() const
    {
        return msaStartSeconds - request.arrivalSeconds;
    }

    /** Wait between MSA completion and a GPU worker. */
    double
    gpuQueueSeconds() const
    {
        return gpuStartSeconds - msaEndSeconds;
    }

    /** Total time spent waiting in queues. */
    double
    queueSeconds() const
    {
        return msaQueueSeconds() + gpuQueueSeconds();
    }

    /** Total time in service (MSA + inference). */
    double
    serviceSeconds() const
    {
        return (msaEndSeconds - msaStartSeconds) +
               (finishSeconds - gpuStartSeconds);
    }

    /** End-to-end latency (finish - arrival). */
    double
    latencySeconds() const
    {
        return finishSeconds - request.arrivalSeconds;
    }
};

} // namespace afsb::serve

#endif // AFSB_SERVE_REQUEST_HH
