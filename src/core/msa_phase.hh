/**
 * @file
 * The MSA phase of the AF3 pipeline on a simulated platform.
 *
 * Runs the real search engines (jackhmmer analog per protein chain,
 * nhmmer analog per RNA chain) over the scaled databases with
 * per-thread cache-hierarchy tracing, then extrapolates to paper
 * scale through the analytic timing model:
 *
 *   paper-seconds = timing(counters x dbScaleFactor, platform, T)
 *
 * plus a storage model for the paper-scale database residency story
 * (Server's 512 GiB holds everything; Desktop's 64 GiB streams from
 * NVMe) and the Fig 2 peak-memory model with OOM semantics.
 */

#ifndef AFSB_CORE_MSA_PHASE_HH
#define AFSB_CORE_MSA_PHASE_HH

#include <memory>

#include "cachesim/timing.hh"
#include "core/workspace.hh"
#include "msa/jackhmmer.hh"
#include "msa/nhmmer.hh"
#include "sys/memory_model.hh"

namespace afsb::core {

/** MSA-phase run options. */
struct MsaPhaseOptions
{
    /** Worker threads (AF3 defaults to 8). */
    uint32_t threads = 8;

    /** jackhmmer iterations per protein chain. */
    size_t jackhmmerIterations = 2;

    /** Memory-trace sampling stride (1 = exact, slower). */
    uint32_t traceStride = 4;

    /**
     * Preload databases into the page cache before scanning — the
     * Section VI "Preloading Databases" optimization.
     */
    bool preloadDatabases = false;

    /** Abort with OOM when the modeled peak exceeds memory. */
    bool enforceMemoryLimit = true;
};

/** Result of one MSA phase. */
struct MsaPhaseResult
{
    bool oom = false;          ///< modeled peak exceeded memory
    sys::MemFit memFit = sys::MemFit::FitsDram;

    double seconds = 0.0;      ///< modeled paper-scale wall time
    double ioSeconds = 0.0;    ///< paper-scale storage time
    double computeSeconds = 0.0;

    uint64_t peakMemoryBytes = 0;

    /** Aggregated per-function counters (paper-scale unscaled). */
    std::vector<cachesim::FuncCounters> perFunction;
    cachesim::FuncCounters totals;

    /**
     * Pipeline composition counters from the real scans (always
     * traced here), summed over every protein and RNA chain
     * searched.
     */
    msa::SearchStats scanStats;

    /** Timing-model detail. */
    cachesim::TimingResult timing;

    /** Per-chain MSA depths (embedder input). */
    std::vector<size_t> msaDepthPerChain;

    /** Storage picture at paper scale. */
    double diskBytesRead = 0.0;
    double storageUtilizationPct = 0.0;
};

/**
 * Run the MSA phase of @p complex_input on @p platform.
 */
MsaPhaseResult runMsaPhase(const bio::Complex &complex_input,
                           const sys::PlatformSpec &platform,
                           const Workspace &workspace,
                           const MsaPhaseOptions &options = {});

} // namespace afsb::core

#endif // AFSB_CORE_MSA_PHASE_HH
