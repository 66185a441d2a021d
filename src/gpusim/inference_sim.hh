/**
 * @file
 * Full inference-phase simulation (the Fig 8 / Fig 9 / Table VI
 * generator).
 *
 * Executes the AF3 operator graph at paper scale on the roofline
 * device, preceded by the XLA host phases, with unified-memory
 * spill when activations exceed VRAM (the 6QNR-on-RTX4080 case) and
 * an Nsight-like timeline. Kernel dispatch is modeled as a single
 * host thread (the paper's explanation for flat inference thread
 * scaling): extra CPU threads only accelerate the (small) parallel
 * share of host preprocessing.
 */

#ifndef AFSB_GPUSIM_INFERENCE_SIM_HH
#define AFSB_GPUSIM_INFERENCE_SIM_HH

#include <map>
#include <string>

#include "gpusim/device.hh"
#include "gpusim/timeline.hh"
#include "gpusim/xla.hh"
#include "model/flops.hh"

namespace afsb::gpusim {

/** Options for one simulated inference request. */
struct InferenceSimOptions
{
    /** Host threads available to the inference process. */
    uint32_t threads = 1;

    /** Allow spilling past VRAM via unified memory; without it an
     *  over-VRAM request fails (OOM). */
    bool unifiedMemory = true;

    /** The process already holds a CUDA context and mapped VRAM
     *  (long-lived server): skip GPU initialization. */
    bool gpuAlreadyInitialized = false;

    /** Model configuration (paper dimensions by default). */
    model::ModelConfig config = model::paperConfig();

    /**
     * Fraction of host preprocessing that parallelizes across
     * threads; dispatch itself is single-threaded (Nsight finding).
     */
    double hostParallelFraction = 0.15;
};

/** Phase breakdown of one inference request (Fig 8 bars). */
struct InferenceSimResult
{
    bool oom = false;            ///< exceeded VRAM without UM
    bool usedUnifiedMemory = false;

    double initSeconds = 0.0;    ///< GPU/driver initialization
    double compileSeconds = 0.0; ///< XLA compilation
    double gpuComputeSeconds = 0.0;
    double finalizeSeconds = 0.0;

    /** Per-layer GPU seconds (Fig 9 / Table VI). */
    std::map<std::string, double> layerSeconds;

    Timeline timeline;
    DeviceStats deviceStats;

    double
    totalSeconds() const
    {
        return initSeconds + compileSeconds + gpuComputeSeconds +
               finalizeSeconds;
    }

    /** Share of total spent outside GPU compute. */
    double
    overheadFraction() const
    {
        const double t = totalSeconds();
        return t > 0.0 ? (t - gpuComputeSeconds) / t : 0.0;
    }

    /** Seconds in Pairformer-module layers. */
    double pairformerSeconds() const;

    /** Seconds in Diffusion-module layers. */
    double diffusionSeconds() const;
};

/**
 * Simulate one inference request.
 * @param cache XLA compilation cache; reuse across calls to model
 *        persistent model state (Section VI optimization). Reuse
 *        also skips the roofline replay of a dispatch shape the
 *        cache has already seen (results are unchanged).
 */
InferenceSimResult simulateInference(
    const sys::PlatformSpec &platform, size_t tokens,
    XlaCache &cache, const InferenceSimOptions &options = {});

/**
 * Outcome of one batched dispatch: B requests from the same token
 * bucket executed together. The batch pays the host phases once
 * (one shared (layer, bucket) compile, one finalize base), runs
 * batch-scaled kernels on the roofline device — amortizing launch
 * overhead and the per-kernel utilization ramp — and accounts the
 * FLOPs spent on pad tokens separately from useful work.
 */
struct BatchedInferenceResult
{
    bool oom = false; ///< a per-device shard exceeds VRAM without UM
    bool usedUnifiedMemory = false;

    size_t batchSize = 0;
    size_t execTokens = 0; ///< padded per-member execution length
    uint32_t gpus = 1;     ///< devices the batch fanned out across

    double initSeconds = 0.0;
    double compileSeconds = 0.0;
    double gpuComputeSeconds = 0.0; ///< max over device shards
    double finalizeSeconds = 0.0;

    /** FLOPs that serve real tokens vs pad tokens. */
    double usefulFlops = 0.0;
    double paddedFlops = 0.0;

    /** Aggregated over all devices in the fan-out. */
    DeviceStats deviceStats;

    double
    totalSeconds() const
    {
        return initSeconds + compileSeconds + gpuComputeSeconds +
               finalizeSeconds;
    }

    /** Share of executed FLOPs burned on padding. */
    double
    paddingWasteFraction() const
    {
        const double total = usefulFlops + paddedFlops;
        return total > 0.0 ? paddedFlops / total : 0.0;
    }
};

/**
 * Largest batch whose activations fit one device alongside the
 * replicated weights at execution length @p execTokens; at least 1
 * (a single over-VRAM request falls back to unified memory or OOM,
 * exactly like the solo path).
 */
size_t maxBatchForVram(const sys::PlatformSpec &platform,
                       size_t execTokens,
                       const model::ModelConfig &cfg);

/**
 * Simulate one batched dispatch of @p tokensList requests, which
 * must all fall in the same @p cache token bucket. A batch of one
 * runs at its native length and reproduces simulateInference
 * bit-identically; larger batches pad every member to the bucket's
 * execution length (cache.paddedTokens). With @p gpus > 1 the batch
 * shards round-robin across data-parallel devices (weights
 * replicated, compile still paid once) and the GPU phase is the
 * slowest shard.
 */
BatchedInferenceResult simulateBatchedInference(
    const sys::PlatformSpec &platform,
    const std::vector<size_t> &tokensList, XlaCache &cache,
    const InferenceSimOptions &options = {}, uint32_t gpus = 1);

} // namespace afsb::gpusim

#endif // AFSB_GPUSIM_INFERENCE_SIM_HH
