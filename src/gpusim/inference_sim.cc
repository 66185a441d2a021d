#include "gpusim/inference_sim.hh"

#include <algorithm>

#include "util/logging.hh"

namespace afsb::gpusim {

double
InferenceSimResult::pairformerSeconds() const
{
    double total = 0.0;
    for (const auto &[name, secs] : layerSeconds) {
        for (int k = 0; k <= 13; ++k) {
            const auto kind = static_cast<model::LayerKind>(k);
            if (model::layerKindName(kind) == name &&
                model::isPairformerLayer(kind))
                total += secs;
        }
    }
    return total;
}

double
InferenceSimResult::diffusionSeconds() const
{
    double total = 0.0;
    for (const auto &[name, secs] : layerSeconds) {
        for (int k = 0; k <= 13; ++k) {
            const auto kind = static_cast<model::LayerKind>(k);
            if (model::layerKindName(kind) == name &&
                model::isDiffusionLayer(kind))
                total += secs;
        }
    }
    return total;
}

namespace {

/** Extra host threads help only the parallelizable share of
 *  preprocessing (dispatch is one host thread). */
double
threadScaleOf(const InferenceSimOptions &options)
{
    return (1.0 - options.hostParallelFraction) +
           options.hostParallelFraction /
               std::max<uint32_t>(1, options.threads);
}

/** Share of @p footprint past VRAM: only the overflow pays the
 *  unified-memory penalty. */
double
spillFractionOf(const sys::GpuSpec &gpu, uint64_t footprint)
{
    return footprint > gpu.vramBytes
               ? 1.0 - static_cast<double>(gpu.vramBytes) /
                           static_cast<double>(footprint)
               : 0.0;
}

/** Scalar phases of one dispatch at its native length. */
struct NativeDispatch
{
    bool oom = false;
    bool usedUnifiedMemory = false;
    double initSeconds = 0.0;
    double compileSeconds = 0.0;
    double gpuComputeSeconds = 0.0;
    double finalizeSeconds = 0.0;
    const GraphShape *shape = nullptr;   ///< null on OOM
    const ShapeReplay *replay = nullptr; ///< null on OOM
};

/**
 * The one arithmetic path of an unbatched dispatch, shared by
 * simulateInference and the B=1 batch. The op graph and its roofline
 * replay come from @p cache's memo; everything that reads per-call
 * state runs here on every call: the compile lookups (they mutate
 * the cache), the init skip, the thread scale, and the walk from
 * gpuStart.
 */
NativeDispatch
dispatchNative(const sys::PlatformSpec &platform, size_t tokens,
               XlaCache &cache, const InferenceSimOptions &options)
{
    NativeDispatch d;
    // The IR is the single source of the op list: its per-op costs
    // are copied bit-for-bit from the analytic layer model, so this
    // replay is bit-identical to the pre-IR inline path (enforced
    // by tests/opgraph/test_roofline_identity.cc).
    const GraphShape &shape = cache.graph(options.config, tokens);

    // Memory placement: weights + activations vs VRAM.
    const uint64_t footprint =
        shape.activationBytes + shape.weightBytes;
    const bool spills = footprint > platform.gpu.vramBytes;
    if (spills && !options.unifiedMemory) {
        d.oom = true;
        return d;
    }
    d.usedUnifiedMemory = spills;

    const XlaPhases phases =
        evaluateXlaPhases(platform, shape.graph, tokens, cache);
    const double threadScale = threadScaleOf(options);
    d.initSeconds = options.gpuAlreadyInitialized
                        ? 0.0
                        : phases.initSeconds * threadScale;
    d.compileSeconds = phases.compileSeconds * threadScale;
    d.finalizeSeconds = phases.finalizeSeconds * threadScale;

    // GPU execution of the operator graph. The per-op totals are
    // memoized, never their sum: gpuComputeSeconds = cursor -
    // gpuStart depends on the bits of gpuStart.
    const ShapeReplay &replay =
        cache.replay(platform.gpu, options.config, tokens, 1,
                     spillFractionOf(platform.gpu, footprint));
    const double gpuStart = d.initSeconds + d.compileSeconds;
    double cursor = gpuStart;
    for (double opSeconds : replay.opSeconds)
        cursor += opSeconds;
    d.gpuComputeSeconds = cursor - gpuStart;
    d.shape = &shape;
    d.replay = &replay;
    return d;
}

} // namespace

InferenceSimResult
simulateInference(const sys::PlatformSpec &platform, size_t tokens,
                  XlaCache &cache,
                  const InferenceSimOptions &options)
{
    InferenceSimResult result;
    const NativeDispatch d =
        dispatchNative(platform, tokens, cache, options);
    if (d.oom) {
        result.oom = true;
        return result;
    }
    result.usedUnifiedMemory = d.usedUnifiedMemory;
    result.initSeconds = d.initSeconds;
    result.compileSeconds = d.compileSeconds;
    result.gpuComputeSeconds = d.gpuComputeSeconds;
    result.finalizeSeconds = d.finalizeSeconds;
    result.deviceStats = d.replay->stats;

    // The timeline and the per-layer map repeat dispatchNative's
    // walk, so every span starts at the same cursor bits.
    result.timeline.addSpan("gpu_init", TimelineLane::Host,
                            result.initSeconds);
    result.timeline.addSpanAt("xla_compile", TimelineLane::Compile,
                              result.initSeconds,
                              result.compileSeconds);
    const auto &ops = d.shape->graph.ops;
    double cursor = result.initSeconds + result.compileSeconds;
    for (size_t i = 0; i < ops.size(); ++i) {
        const double layerTotal = d.replay->opSeconds[i];
        result.layerSeconds[ops[i].name()] += layerTotal;
        result.timeline.addSpanAt(ops[i].name(),
                                  TimelineLane::GpuCompute, cursor,
                                  layerTotal);
        cursor += layerTotal;
    }
    result.timeline.addSpanAt("finalize", TimelineLane::Host, cursor,
                              result.finalizeSeconds);
    return result;
}

size_t
maxBatchForVram(const sys::PlatformSpec &platform,
                size_t execTokens, const model::ModelConfig &cfg)
{
    const uint64_t weights = model::weightBytes(cfg);
    const uint64_t act = model::activationBytes(execTokens, cfg);
    if (platform.gpu.vramBytes <= weights || act == 0)
        return 1;
    const uint64_t fit = (platform.gpu.vramBytes - weights) / act;
    return std::max<size_t>(1, static_cast<size_t>(fit));
}

BatchedInferenceResult
simulateBatchedInference(const sys::PlatformSpec &platform,
                         const std::vector<size_t> &tokensList,
                         XlaCache &cache,
                         const InferenceSimOptions &options,
                         uint32_t gpus)
{
    BatchedInferenceResult out;
    out.batchSize = tokensList.size();
    out.gpus = std::max<uint32_t>(1, gpus);
    if (tokensList.empty())
        return out;

    const auto &cfg = options.config;
    if (tokensList.size() == 1) {
        // A solo dispatch runs at its native length through the
        // unbatched simulator's own arithmetic.
        const NativeDispatch solo =
            dispatchNative(platform, tokensList[0], cache, options);
        out.oom = solo.oom;
        out.execTokens = tokensList[0];
        if (solo.oom)
            return out;
        out.usedUnifiedMemory = solo.usedUnifiedMemory;
        out.initSeconds = solo.initSeconds;
        out.compileSeconds = solo.compileSeconds;
        out.gpuComputeSeconds = solo.gpuComputeSeconds;
        out.finalizeSeconds = solo.finalizeSeconds;
        out.deviceStats = solo.replay->stats;
        out.usefulFlops = solo.shape->totalFlops;
        return out;
    }

    const uint32_t bucket = cache.bucketOf(tokensList[0]);
    size_t sumTokens = 0;
    for (size_t t : tokensList) {
        panicIf(cache.bucketOf(t) != bucket,
                "batched inference: members span token buckets");
        sumTokens += t;
    }
    const size_t execTokens = cache.paddedTokens(tokensList[0]);
    out.execTokens = execTokens;
    const GraphShape &shape = cache.graph(cfg, execTokens);

    // Round-robin data parallelism: device g serves members
    // g, g+G, g+2G, ...; the largest shard bounds the GPU phase.
    const size_t batch = tokensList.size();
    const uint32_t devices = out.gpus;
    const size_t maxShard = (batch + devices - 1) / devices;

    // Memory placement per device: replicated weights + the shard's
    // padded activations vs VRAM.
    const uint64_t footprint =
        static_cast<uint64_t>(maxShard) * shape.activationBytes +
        shape.weightBytes;
    const bool spills = footprint > platform.gpu.vramBytes;
    if (spills && !options.unifiedMemory) {
        out.oom = true;
        return out;
    }
    out.usedUnifiedMemory = spills;
    const double spillFraction =
        spillFractionOf(platform.gpu, footprint);

    // Host phases are paid once for the whole batch: one shared
    // (layer, bucket) compile — execTokens stays inside the member
    // bucket by construction — and one init on a cold worker.
    const XlaPhases phases =
        evaluateXlaPhases(platform, shape.graph, execTokens, cache);
    const double threadScale = threadScaleOf(options);
    out.initSeconds = options.gpuAlreadyInitialized
                          ? 0.0
                          : phases.initSeconds * threadScale;
    out.compileSeconds = phases.compileSeconds * threadScale;

    // Finalize: the base (teardown, dispatch unwind) amortizes over
    // the batch; per-token output assembly covers every member's
    // real tokens (pad tokens produce no output).
    const XlaCostModel costs;
    out.finalizeSeconds =
        hostClockFactor(platform, costs) *
        (costs.baseFinalizeSeconds +
         costs.finalizePerToken * static_cast<double>(sumTokens)) *
        threadScale;

    // GPU execution: every kernel runs batch-scaled (flops and
    // activation traffic x shard size), which amortizes the launch
    // cost and the utilization ramp across members. Each device in
    // the fan-out executes its own shard; the phase ends when the
    // largest shard does.
    for (uint32_t g = 0; g < devices; ++g) {
        const size_t shard =
            batch / devices + (g < batch % devices ? 1 : 0);
        if (shard == 0)
            continue;
        const ShapeReplay &replay = cache.replay(
            platform.gpu, cfg, execTokens, shard, spillFraction);
        out.gpuComputeSeconds =
            std::max(out.gpuComputeSeconds, replay.shardSeconds);
        const DeviceStats &st = replay.stats;
        out.deviceStats.kernelsLaunched += st.kernelsLaunched;
        out.deviceStats.flopsExecuted += st.flopsExecuted;
        out.deviceStats.bytesMoved += st.bytesMoved;
        out.deviceStats.busySeconds += st.busySeconds;
        out.deviceStats.launchSeconds += st.launchSeconds;
    }

    // Useful vs pad FLOPs: the device executed every member at the
    // padded length; only the members' native graphs are useful.
    const double executedFlops =
        shape.totalFlops * static_cast<double>(batch);
    for (size_t t : tokensList)
        out.usefulFlops += cache.graph(cfg, t).totalFlops;
    out.paddedFlops = std::max(0.0, executedFlops - out.usefulFlops);
    return out;
}

} // namespace afsb::gpusim
