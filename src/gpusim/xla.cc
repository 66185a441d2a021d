#include "gpusim/xla.hh"

#include <bit>

#include "opgraph/build.hh"
#include "util/units.hh"

namespace afsb::gpusim {

bool
XlaCache::lookupOrInsert(model::LayerKind kind, size_t tokens)
{
    const ShapeKey key{kind, bucketOf(tokens)};
    return !compiled_.insert(key).second;
}

XlaCache::Architecture
XlaCache::architectureOf(const model::ModelConfig &cfg)
{
    // Every size field; the rest of ModelConfig (pool, arena,
    // kernel and schedule switches) steers native execution only.
    return {cfg.pairDim,
            cfg.singleDim,
            cfg.pairformerBlocks,
            cfg.heads,
            cfg.headDim,
            cfg.diffusionSteps,
            cfg.diffusionTokenDim,
            cfg.localWindow,
            cfg.diffusionBlocks,
            cfg.globalBlocks,
            cfg.msaFeatureDim,
            cfg.recyclingIterations,
            cfg.diffusionSamples};
}

const GraphShape &
XlaCache::graph(const model::ModelConfig &cfg, size_t tokens)
{
    const GraphKey key{tokens, architectureOf(cfg)};
    auto it = graphs_.find(key);
    if (it == graphs_.end()) {
        GraphShape shape;
        shape.graph = opgraph::buildInferenceGraph(tokens, cfg);
        shape.activationBytes = model::activationBytes(tokens, cfg);
        shape.weightBytes = model::weightBytes(cfg);
        shape.totalFlops = shape.graph.totalFlops();
        it = graphs_.emplace(key, std::move(shape)).first;
    }
    return it->second;
}

const ShapeReplay &
XlaCache::replay(const sys::GpuSpec &gpu,
                 const model::ModelConfig &cfg, size_t tokens,
                 size_t shard, double spillFraction)
{
    auto &replays = replays_[gpu];
    const ReplayKey key{GraphKey{tokens, architectureOf(cfg)}, shard,
                        std::bit_cast<uint64_t>(spillFraction)};
    if (const auto it = replays.find(key); it != replays.end())
        return it->second;

    const GraphShape &shape = graph(cfg, tokens);
    const double members = static_cast<double>(shard);
    ShapeReplay out;
    out.opSeconds.reserve(shape.graph.ops.size());
    GpuDevice device(gpu);
    for (const auto &op : shape.graph.ops) {
        double opTotal = 0.0;
        for (uint32_t i = 0; i < op.count; ++i) {
            // Every kernel runs batch-scaled (flops and activation
            // traffic x shard size; x 1.0 is exact, so a shard of
            // one costs what an unbatched dispatch does). The spill
            // penalty applies to the bandwidth-bound portion,
            // weighted by how much of the footprint lives across
            // the PCIe link.
            const double t = device.executeKernel(
                op.flops * members,
                op.trafficBytes() * members *
                    (1.0 +
                     spillFraction * (gpu.unifiedMemPenalty - 1.0)),
                false);
            opTotal += t;
            out.shardSeconds += t;
        }
        out.opSeconds.push_back(opTotal);
    }
    out.stats = device.stats();
    return replays.emplace(key, std::move(out)).first->second;
}

double
hostClockFactor(const sys::PlatformSpec &platform,
                const XlaCostModel &costs)
{
    return costs.refClockGhz / platform.cpu.maxClockGhz;
}

XlaPhases
evaluateXlaPhases(const sys::PlatformSpec &platform,
                  const opgraph::OpGraph &graph, size_t tokens,
                  XlaCache &cache, const XlaCostModel &costs)
{
    XlaPhases out;
    for (const auto &op : graph.ops) {
        if (!cache.lookupOrInsert(op.kind, tokens))
            out.kernelsCompiled += op.kernels;
    }

    // Host phases run on one thread at the platform's peak clock;
    // slower hosts (Server's 4.0 GHz Xeon vs Desktop's 5.6 GHz
    // Ryzen) stretch every phase.
    const double hostFactor = hostClockFactor(platform, costs);

    out.initSeconds =
        hostFactor *
        (costs.baseInitSeconds +
         costs.initPerVramGib *
             static_cast<double>(platform.gpu.vramBytes) /
             static_cast<double>(GiB));

    out.compileSeconds = hostFactor *
                         costs.compileSecondsPerKernel *
                         out.kernelsCompiled;

    out.finalizeSeconds =
        hostFactor * (costs.baseFinalizeSeconds +
                      costs.finalizePerToken *
                          static_cast<double>(tokens));
    return out;
}

} // namespace afsb::gpusim
