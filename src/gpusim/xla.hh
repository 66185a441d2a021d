/**
 * @file
 * JAX/XLA runtime-overhead model: GPU initialization, ahead-of-time
 * kernel compilation, and finalization.
 *
 * The paper finds these CPU-side phases dominate Server inference
 * for short inputs (>75% for 2PV7 on Xeon+H100) while the Desktop
 * spends most time in actual GPU compute (Fig 8), and proposes
 * persistent model state to amortize them (Section VI). The model:
 *
 *  - GPU init: driver/context setup plus VRAM mapping proportional
 *    to device memory (80 GB H100 maps slower than a 16 GB 4080),
 *    all scaled by host single-thread speed (it is one CPU thread).
 *  - XLA compile: a per-kernel cost for every unique (layer, shape)
 *    pair, scaled by host single-thread speed; a warm compilation
 *    cache (persistent state) skips recompilation.
 *  - Finalize: host-side output assembly and teardown.
 */

#ifndef AFSB_GPUSIM_XLA_HH
#define AFSB_GPUSIM_XLA_HH

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "gpusim/device.hh"
#include "model/flops.hh"
#include "opgraph/ir.hh"
#include "sys/platform.hh"

namespace afsb::gpusim {

/** Compilation-cache key: layer kind + token-bucket. */
struct ShapeKey
{
    model::LayerKind kind;
    uint32_t tokenBucket;
    auto operator<=>(const ShapeKey &) const = default;
};

/** The inference op graph at one execution length, with the
 *  per-length quantities every dispatch reads. */
struct GraphShape
{
    opgraph::OpGraph graph;
    uint64_t activationBytes = 0; ///< model::activationBytes
    uint64_t weightBytes = 0;     ///< model::weightBytes
    double totalFlops = 0.0;      ///< graph.totalFlops()
};

/**
 * One roofline replay of a GraphShape on a fresh GpuDevice: every
 * kernel in schedule order, batch-scaled by the shard size, with
 * the spill penalty on its traffic.
 */
struct ShapeReplay
{
    /** Per-op kernel-time sums in schedule order, each from 0.0. */
    std::vector<double> opSeconds;

    /** One running sum over every kernel in schedule order: a
     *  batched shard's GPU phase (not the sum of opSeconds). */
    double shardSeconds = 0.0;

    DeviceStats stats;
};

/**
 * XLA compilation cache. Persisting this object across inference
 * requests is the paper's "maintaining persistent model state"
 * optimization; a fresh cache per request reproduces the default
 * Docker-based behaviour.
 *
 * Next to the compiled shapes it memoizes the dispatch shapes it
 * has seen: op graphs and their roofline replays, pure functions of
 * their keys. The memo never changes a result, so size() and
 * clear() count and drop compiled shapes only — a respawned worker
 * recompiles, but a shape's roofline costs stay what they were.
 */
class XlaCache
{
  public:
    /** Default bucket width for shape polymorphism (XLA
     *  re-specializes on shape changes beyond padding buckets). */
    static constexpr uint32_t kBucketTokens = 64;

    /** @param bucketTokens Bucket width in tokens; clamped to >= 1
     *  (width 1 compiles one executable per exact token count). */
    explicit XlaCache(uint32_t bucketTokens = kBucketTokens)
        : bucketTokens_(bucketTokens == 0 ? 1 : bucketTokens)
    {}

    /** True when the shape is already compiled (and record it). */
    bool lookupOrInsert(model::LayerKind kind, size_t tokens);

    /** Bucket a token count falls into. */
    uint32_t
    bucketOf(size_t tokens) const
    {
        return static_cast<uint32_t>(tokens / bucketTokens_);
    }

    /**
     * Execution length for @p tokens: the largest token count in its
     * bucket (the shape the bucket's one compiled executable must
     * support). Batched dispatches pad every member to this, so the
     * padded length stays inside the member bucket and one
     * executable covers the whole bucket. Width 1 pads nothing.
     */
    size_t
    paddedTokens(size_t tokens) const
    {
        return static_cast<size_t>(bucketOf(tokens) + 1) *
                   bucketTokens_ -
               1;
    }

    uint32_t bucketTokens() const { return bucketTokens_; }

    size_t size() const { return compiled_.size(); }
    void clear() { compiled_.clear(); }

    /** The inference graph at @p tokens under @p cfg; built once
     *  per (architecture, tokens). */
    const GraphShape &graph(const model::ModelConfig &cfg,
                            size_t tokens);

    /**
     * Roofline replay of graph(cfg, tokens) on one @p gpu running
     * @p shard batch members, with @p spillFraction of the footprint
     * across the unified-memory link. Replayed once per key; the key
     * covers everything the replay reads, so one cache may serve any
     * mix of platforms and configs.
     */
    const ShapeReplay &replay(const sys::GpuSpec &gpu,
                              const model::ModelConfig &cfg,
                              size_t tokens, size_t shard,
                              double spillFraction);

  private:
    /** The ModelConfig fields the analytic cost model reads. */
    using Architecture = std::array<size_t, 13>;

    struct GraphKey
    {
        size_t tokens;
        Architecture arch;
        auto operator<=>(const GraphKey &) const = default;
    };

    struct ReplayKey
    {
        GraphKey graph;
        size_t shard;
        uint64_t spillBits; ///< spillFraction's bit pattern
        auto operator<=>(const ReplayKey &) const = default;
    };

    static Architecture architectureOf(const model::ModelConfig &cfg);

    uint32_t bucketTokens_;
    std::set<ShapeKey> compiled_;
    std::map<GraphKey, GraphShape> graphs_;
    std::map<sys::GpuSpec, std::map<ReplayKey, ShapeReplay>> replays_;
};

/** Host-side overhead parameters (calibration constants). */
struct XlaCostModel
{
    /** Reference single-thread clock the constants are measured at. */
    double refClockGhz = 5.6;

    /** Driver + CUDA context setup at the reference clock. */
    double baseInitSeconds = 6.0;

    /** Per-GiB VRAM mapping/registration cost. */
    double initPerVramGib = 0.16;

    /** Per-unique-kernel compile cost at the reference clock. */
    double compileSecondsPerKernel = 0.09;

    /** Host-side finalize (result assembly, teardown). */
    double baseFinalizeSeconds = 4.0;

    /** Finalize cost per token (output size dependent). */
    double finalizePerToken = 0.008;
};

/** Computed host-side phase durations. */
struct XlaPhases
{
    double initSeconds = 0.0;
    double compileSeconds = 0.0;
    double finalizeSeconds = 0.0;
    uint32_t kernelsCompiled = 0;
};

/** Host single-thread slowdown vs the calibration reference. */
double hostClockFactor(const sys::PlatformSpec &platform,
                       const XlaCostModel &costs = {});

/**
 * Evaluate host-side overheads for running @p graph on @p platform.
 * @param cache Compilation cache (mutated: new shapes inserted).
 */
XlaPhases evaluateXlaPhases(
    const sys::PlatformSpec &platform,
    const opgraph::OpGraph &graph, size_t tokens, XlaCache &cache,
    const XlaCostModel &costs = {});

} // namespace afsb::gpusim

#endif // AFSB_GPUSIM_XLA_HH
