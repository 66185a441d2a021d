/**
 * @file
 * google-benchmark microbenchmarks of the real compute kernels:
 * MSA dynamic programming (MSV / banded Viterbi / banded Forward),
 * Pairformer layers, and diffusion attention — actual wall-clock of
 * the executable implementations, complementing the simulated
 * paper-scale numbers.
 *
 * Each DP kernel is benchmarked twice: untraced (what native runs
 * execute) and traced (`*Traced`: a counting sink attached at trace
 * stride 16, the paper-figure configuration — the same arithmetic
 * plus the sampled-cell trace walk). `AlignToProfile` times the MSA
 * row aligner and `HierarchyReplay` the cache simulator alone, on a
 * recorded 2PV7 traced-scan stream. The tensor primitives pair the
 * blocked branch-free kernels against local copies of the original
 * naive loops, plus pool-parallel variants.
 *
 * Usage: bench_kernels [--json <path>] [google-benchmark flags]
 *
 * --json writes a machine-readable summary: one record per benchmark
 * with ns/op, iteration count, and every user counter (GFLOP/s,
 * cells/s) finalized the same way the console output is, plus a
 * context naming the AFSB_SIMD_CLONES copy that ran ("avx2" or
 * "default"; google-benchmark's own context carries it too).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bio/samples.hh"
#include "bio/seqgen.hh"
#include "cachesim/hierarchy.hh"
#include "core/workspace.hh"
#include "io/pagecache.hh"
#include "io/storage.hh"
#include "model/diffusion.hh"
#include "model/layers.hh"
#include "model/pairformer.hh"
#include "msa/dp_kernels.hh"
#include "msa/jackhmmer.hh"
#include "msa/search.hh"
#include "tensor/ops.hh"
#include "util/json.hh"
#include "util/simd.hh"
#include "util/threadpool.hh"
#include "util/units.hh"

using namespace afsb;

namespace {

/** Worker count for the pool-parallel benchmark variants. */
constexpr size_t kBenchPoolThreads = 4;

// --- MSA kernels ---------------------------------------------------------

/** Trace stride of the `*Traced` variants (the paper-figure runs). */
constexpr uint32_t kBenchTraceStride = 16;

/** Sink that only counts events, so a traced benchmark times the
 *  kernel and its trace walk rather than a cache simulator. */
class CountingSink : public MemTraceSink
{
  public:
    uint64_t events = 0;

    void access(const MemAccess &) override { ++events; }
    void instructions(FuncId, uint64_t) override { ++events; }
    void branches(FuncId, uint64_t, uint64_t) override { ++events; }
};

msa::ProfileHmm
benchProfile(size_t m, uint64_t seed)
{
    bio::SequenceGenerator gen(seed);
    const auto q = gen.random("q", bio::MoleculeType::Protein, m);
    return msa::ProfileHmm::fromSequence(q,
                                         msa::ScoreMatrix::blosum62());
}

void
runMsvFilter(benchmark::State &state, bool traced)
{
    const auto m = static_cast<size_t>(state.range(0));
    bio::SequenceGenerator gen(1);
    const auto t = gen.random("t", bio::MoleculeType::Protein, 400);
    const auto prof = benchProfile(m, 1);
    msa::KernelConfig cfg;
    cfg.traceStride = kBenchTraceStride;
    CountingSink sink;
    MemTraceSink *traceSink = traced ? &sink : nullptr;
    uint64_t cells = 0;
    for (auto _ : state) {
        const auto r = msa::msvFilter(prof, t, cfg, traceSink);
        benchmark::DoNotOptimize(r.score);
        cells += r.cells;
    }
    state.counters["cells/s"] = benchmark::Counter(
        static_cast<double>(cells), benchmark::Counter::kIsRate);
}

void
BM_MsvFilter(benchmark::State &state)
{
    runMsvFilter(state, false);
}
BENCHMARK(BM_MsvFilter)->Arg(128)->Arg(256)->Arg(512);

void
BM_MsvFilterTraced(benchmark::State &state)
{
    runMsvFilter(state, true);
}
BENCHMARK(BM_MsvFilterTraced)->Arg(128)->Arg(256)->Arg(512);

void
runCalcBand9(benchmark::State &state, bool traced)
{
    const auto m = static_cast<size_t>(state.range(0));
    bio::SequenceGenerator gen(2);
    const auto t = gen.random("t", bio::MoleculeType::Protein, 400);
    const auto prof = benchProfile(m, 2);
    msa::KernelConfig cfg;
    cfg.band = static_cast<size_t>(state.range(1));
    cfg.traceStride = kBenchTraceStride;
    CountingSink sink;
    MemTraceSink *traceSink = traced ? &sink : nullptr;
    uint64_t cells = 0;
    for (auto _ : state) {
        const auto r = msa::calcBand9(prof, t, cfg, traceSink);
        benchmark::DoNotOptimize(r.score);
        cells += r.cells;
    }
    state.counters["cells/s"] = benchmark::Counter(
        static_cast<double>(cells), benchmark::Counter::kIsRate);
}

void
BM_CalcBand9(benchmark::State &state)
{
    runCalcBand9(state, false);
}
BENCHMARK(BM_CalcBand9)
    ->Args({128, 96})
    ->Args({256, 96})
    ->Args({512, 96})
    ->Args({256, 16});

void
BM_CalcBand9Traced(benchmark::State &state)
{
    runCalcBand9(state, true);
}
BENCHMARK(BM_CalcBand9Traced)
    ->Args({128, 96})
    ->Args({256, 96})
    ->Args({512, 96})
    ->Args({256, 16});

void
runCalcBand10(benchmark::State &state, bool traced)
{
    const auto m = static_cast<size_t>(state.range(0));
    bio::SequenceGenerator gen(3);
    const auto t = gen.random("t", bio::MoleculeType::Protein, 400);
    const auto prof = benchProfile(m, 3);
    msa::KernelConfig cfg;
    cfg.band = static_cast<size_t>(state.range(1));
    cfg.traceStride = kBenchTraceStride;
    CountingSink sink;
    MemTraceSink *traceSink = traced ? &sink : nullptr;
    uint64_t cells = 0;
    for (auto _ : state) {
        const auto r = msa::calcBand10(prof, t, cfg, traceSink);
        benchmark::DoNotOptimize(r.logOdds);
        cells += r.cells;
    }
    state.counters["cells/s"] = benchmark::Counter(
        static_cast<double>(cells), benchmark::Counter::kIsRate);
}

void
BM_CalcBand10(benchmark::State &state)
{
    runCalcBand10(state, false);
}
BENCHMARK(BM_CalcBand10)
    ->Args({128, 96})
    ->Args({256, 96})
    ->Args({512, 96})
    ->Args({256, 16});

void
BM_CalcBand10Traced(benchmark::State &state)
{
    runCalcBand10(state, true);
}
BENCHMARK(BM_CalcBand10Traced)
    ->Args({128, 96})
    ->Args({256, 96})
    ->Args({512, 96})
    ->Args({256, 16});

void
BM_AlignToProfile(benchmark::State &state)
{
    // A planted homolog of the query, as the MSA builder aligns.
    const auto m = static_cast<size_t>(state.range(0));
    bio::SequenceGenerator gen(4);
    const auto q = gen.random("q", bio::MoleculeType::Protein, m);
    const auto t = gen.mutate(q, "t");
    const auto prof = msa::ProfileHmm::fromSequence(
        q, msa::ScoreMatrix::blosum62());
    uint64_t cells = 0;
    for (auto _ : state) {
        const auto r = msa::alignToProfile(prof, t);
        benchmark::DoNotOptimize(r.profileToTarget.data());
        cells += r.cells;
    }
    state.counters["cells/s"] = benchmark::Counter(
        static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AlignToProfile)->Arg(256);

// --- Cache simulator -------------------------------------------------------

/** Keeps the references a traced scan emits. */
class StreamRecorder : public MemTraceSink
{
  public:
    std::vector<MemAccess> refs;

    void access(const MemAccess &a) override { refs.push_back(a); }
    void instructions(FuncId, uint64_t) override {}
    void branches(FuncId, uint64_t, uint64_t) override {}
};

/** The references of 2PV7's traced jackhmmer scans at the
 *  paper-figure stride, recorded once per process. */
const std::vector<MemAccess> &
recorded2pv7Stream()
{
    static const std::vector<MemAccess> refs = [] {
        StreamRecorder rec;
        const auto sample = bio::makeSample("2PV7");
        const auto &ws = core::Workspace::shared();
        io::StorageDevice device(sys::desktopPlatform().storage);
        io::PageCache cache(1 * GiB, &device);
        msa::JackhmmerConfig cfg;
        cfg.search.threads = 1;
        cfg.search.kernel.traceStride = kBenchTraceStride;
        cfg.build.kernel.traceStride = kBenchTraceStride;
        for (const auto &chain : sample.complex.chains())
            if (chain.type() == bio::MoleculeType::Protein)
                msa::runJackhmmer(chain, ws.proteinDb(), cache,
                                  nullptr, cfg, 0.0, {&rec});
        return std::move(rec.refs);
    }();
    return refs;
}

/**
 * Replay the recorded stream through a fresh one-thread simulator of
 * @p platform, set up as the MSA phase builds it (prefilled arena),
 * in the trace walk's batch size; set-up is not timed.
 */
void
BM_HierarchyReplay(benchmark::State &state,
                   const sys::PlatformSpec &platform)
{
    const auto &refs = recorded2pv7Stream();
    constexpr size_t kBatch = 256;
    uint64_t replayed = 0;
    for (auto _ : state) {
        state.PauseTiming();
        cachesim::HierarchyConfig hcfg;
        hcfg.cpu = platform.cpu;
        hcfg.sampleWeight = kBenchTraceStride;
        auto sim = std::make_unique<cachesim::HierarchySim>(hcfg);
        const msa::KernelConfig kernelDefaults;
        sim->prefillLlc(kernelDefaults.arenaBase,
                        kernelDefaults.arenaBytes);
        state.ResumeTiming();
        for (size_t i = 0; i < refs.size(); i += kBatch)
            sim->accesses(refs.data() + i,
                          std::min(kBatch, refs.size() - i));
        benchmark::DoNotOptimize(sim->totals().llcMisses);
        replayed += refs.size();
    }
    state.counters["refs/s"] = benchmark::Counter(
        static_cast<double>(replayed), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_HierarchyReplay, Desktop, sys::desktopPlatform())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_HierarchyReplay, Server, sys::serverPlatform())
    ->Unit(benchmark::kMillisecond);

// --- Pairformer layers -----------------------------------------------------

model::ModelConfig
benchConfig()
{
    auto cfg = model::miniConfig();
    cfg.pairDim = 16;
    cfg.heads = 2;
    cfg.headDim = 8;
    return cfg;
}

/** Acceptance shape for the GEMM-shaped cores: the ISSUE targets are
 *  measured at c = 64 channels, 4 heads x 16 head dims. */
constexpr size_t kCoreChannels = 64;
constexpr size_t kCoreHeads = 4;
constexpr size_t kCoreHeadDim = 16;

void
BM_TriangleAttentionLayer(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    const auto cfg = benchConfig();
    Rng rng(4);
    auto pair = tensor::Tensor::randomNormal({n, n, cfg.pairDim},
                                             rng);
    const auto w = model::TriangleAttnWeights::init(cfg, rng);
    for (auto _ : state) {
        model::triangleAttention(pair, w, cfg, true);
        benchmark::DoNotOptimize(pair.data());
    }
    // O(N^3) work per iteration.
    state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_TriangleAttentionLayer)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Complexity(benchmark::oNCubed);

void
runTriangleMultUpdate(benchmark::State &state, ThreadPool *pool)
{
    const auto n = static_cast<size_t>(state.range(0));
    auto cfg = benchConfig();
    cfg.pool = pool;
    Rng rng(5);
    auto pair = tensor::Tensor::randomNormal({n, n, cfg.pairDim},
                                             rng);
    const auto w = model::TriangleMultWeights::init(cfg, rng);
    for (auto _ : state) {
        model::triangleMultiplicativeUpdate(pair, w, cfg, true);
        benchmark::DoNotOptimize(pair.data());
    }
}

void
BM_TriangleMultUpdateLayer(benchmark::State &state)
{
    runTriangleMultUpdate(state, nullptr);
}
BENCHMARK(BM_TriangleMultUpdateLayer)->Arg(16)->Arg(32)->Arg(64);

void
BM_TriangleMultUpdateLayerPool(benchmark::State &state)
{
    ThreadPool pool(kBenchPoolThreads);
    runTriangleMultUpdate(state, &pool);
}
BENCHMARK(BM_TriangleMultUpdateLayerPool)->Arg(32)->Arg(64);

// --- GEMM-shaped kernel cores ----------------------------------------------
//
// The naive/fast speedup targets are defined on the cores (projected
// q/k/v in, context out): the surrounding projections are identical
// in both paths and would only dilute the ratio.

void
runTriangleAttentionCore(benchmark::State &state, bool naive,
                         bool useArena, ThreadPool *pool,
                         size_t heads = kCoreHeads,
                         size_t dh = kCoreHeadDim)
{
    const auto n = static_cast<size_t>(state.range(0));
    const size_t hd = heads * dh;
    Rng rng(12);
    const auto q = tensor::Tensor::randomNormal({n, n, hd}, rng);
    const auto k = tensor::Tensor::randomNormal({n, n, hd}, rng);
    const auto v = tensor::Tensor::randomNormal({n, n, hd}, rng);
    const auto bias = tensor::Tensor::randomNormal({n, n, heads}, rng);
    tensor::Arena arena;
    tensor::Arena *ap = useArena ? &arena : nullptr;
    for (auto _ : state) {
        tensor::Arena::Scope scope(ap);
        const auto ctx = model::triangleAttentionCore(
            q, k, v, bias, heads, dh, true, naive, pool, ap);
        benchmark::DoNotOptimize(ctx.data());
    }
    // 2*dh flops per logit plus 2*dh per context MAC, for every
    // (line, head, row, column).
    state.counters["GFLOP/s"] = benchmark::Counter(
        4.0 * static_cast<double>(n) * n * n * dh * heads * 1e-9 *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_TriangleAttentionCore(benchmark::State &state)
{
    runTriangleAttentionCore(state, false, false, nullptr);
}
BENCHMARK(BM_TriangleAttentionCore)->Arg(64)->Arg(128);

void
BM_TriangleAttentionCoreNaive(benchmark::State &state)
{
    runTriangleAttentionCore(state, true, false, nullptr);
}
BENCHMARK(BM_TriangleAttentionCoreNaive)->Arg(64)->Arg(128);

void
BM_TriangleAttentionCoreArena(benchmark::State &state)
{
    runTriangleAttentionCore(state, false, true, nullptr);
}
BENCHMARK(BM_TriangleAttentionCoreArena)->Arg(64)->Arg(128);

void
BM_TriangleAttentionCorePool(benchmark::State &state)
{
    ThreadPool pool(kBenchPoolThreads);
    runTriangleAttentionCore(state, false, false, &pool);
}
BENCHMARK(BM_TriangleAttentionCorePool)->Arg(64)->Arg(128);

/** The shape the native-fold benchmark runs: miniConfig's 2 heads x
 *  8 head dims, at 128 tokens and at its largest complex (310). At
 *  dh = 8 the row softmax costs about as much as the two GEMMs. */
void
BM_TriangleAttentionCoreMini(benchmark::State &state)
{
    const auto cfg = model::miniConfig();
    runTriangleAttentionCore(state, false, false, nullptr, cfg.heads,
                             cfg.headDim);
}
BENCHMARK(BM_TriangleAttentionCoreMini)->Arg(128)->Arg(310);

void
runTriangleMultCore(benchmark::State &state, bool naive,
                    bool useArena, ThreadPool *pool)
{
    const auto n = static_cast<size_t>(state.range(0));
    Rng rng(13);
    const auto a =
        tensor::Tensor::randomNormal({n, n, kCoreChannels}, rng);
    const auto b =
        tensor::Tensor::randomNormal({n, n, kCoreChannels}, rng);
    tensor::Arena arena;
    tensor::Arena *ap = useArena ? &arena : nullptr;
    for (auto _ : state) {
        tensor::Arena::Scope scope(ap);
        const auto out = model::triangleMultEinsum(a, b, true,
                                                   naive, pool, ap);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        2.0 * static_cast<double>(n) * n * n * kCoreChannels *
            1e-9 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_TriangleMultCore(benchmark::State &state)
{
    runTriangleMultCore(state, false, false, nullptr);
}
BENCHMARK(BM_TriangleMultCore)->Arg(64)->Arg(128);

void
BM_TriangleMultCoreNaive(benchmark::State &state)
{
    runTriangleMultCore(state, true, false, nullptr);
}
BENCHMARK(BM_TriangleMultCoreNaive)->Arg(64)->Arg(128);

void
BM_TriangleMultCoreArena(benchmark::State &state)
{
    runTriangleMultCore(state, false, true, nullptr);
}
BENCHMARK(BM_TriangleMultCoreArena)->Arg(64)->Arg(128);

void
BM_TriangleMultCorePool(benchmark::State &state)
{
    ThreadPool pool(kBenchPoolThreads);
    runTriangleMultCore(state, false, false, &pool);
}
BENCHMARK(BM_TriangleMultCorePool)->Arg(64)->Arg(128);

void
runSingleAttentionCore(benchmark::State &state, bool naive,
                       bool useArena, ThreadPool *pool)
{
    const auto n = static_cast<size_t>(state.range(0));
    const size_t hd = kCoreHeads * kCoreHeadDim;
    Rng rng(14);
    const auto q = tensor::Tensor::randomNormal({n, hd}, rng);
    const auto k = tensor::Tensor::randomNormal({n, hd}, rng);
    const auto v = tensor::Tensor::randomNormal({n, hd}, rng);
    const auto bias =
        tensor::Tensor::randomNormal({n, n, kCoreHeads}, rng);
    tensor::Arena arena;
    tensor::Arena *ap = useArena ? &arena : nullptr;
    for (auto _ : state) {
        tensor::Arena::Scope scope(ap);
        const auto ctx = model::singleAttentionCore(
            q, k, v, bias, kCoreHeads, kCoreHeadDim, naive, pool,
            ap);
        benchmark::DoNotOptimize(ctx.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        4.0 * static_cast<double>(n) * n * kCoreHeadDim *
            kCoreHeads * 1e-9 *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_SingleAttentionCore(benchmark::State &state)
{
    runSingleAttentionCore(state, false, false, nullptr);
}
BENCHMARK(BM_SingleAttentionCore)->Arg(128)->Arg(256);

void
BM_SingleAttentionCoreNaive(benchmark::State &state)
{
    runSingleAttentionCore(state, true, false, nullptr);
}
BENCHMARK(BM_SingleAttentionCoreNaive)->Arg(128)->Arg(256);

void
BM_SingleAttentionCoreArena(benchmark::State &state)
{
    runSingleAttentionCore(state, false, true, nullptr);
}
BENCHMARK(BM_SingleAttentionCoreArena)->Arg(128)->Arg(256);

void
BM_SingleAttentionCorePool(benchmark::State &state)
{
    ThreadPool pool(kBenchPoolThreads);
    runSingleAttentionCore(state, false, false, &pool);
}
BENCHMARK(BM_SingleAttentionCorePool)->Arg(128)->Arg(256);

void
BM_DiffusionStep(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    const auto cfg = benchConfig();
    Rng rng(6);
    model::DiffusionModule diffusion(cfg, rng);
    model::PairState s;
    s.pair = tensor::Tensor::randomNormal({n, n, cfg.pairDim}, rng);
    s.single =
        tensor::Tensor::randomNormal({n, cfg.singleDim}, rng);
    for (auto _ : state) {
        Rng noise(7);
        const auto out = diffusion.sample(s, noise);
        benchmark::DoNotOptimize(out.coords.data());
    }
}
BENCHMARK(BM_DiffusionStep)->Arg(32)->Arg(64);

void
BM_DiffusionStepArena(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    auto cfg = benchConfig();
    tensor::Arena arena;
    cfg.arena = &arena;
    Rng rng(6);
    model::DiffusionModule diffusion(cfg, rng);
    model::PairState s;
    s.pair = tensor::Tensor::randomNormal({n, n, cfg.pairDim}, rng);
    s.single =
        tensor::Tensor::randomNormal({n, cfg.singleDim}, rng);
    for (auto _ : state) {
        Rng noise(7);
        const auto out = diffusion.sample(s, noise);
        benchmark::DoNotOptimize(out.coords.data());
    }
}
BENCHMARK(BM_DiffusionStepArena)->Arg(32)->Arg(64);

// --- Task-graph schedulers --------------------------------------------------
//
// Fork-join vs task-graph pairs for the acceptance comparison: the
// same pool, shape, and compiled unit bodies; only the scheduler
// differs (barriered parallelFor sweeps vs one TaskGroup dependency
// graph per block), so the ratio isolates barrier drain time.

void
runPairformerBlockBench(benchmark::State &state, bool taskGraph)
{
    const auto n = static_cast<size_t>(state.range(0));
    auto cfg = benchConfig();
    cfg.pairformerBlocks = 1;
    ThreadPool pool(kBenchPoolThreads);
    tensor::Arena arena;
    cfg.pool = &pool;
    cfg.arena = &arena;
    cfg.taskGraph = taskGraph;
    Rng rng(14);
    const model::Pairformer block(cfg, rng);
    model::PairState s;
    s.pair = tensor::Tensor::randomNormal({n, n, cfg.pairDim}, rng);
    s.single =
        tensor::Tensor::randomNormal({n, cfg.singleDim}, rng);
    for (auto _ : state) {
        block.forward(s);
        benchmark::DoNotOptimize(s.pair.data());
    }
}

void
BM_PairformerBlockForkJoin(benchmark::State &state)
{
    runPairformerBlockBench(state, false);
}
BENCHMARK(BM_PairformerBlockForkJoin)->Arg(32)->Arg(64);

void
BM_PairformerBlockTaskGraph(benchmark::State &state)
{
    runPairformerBlockBench(state, true);
}
BENCHMARK(BM_PairformerBlockTaskGraph)->Arg(32)->Arg(64);

// --- Tensor primitives ------------------------------------------------------

/** The seed's matmul loop (zero-skip branch, no blocking), kept as
 *  the speedup baseline for the blocked branch-free kernel. */
tensor::Tensor
naiveMatmul(const tensor::Tensor &a, const tensor::Tensor &b)
{
    const size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    tensor::Tensor c({m, n});
    for (size_t i = 0; i < m; ++i) {
        const float *arow = a.data() + i * k;
        float *crow = c.data() + i * n;
        for (size_t kk = 0; kk < k; ++kk) {
            const float av = arow[kk];
            if (av == 0.0f)
                continue;
            const float *brow = b.data() + kk * n;
            for (size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
    return c;
}

/** The seed's linear loop (zero-skip branch), speedup baseline. */
tensor::Tensor
naiveLinear(const tensor::Tensor &x, const tensor::Tensor &w,
            const tensor::Tensor &b)
{
    const size_t in = w.dim(0), out = w.dim(1);
    std::vector<size_t> outShape = x.shape();
    outShape.back() = out;
    tensor::Tensor y(std::move(outShape));
    const size_t rows = x.size() / in;
    for (size_t r = 0; r < rows; ++r) {
        const float *xi = x.data() + r * in;
        float *yo = y.data() + r * out;
        for (size_t o = 0; o < out; ++o)
            yo[o] = b[o];
        for (size_t i = 0; i < in; ++i) {
            const float xv = xi[i];
            if (xv == 0.0f)
                continue;
            const float *wrow = w.data() + i * out;
            for (size_t o = 0; o < out; ++o)
                yo[o] += xv * wrow[o];
        }
    }
    return y;
}

void
matmulFlops(benchmark::State &state, size_t n)
{
    state.counters["GFLOP/s"] = benchmark::Counter(
        2.0 * static_cast<double>(n) * n * n * 1e-9 *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_Matmul(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    Rng rng(8);
    const auto a = tensor::Tensor::randomNormal({n, n}, rng);
    const auto b = tensor::Tensor::randomNormal({n, n}, rng);
    for (auto _ : state) {
        const auto c = tensor::matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    matmulFlops(state, n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void
BM_MatmulNaive(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    Rng rng(8);
    const auto a = tensor::Tensor::randomNormal({n, n}, rng);
    const auto b = tensor::Tensor::randomNormal({n, n}, rng);
    for (auto _ : state) {
        const auto c = naiveMatmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    matmulFlops(state, n);
}
BENCHMARK(BM_MatmulNaive)->Arg(64)->Arg(128)->Arg(256);

void
BM_MatmulPool(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    ThreadPool pool(kBenchPoolThreads);
    Rng rng(8);
    const auto a = tensor::Tensor::randomNormal({n, n}, rng);
    const auto b = tensor::Tensor::randomNormal({n, n}, rng);
    for (auto _ : state) {
        const auto c = tensor::matmul(a, b, &pool);
        benchmark::DoNotOptimize(c.data());
    }
    matmulFlops(state, n);
}
BENCHMARK(BM_MatmulPool)->Arg(128)->Arg(256);

void
BM_Linear(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    Rng rng(10);
    const auto x = tensor::Tensor::randomNormal({n, n}, rng);
    const auto w = tensor::Tensor::randomNormal({n, n}, rng);
    const tensor::Tensor b({n});
    for (auto _ : state) {
        const auto y = tensor::linear(x, w, b);
        benchmark::DoNotOptimize(y.data());
    }
    matmulFlops(state, n);
}
BENCHMARK(BM_Linear)->Arg(64)->Arg(128)->Arg(256);

void
BM_LinearNaive(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    Rng rng(10);
    const auto x = tensor::Tensor::randomNormal({n, n}, rng);
    const auto w = tensor::Tensor::randomNormal({n, n}, rng);
    const tensor::Tensor b({n});
    for (auto _ : state) {
        const auto y = naiveLinear(x, w, b);
        benchmark::DoNotOptimize(y.data());
    }
    matmulFlops(state, n);
}
BENCHMARK(BM_LinearNaive)->Arg(64)->Arg(128)->Arg(256);

void
BM_LinearPool(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    ThreadPool pool(kBenchPoolThreads);
    Rng rng(10);
    const auto x = tensor::Tensor::randomNormal({n, n}, rng);
    const auto w = tensor::Tensor::randomNormal({n, n}, rng);
    const tensor::Tensor b({n});
    for (auto _ : state) {
        const auto y = tensor::linear(x, w, b, &pool);
        benchmark::DoNotOptimize(y.data());
    }
    matmulFlops(state, n);
}
BENCHMARK(BM_LinearPool)->Arg(128)->Arg(256);

void
BM_Softmax(benchmark::State &state)
{
    Rng rng(9);
    const auto x = tensor::Tensor::randomNormal({256, 256}, rng);
    for (auto _ : state) {
        const auto y = tensor::softmax(x);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_Softmax);

void
BM_LayerNorm(benchmark::State &state)
{
    Rng rng(11);
    const auto x = tensor::Tensor::randomNormal({256, 256}, rng);
    for (auto _ : state) {
        const auto y = tensor::layerNorm(x);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_LayerNorm);

// --- --json reporting -------------------------------------------------------

/**
 * Console reporter that additionally captures every per-iteration
 * run so a JSON summary can be written after the fact. Counters are
 * finalized (rates divided by elapsed seconds) the same way the
 * console printer does it.
 */
class JsonCaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred)
                continue;
            JsonValue rec = JsonValue::makeObject();
            rec["name"] = run.benchmark_name();
            rec["iterations"] =
                static_cast<int64_t>(run.iterations);
            rec["ns_per_op"] = adjustedNs(run);
            JsonValue counters = JsonValue::makeObject();
            // Counters reaching the reporter are already finalized
            // (rates divided by elapsed time by the runner).
            for (const auto &[name, c] : run.counters)
                counters[name] = c.value;
            rec["counters"] = counters;
            records_.push(std::move(rec));
        }
        benchmark::ConsoleReporter::ReportRuns(reports);
    }

    /** Write `{"context": {...}, "benchmarks": [...]}` to @p path;
     *  the context names the kernel clone that ran. */
    bool write(const std::string &path) const
    {
        JsonValue doc = JsonValue::makeObject();
        JsonValue context = JsonValue::makeObject();
        context["simd_clone"] = simdCloneTarget();
        doc["context"] = context;
        doc["benchmarks"] = records_;
        std::ofstream out(path);
        if (!out)
            return false;
        out << doc.dumpPretty() << "\n";
        return out.good();
    }

  private:
    /** Real time per iteration in nanoseconds, regardless of the
     *  benchmark's display time unit. */
    static double adjustedNs(const Run &run)
    {
        if (run.iterations == 0)
            return run.real_accumulated_time * 1e9;
        return run.real_accumulated_time * 1e9 /
               static_cast<double>(run.iterations);
    }

    JsonValue records_ = JsonValue::makeArray();
};

} // namespace

int
main(int argc, char **argv)
{
    // Strip our own --json flag before google-benchmark sees argv.
    std::string jsonPath;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            jsonPath = argv[++i];
            continue;
        }
        args.push_back(argv[i]);
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    benchmark::AddCustomContext("simd_clone", simdCloneTarget());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;

    JsonCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    if (!jsonPath.empty() && !reporter.write(jsonPath)) {
        std::fprintf(stderr, "bench_kernels: cannot write %s\n",
                     jsonPath.c_str());
        return 1;
    }
    return 0;
}
