/**
 * @file
 * paper-figures: the figure-regeneration path. One op is one
 * core::runPipeline call at trace stride 16 and one MSA thread, as
 * `afsysbench run --threads 1` and bench_fig3's first column make it,
 * over {2PV7, 7RCE, 1YY9, promo, 6QNR} x {Server, Desktop}; 6QNR runs
 * on Desktop-128G as in fig3. The traced MSA kernels and the cache
 * simulator do nearly all of the host work; model and serve do none.
 * Multi-threaded ops are left out: on a shared VM their wall time
 * tracks the host's steal time more than the code (README.md).
 *
 * The traced run covers the Desktop ops. It runs each op as the
 * pipeline's two public stages (core::runMsaPhase, then
 * gpusim::simulateInference), whose digest must equal runPipeline's,
 * and then replays the op's jackhmmer/nhmmer calls three ways: with
 * counting sinks, with the cache simulators runMsaPhase builds, and
 * with no sinks.
 */

#include <algorithm>
#include <stdexcept>

#include "core/pipeline.hh"
#include "msa/memory_model.hh"
#include "util/units.hh"
#include "measure.hh"
#include "workloads.hh"

namespace perfbench {

using namespace afsb;

namespace {

constexpr uint32_t kTraceStride = 16;

/** Counts what the traced kernels emit, without simulating it. */
class CountingSink : public MemTraceSink
{
  public:
    void access(const MemAccess &) override { ++accesses; }
    void instructions(FuncId, uint64_t) override {}
    void branches(FuncId, uint64_t, uint64_t) override {}

    uint64_t accesses = 0;
};

struct Op
{
    std::string sample;
    sys::PlatformSpec platform;
    uint32_t threads = 1;
};

uint64_t
digestOf(const core::MsaPhaseResult &msa,
         const gpusim::InferenceSimResult &inf)
{
    Digest d;
    d.real(msa.seconds);
    d.real(msa.ioSeconds);
    d.real(msa.computeSeconds);
    d.u64(msa.peakMemoryBytes);
    for (const auto &c : msa.perFunction) {
        for (uint64_t v : {c.instructions, c.accesses, c.l1Misses,
                           c.l2Misses, c.llcMisses, c.tlbMisses,
                           c.branches, c.branchMisses})
            d.u64(v);
    }
    for (size_t depth : msa.msaDepthPerChain)
        d.u64(depth);
    d.real(inf.initSeconds);
    d.real(inf.compileSeconds);
    d.real(inf.gpuComputeSeconds);
    d.real(inf.finalizeSeconds);
    return d.value();
}

class PaperFigures : public Workload
{
  public:
    void
    setup(uint64_t seed, SpanRecorder &rec) override
    {
        {
            SpanRecorder::Scope s(rec, "core.workspace");
            core::WorkspaceConfig wc;
            wc.seed = seed * 0x9e3779b97f4a7c15ull + 0xaf5b;
            ws_ = std::make_unique<core::Workspace>(wc);
        }
        samples_.clear();
        for (auto &s : bio::makeAllSamples())
            samples_.emplace(s.info.name, std::move(s));

        std::vector<Op> grid;
        for (const auto &[name, sample] : samples_) {
            (void)sample;
            for (const auto &base :
                 {sys::serverPlatform(), sys::desktopPlatform()}) {
                const auto plat = name == "6QNR" && base.name == "Desktop"
                                      ? sys::desktopPlatformUpgraded()
                                      : base;
                grid.push_back({name, plat, 1});
            }
        }
        ops_.clear();
        for (size_t k : permutation(grid.size(), seed))
            ops_.push_back(grid[k]);
    }

    size_t opCount() const override { return ops_.size(); }

    std::string
    opLabel(size_t i) const override
    {
        const Op &op = ops_[i];
        return op.sample + "/" + op.platform.name + "/t" +
               std::to_string(op.threads);
    }

    uint64_t
    run(size_t i, SpanRecorder &rec) override
    {
        const Op &op = ops_[i];
        const auto &complex = samples_.at(op.sample).complex;
        if (!rec.enabled()) {
            core::PipelineOptions opt;
            opt.msaThreads = op.threads;
            opt.msa.traceStride = kTraceStride;
            const auto r =
                core::runPipeline(complex, op.platform, *ws_, opt);
            if (r.oom)
                throw std::runtime_error("unexpected OOM");
            return digestOf(r.msa, r.inference);
        }
        // The pipeline's two public stages, with runPipeline's
        // options.
        core::MsaPhaseOptions mopt;
        mopt.threads = op.threads;
        mopt.traceStride = kTraceStride;
        core::MsaPhaseResult msa;
        {
            SpanRecorder::Scope s(rec, "core.msa_phase");
            msa = core::runMsaPhase(complex, op.platform, *ws_, mopt);
        }
        if (msa.oom)
            throw std::runtime_error("unexpected OOM");
        gpusim::XlaCache cache;
        gpusim::InferenceSimResult inf;
        {
            SpanRecorder::Scope s(rec, "gpusim.simulate_inference");
            inf = gpusim::simulateInference(
                op.platform, complex.totalResidues(), cache, {});
        }
        if (inf.oom)
            throw std::runtime_error("unexpected OOM");
        return digestOf(msa, inf);
    }

    std::vector<size_t>
    tracedOps() const override
    {
        std::vector<size_t> out;
        for (size_t i = 0; i < ops_.size(); ++i)
            if (ops_[i].platform.name.rfind("Desktop", 0) == 0)
                out.push_back(i);
        return out;
    }

    void
    attribute(size_t i, SpanRecorder &rec) override
    {
        const Op &op = ops_[i];
        const auto &complex = samples_.at(op.sample).complex;
        const uint32_t threads = op.threads;

        // runMsaPhase's scan set-up (msa_phase.cc), rebuilt from
        // outside so each variant makes the same calls.
        const uint64_t peak =
            msa::msaPhasePeakMemoryBytes(complex, threads);
        const uint64_t dram = op.platform.memory.dramBytes;
        const uint64_t cacheBytes = dram > peak + 4 * GiB
                                        ? dram - peak - 4 * GiB
                                        : 1 * GiB;
        msa::JackhmmerConfig jcfg;
        jcfg.search.threads = threads;
        jcfg.search.kernel.traceStride = kTraceStride;
        jcfg.build.kernel.traceStride = kTraceStride;
        msa::NhmmerConfig ncfg;
        ncfg.search.threads = threads;
        ncfg.search.kernel.traceStride = kTraceStride;
        ncfg.build.kernel.traceStride = kTraceStride;

        ThreadPool pool(threads);
        auto scanAll = [&](const std::vector<MemTraceSink *> &protein,
                           const std::vector<MemTraceSink *> &rna,
                           bool count) {
            io::StorageDevice device(op.platform.storage);
            io::PageCache pageCache(cacheBytes, &device);
            std::vector<std::string> seen;
            for (const auto &chain : complex.chains()) {
                if (chain.type() == bio::MoleculeType::Protein) {
                    const std::string text = chain.toString();
                    if (std::find(seen.begin(), seen.end(), text) !=
                        seen.end())
                        continue;
                    seen.push_back(text);
                    const auto r = msa::runJackhmmer(
                        chain, ws_->proteinDb(), pageCache, &pool,
                        jcfg, 0.0, protein);
                    if (count)
                        tally(r.stats);
                } else if (chain.type() == bio::MoleculeType::Rna) {
                    const auto r = msa::runNhmmer(
                        chain, ws_->rnaDb(), pageCache, &pool, ncfg,
                        0.0, rna);
                    if (count)
                        tally(r.stats);
                }
            }
        };

        {
            std::vector<std::unique_ptr<cachesim::HierarchySim>> sims;
            std::vector<MemTraceSink *> protein, rna;
            {
                SpanRecorder::Scope s(rec, "cachesim.build");
                const msa::KernelConfig kernelDefaults;
                for (uint32_t k = 0; k < 2 * threads; ++k) {
                    cachesim::HierarchyConfig hcfg;
                    hcfg.cpu = op.platform.cpu;
                    hcfg.activeThreads = threads;
                    hcfg.sampleWeight = kTraceStride;
                    sims.push_back(
                        std::make_unique<cachesim::HierarchySim>(hcfg));
                    sims.back()->prefillLlc(kernelDefaults.arenaBase,
                                            kernelDefaults.arenaBytes);
                    (k < threads ? protein : rna)
                        .push_back(sims.back().get());
                }
            }
            SpanRecorder::Scope s(rec, "msa.scan_with_cachesim");
            scanAll(protein, rna, false);
        }
        {
            std::vector<CountingSink> counters(2 * threads);
            std::vector<MemTraceSink *> protein, rna;
            for (uint32_t k = 0; k < 2 * threads; ++k)
                (k < threads ? protein : rna).push_back(&counters[k]);
            {
                SpanRecorder::Scope s(rec, "msa.traced_scan");
                scanAll(protein, rna, true);
            }
            for (const auto &c : counters)
                traceAccesses_ += c.accesses;
        }
        {
            SpanRecorder::Scope s(rec, "msa.untraced_scan");
            scanAll({}, {}, false);
        }
    }

    LayerMetrics
    layerMetrics(const SpanRecorder &rec, size_t ops) const override
    {
        const double n = static_cast<double>(std::max<size_t>(ops, 1));
        const double phase = rec.total("core.msa_phase");
        const double build = rec.total("cachesim.build");
        const double withSim = rec.total("msa.scan_with_cachesim");
        const double traced = rec.total("msa.traced_scan");
        const double replay = withSim - traced;
        const double cells = static_cast<double>(cells_);
        const double accesses = static_cast<double>(traceAccesses_);
        LayerMetrics m;
        m["core.msa_phase_s"] = phase / n;
        m["core.msa_phase_self_s"] = (phase - build - withSim) / n;
        m["gpusim.simulate_inference_s"] =
            rec.total("gpusim.simulate_inference") / n;
        m["msa.traced_scan_s"] = traced / n;
        m["cachesim.replay_s"] = replay / n;
        m["cachesim.build_s"] = build / n;
        m["msa.untraced_scan_s"] = rec.total("msa.untraced_scan") / n;
        m["msa.cells"] = cells / n;
        m["msa.traced_cells_per_s"] = traced > 0 ? cells / traced : 0;
        m["cachesim.trace_accesses"] = accesses / n;
        m["cachesim.accesses_per_s"] =
            replay > 0 ? accesses / replay : 0;
        m["msa.msv_pass_rate"] =
            targets_ ? static_cast<double>(msvPassed_) /
                           static_cast<double>(targets_)
                     : 0;
        return m;
    }

    std::string
    opSize() const override
    {
        return "one core::runPipeline call (one sample and platform, "
               "one MSA thread, trace stride 16)";
    }

    double nominalPassSeconds() const override { return 24.0; }

    unsigned threads() const override { return 1; }

  private:
    void
    tally(const msa::SearchStats &st)
    {
        cells_ += st.cellsMsv + st.cellsViterbi + st.cellsForward;
        targets_ += st.targetsScanned;
        msvPassed_ += st.msvPassed;
    }

    std::unique_ptr<core::Workspace> ws_;
    std::map<std::string, bio::Sample> samples_;
    std::vector<Op> ops_;

    uint64_t cells_ = 0;
    uint64_t targets_ = 0;
    uint64_t msvPassed_ = 0;
    uint64_t traceAccesses_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makePaperFigures()
{
    return std::make_unique<PaperFigures>();
}

} // namespace perfbench
