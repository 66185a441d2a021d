/**
 * @file
 * serve-sim: the discrete-event serving simulation. One op is one
 * serve::simulateCluster call plus buildSloReport and
 * canonicalSloText over a request stream generated in setup, under
 * one of five configurations: solo FIFO dispatch (batchMax 1),
 * continuous batching, faults with retry and degradation, four nodes
 * with a node kill, and the similarity cache tier at 1% mutation.
 * serve, gpusim, net, fault and opgraph do all of the per-op work;
 * setup warms the MSA oracle (traced MSA phases at nproc threads), so
 * msa and model do none.
 */

#include <algorithm>
#include <cstdio>

#include "gpusim/inference_sim.hh"
#include "net/topology.hh"
#include "opgraph/build.hh"
#include "serve/cluster.hh"
#include "serve/report.hh"
#include "measure.hh"
#include "workloads.hh"

namespace perfbench {

using namespace afsb;

namespace {

/** The repository's standard serving mix (bench_serving_*). */
const char *const kMix = "2PV7=2,7RCE=1";
const char *const kSamples[] = {"2PV7", "7RCE"};

/** Dispatches replayed through gpusim and opgraph per traced op. */
constexpr size_t kReplayDispatches = 512;

unsigned long long
ull(uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

struct Config
{
    const char *name;
    serve::ClusterConfig cluster;
    bool mutated = false; ///< uses the 1%-mutation request stream
};

class ServeSim : public Workload
{
  public:
    explicit ServeSim(unsigned nproc)
        : nproc_(nproc), platform_(sys::serverPlatform())
    {}

    void
    setup(uint64_t seed, SpanRecorder &rec) override
    {
        const uint64_t base = seed * 0x9e3779b97f4a7c15ull + 0x5e7e;
        {
            SpanRecorder::Scope s(rec, "core.workspace");
            core::WorkspaceConfig wc;
            wc.seed = base ^ 0xaf5b;
            ws_ = std::make_unique<core::Workspace>(wc);
        }
        oracle_ = std::make_unique<serve::MsaServiceOracle>();
        serve::ClusterConfig common;
        common.msaOracle = oracle_.get();
        common.msaThreadsPerWorker = nproc_;
        {
            SpanRecorder::Scope s(rec, "serve.oracle");
            for (const char *sample : kSamples)
                oracle_->characterize(platform_, *ws_, common, sample);
        }
        {
            SpanRecorder::Scope s(rec, "serve.generate_requests");
            serve::WorkloadSpec spec;
            spec.requestsPerSecond = 2.0;
            spec.durationSeconds = 3600.0;
            spec.seed = base ^ 0x5e7eaf3b;
            spec.mix = serve::parseMix(kMix);
            spec.variantsPerSample = 64;
            requests_ = serve::generateRequests(spec);
            spec.mutationRate = 0.01;
            spec.sketchQueries = true;
            mutated_ = serve::generateRequests(spec);
        }

        common.msaWorkers = 16;
        common.gpuWorkers = 8;
        common.admissionCapacity = 100000;
        configs_.clear();
        configs_.push_back({"solo-fifo", common});
        {
            Config c{"batched", common};
            c.cluster.batchMax = 8;
            c.cluster.batchWaitSeconds = 2.0;
            configs_.push_back(c);
        }
        {
            Config c{"faults", common};
            auto &plan = c.cluster.faultPlan;
            plan.seed = base ^ 0xfa017;
            plan.msaCrashProb = 0.05;
            plan.gpuCrashProb = 0.05;
            plan.storageErrorProb = 0.025;
            plan.storageSpikeProb = 0.05;
            plan.cacheCorruptProb = 0.05;
            plan.permanentProb = 0.1;
            configs_.push_back(c);
        }
        {
            Config c{"4node-kill", common};
            c.cluster.topology = net::datacenterTopology(4);
            c.cluster.msaWorkers = 4;
            c.cluster.gpuWorkers = 2;
            fault::NodeKill kill;
            kill.atSeconds = 900.0;
            kill.node = 1;
            kill.rebuildSeconds = 300.0;
            c.cluster.faultPlan.seed = base ^ 0xfa11;
            c.cluster.faultPlan.nodeKills.push_back(kill);
            configs_.push_back(c);
        }
        {
            Config c{"simcache-1pct", common, true};
            c.cluster.simCacheThreshold = 0.5;
            configs_.push_back(c);
        }
        order_ = permutation(configs_.size(), seed);
    }

    size_t opCount() const override { return order_.size(); }

    std::string
    opLabel(size_t i) const override
    {
        return configs_[order_[i]].name;
    }

    uint64_t
    run(size_t i, SpanRecorder &rec) override
    {
        const Config &c = configs_[order_[i]];
        serve::ClusterResult result;
        {
            SpanRecorder::Scope s(rec, "serve.simulate");
            result = serve::simulateCluster(
                platform_, *ws_, c.mutated ? mutated_ : requests_,
                c.cluster);
        }
        std::string text;
        {
            SpanRecorder::Scope s(rec, "serve.report");
            text = serve::canonicalSloText(serve::buildSloReport(result));
        }
        if (rec.enabled()) {
            std::printf("serve %s: offered %llu completed %llu degraded "
                        "%llu approx_hits %llu batches %llu node_kills "
                        "%llu faults %llu messages %llu\n",
                        c.name, ull(result.offered), ull(result.completed),
                        ull(result.degraded), ull(result.approxHits),
                        ull(result.batchesFormed), ull(result.nodeKills),
                        ull(result.faultsInjected),
                        ull(result.comm.messages));
            offered_ += result.offered;
            messages_ += result.comm.messages;
            faults_ += result.faultsInjected;
            dispatched_.clear();
            for (const auto &r : result.records) {
                if (dispatched_.size() == kReplayDispatches)
                    break;
                if (r.outcome == serve::Outcome::Completed ||
                    r.outcome == serve::Outcome::Degraded)
                    dispatched_.push_back(r.request.tokens);
            }
        }
        Digest d;
        d.text(text);
        return d.value();
    }

    std::vector<size_t>
    tracedOps() const override
    {
        std::vector<size_t> all(order_.size());
        for (size_t i = 0; i < all.size(); ++i)
            all[i] = i;
        return all;
    }

    void
    attribute(size_t, SpanRecorder &rec) override
    {
        // The op's dispatched token counts through the inner layers'
        // public entry points, one call per dispatch.
        {
            SpanRecorder::Scope s(rec, "gpusim.simulate_inference");
            gpusim::XlaCache cache;
            for (size_t tokens : dispatched_)
                gpusim::simulateInference(platform_, tokens, cache, {});
        }
        {
            SpanRecorder::Scope s(rec, "opgraph.build");
            const auto cfg = model::paperConfig();
            for (size_t tokens : dispatched_)
                opgraph::buildInferenceGraph(tokens, cfg);
        }
        replayed_ += dispatched_.size();
    }

    LayerMetrics
    layerMetrics(const SpanRecorder &rec, size_t ops) const override
    {
        const double n = static_cast<double>(std::max<size_t>(ops, 1));
        const double sim = rec.total("serve.simulate");
        const double calls =
            static_cast<double>(std::max<uint64_t>(replayed_, 1));
        LayerMetrics m;
        m["serve.simulate_s"] = sim / n;
        m["serve.report_s"] = rec.total("serve.report") / n;
        m["serve.offered"] = static_cast<double>(offered_) / n;
        m["serve.host_us_per_request"] =
            offered_ ? 1e6 * sim / static_cast<double>(offered_) : 0;
        m["gpusim.simulate_inference_us"] =
            1e6 * rec.total("gpusim.simulate_inference") / calls;
        m["opgraph.build_us"] = 1e6 * rec.total("opgraph.build") / calls;
        m["net.messages"] = static_cast<double>(messages_) / n;
        m["fault.injected"] = static_cast<double>(faults_) / n;
        m["serve.oracle_s"] = rec.total("serve.oracle");
        m["serve.generate_requests_s"] =
            rec.total("serve.generate_requests");
        return m;
    }

    std::string
    opSize() const override
    {
        return "one simulateCluster + SLO report over ~7.2k simulated "
               "requests (one of five cluster configurations)";
    }

    double nominalPassSeconds() const override { return 1.75; }

    unsigned threads() const override { return nproc_; }

  private:
    unsigned nproc_;
    sys::PlatformSpec platform_;
    std::unique_ptr<core::Workspace> ws_;
    std::unique_ptr<serve::MsaServiceOracle> oracle_;
    std::vector<serve::Request> requests_;
    std::vector<serve::Request> mutated_;
    std::vector<Config> configs_;
    std::vector<size_t> order_;

    // Traced-run state.
    uint64_t offered_ = 0;
    uint64_t messages_ = 0;
    uint64_t faults_ = 0;
    uint64_t replayed_ = 0;
    std::vector<size_t> dispatched_;
};

} // namespace

std::unique_ptr<Workload>
makeServeSim(unsigned nproc)
{
    return std::make_unique<ServeSim>(nproc);
}

} // namespace perfbench
