/**
 * @file
 * native-fold: the executable pipeline that examples/custom_complex
 * scripts. One op folds one seeded complex on one thread: an untraced
 * msa::runJackhmmer per distinct protein chain over a generated
 * database of about 6k targets, then model::Af3Model::infer
 * (miniConfig, an arena) with those MSA depths. Complex shapes and
 * their order are fixed, so every seed does the same work and grows
 * the arena the same way; the seed draws the residues, the database
 * and the weights.
 *
 * The op is serial because wall time on nproc threads tracks the
 * host's steal time more than the code on a shared VM (README.md).
 * The traced run replays each op's embedder, Pairformer, diffusion
 * and confidence head hook-free (infer always attaches its timing
 * hook, which forces the barriered path), then runs the op again on
 * a pool of nproc threads (the staged MSA scan, infer, and the
 * hook-free stages on the task graph) for the pool's per-layer
 * numbers.
 */

#include <algorithm>
#include <stdexcept>

#include "bio/seqgen.hh"
#include "model/af3_model.hh"
#include "msa/dbgen.hh"
#include "msa/jackhmmer.hh"
#include "opgraph/build.hh"
#include "tensor/arena.hh"
#include "util/units.hh"
#include "measure.hh"
#include "workloads.hh"

namespace perfbench {

using namespace afsb;

namespace {

/** One chain of a recipe; equal nonzero `same` tags share residues. */
struct ChainShape
{
    bio::MoleculeType type;
    size_t length;
    int same = 0;
    size_t polyQ = 0; ///< poly-Q run length (protein only)
};

struct Recipe
{
    const char *name;
    std::vector<ChainShape> chains;
};

using bio::MoleculeType;

/** 1-4 chains and 80-310 tokens per complex. */
const std::vector<Recipe> &
recipes()
{
    static const std::vector<Recipe> r = {
        {"monomer80", {{MoleculeType::Protein, 80}}},
        {"homodimer2x60",
         {{MoleculeType::Protein, 60, 1}, {MoleculeType::Protein, 60, 1}}},
        {"protein120+dna",
         {{MoleculeType::Protein, 120},
          {MoleculeType::Dna, 16},
          {MoleculeType::Dna, 16}}},
        {"polyq160+protein60",
         {{MoleculeType::Protein, 160, 0, 40},
          {MoleculeType::Protein, 60}}},
        {"tetramer",
         {{MoleculeType::Protein, 50, 1},
          {MoleculeType::Protein, 50, 1},
          {MoleculeType::Protein, 45, 2},
          {MoleculeType::Protein, 45, 2}}},
        {"monomer200", {{MoleculeType::Protein, 200}}},
        {"heterotrimer",
         {{MoleculeType::Protein, 90},
          {MoleculeType::Protein, 70},
          {MoleculeType::Protein, 50}}},
        {"polyq100", {{MoleculeType::Protein, 100, 0, 30}}},
        {"homodimer2x120+dna",
         {{MoleculeType::Protein, 120, 1},
          {MoleculeType::Protein, 120, 1},
          {MoleculeType::Dna, 20},
          {MoleculeType::Dna, 20}}},
        {"homotrimer3x70",
         {{MoleculeType::Protein, 70, 1},
          {MoleculeType::Protein, 70, 1},
          {MoleculeType::Protein, 70, 1}}},
        {"dimer150+120+dna",
         {{MoleculeType::Protein, 150},
          {MoleculeType::Protein, 120},
          {MoleculeType::Dna, 20},
          {MoleculeType::Dna, 20}}},
    };
    return r;
}

constexpr size_t kDecoys = 5600;

/** Af3Model's per-module weight seeds (af3_model.cc). */
constexpr uint64_t kPairformerSalt = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kDiffusionSalt = 0x5851f42d4c957f2dull;
constexpr uint64_t kConfidenceSalt = 0xc0fdc0fdc0fdc0fdull;

uint64_t
modelDigest(const model::Structure &s, const model::ConfidenceResult &c)
{
    Digest d;
    d.floats(s.coords.data(), s.coords.size());
    for (double p : c.plddt)
        d.real(p);
    d.real(c.meanPlddt);
    d.real(c.meanPae);
    d.real(c.confidentFraction);
    return d.value();
}

/** Model weights as Af3Model derives them from its seed. */
struct Weights
{
    Weights(const model::ModelConfig &cfg, uint64_t seed)
        : embedder([&] {
              Rng rng(seed);
              return model::EmbedderWeights::init(cfg, rng);
          }()),
          pairformer([&] {
              Rng rng(seed ^ kPairformerSalt);
              return model::Pairformer(cfg, rng);
          }()),
          diffusion([&] {
              Rng rng(seed ^ kDiffusionSalt);
              return model::DiffusionModule(cfg, rng);
          }()),
          confidence([&] {
              Rng rng(seed ^ kConfidenceSalt);
              return model::ConfidenceWeights::init(cfg, rng);
          }())
    {}

    model::EmbedderWeights embedder;
    model::Pairformer pairformer;
    model::DiffusionModule diffusion;
    model::ConfidenceWeights confidence;
};

/**
 * One model configuration: its arena, config and model, and the
 * hook-free replica of its weights, which only the traced run builds.
 */
struct ModelSet
{
    ModelSet(ThreadPool *pool, uint64_t seed) : seed(seed)
    {
        cfg.pool = pool;
        cfg.arena = &arena;
        model = std::make_unique<model::Af3Model>(cfg, seed);
    }

    const Weights &
    replica()
    {
        if (!weights)
            weights = std::make_unique<Weights>(cfg, seed);
        return *weights;
    }

    uint64_t seed;
    tensor::Arena arena;
    model::ModelConfig cfg = model::miniConfig();
    std::unique_ptr<model::Af3Model> model;
    std::unique_ptr<Weights> weights;
};

/** Diffusion noise seed of complex @p k (fixed by the complex). */
uint64_t
sampleSeed(size_t k)
{
    return 7 + k;
}

/**
 * infer's stages without its timing hook, one span each: the
 * embedder, the Pairformer, diffusion and the confidence head.
 */
uint64_t
hookFree(const bio::Complex &c, const model::MsaFeatures &msa,
         ModelSet &m, size_t k, SpanRecorder &rec,
         const char *const (&spans)[4])
{
    const Weights &w = m.replica();
    model::PairState state;
    {
        SpanRecorder::Scope s(rec, spans[0]);
        state = model::embedInput(c, msa, w.embedder, m.cfg);
    }
    {
        SpanRecorder::Scope s(rec, spans[1]);
        w.pairformer.forward(state);
    }
    model::Structure structure;
    {
        SpanRecorder::Scope s(rec, spans[2]);
        Rng noise(sampleSeed(k) * 0x2545f4914f6cdd1dull + 0x1234);
        structure = w.diffusion.sample(state, noise);
    }
    model::ConfidenceResult confidence;
    {
        SpanRecorder::Scope s(rec, spans[3]);
        confidence = model::computeConfidence(state, w.confidence);
    }
    return modelDigest(structure, confidence);
}

class NativeFold : public Workload
{
  public:
    explicit NativeFold(unsigned nproc) : nproc_(nproc) {}

    void
    setup(uint64_t seed, SpanRecorder &rec) override
    {
        const uint64_t base = seed * 0x9e3779b97f4a7c15ull + 0xf01d;
        complexes_.clear();
        {
            SpanRecorder::Scope s(rec, "bio.complexes");
            bio::SequenceGenerator gen(base);
            for (const Recipe &r : recipes()) {
                bio::Complex c(r.name);
                std::map<int, bio::Sequence> shared;
                char id = 'A';
                for (const ChainShape &shape : r.chains) {
                    const std::string cid(1, id++);
                    bio::Sequence seq;
                    if (shape.same && shared.count(shape.same))
                        seq = bio::Sequence(
                            cid, shape.type,
                            shared.at(shape.same).toString());
                    else if (shape.polyQ)
                        seq = gen.withHomopolymer(cid, shape.length,
                                                  shape.polyQ, 'Q');
                    else
                        seq = gen.random(cid, shape.type, shape.length);
                    if (shape.same)
                        shared.emplace(shape.same, seq);
                    c.addChain(std::move(seq));
                }
                complexes_.push_back(std::move(c));
            }
        }
        {
            SpanRecorder::Scope s(rec, "msa.generate_database");
            vfs_ = io::Vfs();
            std::vector<const bio::Sequence *> queries;
            for (const auto &c : complexes_)
                for (const auto &chain : c.chains())
                    if (chain.type() == MoleculeType::Protein)
                        queries.push_back(&chain);
            msa::DbGenConfig cfg;
            cfg.seed = base ^ 0xdbdb;
            cfg.decoyCount = kDecoys;
            msa::generateDatabase(vfs_, "fold.fasta", queries,
                                  MoleculeType::Protein, cfg);
        }
        {
            SpanRecorder::Scope s(rec, "msa.load_database");
            io::StorageDevice device;
            io::PageCache cache(1 * GiB, &device);
            db_ = msa::SequenceDatabase::load(vfs_, cache, "fold.fasta",
                                              MoleculeType::Protein, 0.0);
        }
        {
            SpanRecorder::Scope s(rec, "model.weights");
            modelSeed_ = base ^ 0x3e3e;
            serial_ = std::make_unique<ModelSet>(nullptr, modelSeed_);
            pooled_.reset();
        }
    }

    size_t opCount() const override { return complexes_.size(); }

    std::string
    opLabel(size_t i) const override
    {
        return complexes_[i].name();
    }

    uint64_t
    run(size_t i, SpanRecorder &rec) override
    {
        const bio::Complex &c = complexes_[i];
        Digest d;
        model::MsaFeatures features = search(c, nullptr, rec, "msa.search",
                                             &d, rec.enabled() ? &stats_
                                                               : nullptr);
        model::InferenceResult inf;
        {
            SpanRecorder::Scope s(rec, "model.infer");
            inf = serial_->model->infer(c, features, sampleSeed(i));
        }
        const uint64_t md = modelDigest(inf.structure, inf.confidence);
        d.u64(md);
        if (rec.enabled()) {
            lastModel_ = md;
            lastMsa_ = features;
            for (const auto &[layer, secs] : inf.profile)
                profile_[layer] += secs;
        }
        return d.value();
    }

    std::vector<size_t>
    tracedOps() const override
    {
        std::vector<size_t> all(complexes_.size());
        for (size_t i = 0; i < all.size(); ++i)
            all[i] = i;
        return all;
    }

    void
    attribute(size_t i, SpanRecorder &rec) override
    {
        static const char *const kSerial[4] = {
            "model.embed", "model.pairformer", "model.diffusion",
            "model.confidence"};
        static const char *const kPooled[4] = {
            "util.pool_embed", "util.pool_pairformer",
            "util.pool_diffusion", "util.pool_confidence"};
        const bio::Complex &c = complexes_[i];
        if (!pooled_) {
            pool_ = std::make_unique<ThreadPool>(nproc_);
            pooled_ = std::make_unique<ModelSet>(pool_.get(), modelSeed_);
        }

        bool same =
            hookFree(c, lastMsa_, *serial_, i, rec, kSerial) == lastModel_;
        // The op again on the nproc pool: the staged MSA scan, infer
        // (whose hook forces the barriered path), and the hook-free
        // stages (the task graph). Outputs must not change.
        search(c, pool_.get(), rec, "util.pool_search", nullptr,
               &poolStats_);
        {
            SpanRecorder::Scope s(rec, "util.pool_infer");
            const auto inf =
                pooled_->model->infer(c, lastMsa_, sampleSeed(i));
            same = same && modelDigest(inf.structure, inf.confidence) ==
                               lastModel_;
        }
        {
            SpanRecorder::Scope s(rec, "util.pool_model");
            same = same && hookFree(c, lastMsa_, *pooled_, i, rec,
                                    kPooled) == lastModel_;
        }
        if (!same)
            throw std::runtime_error(
                "a replay differs from Af3Model::infer");

        const auto graph = opgraph::buildPairformerGraph(
            c.totalResidues(), serial_->cfg);
        for (const auto &op : graph.ops) {
            const double flops = op.flops * op.count;
            if (op.kind == model::LayerKind::TriangleAttnStarting ||
                op.kind == model::LayerKind::TriangleAttnEnding)
                triAttnFlops_ += flops;
            if (op.kind == model::LayerKind::TriangleMultOutgoing ||
                op.kind == model::LayerKind::TriangleMultIncoming)
                triMultFlops_ += flops;
        }
    }

    LayerMetrics
    layerMetrics(const SpanRecorder &rec, size_t ops) const override
    {
        const double n = static_cast<double>(std::max<size_t>(ops, 1));
        const double search = rec.total("msa.search");
        const double infer = rec.total("model.infer");
        const double stages = rec.total("model.embed") +
                              rec.total("model.pairformer") +
                              rec.total("model.diffusion") +
                              rec.total("model.confidence");
        const double poolPf = rec.total("util.pool_pairformer");
        const double triAttn = profile("triangle_attention_starting") +
                               profile("triangle_attention_ending");
        const double triMult = profile("triangle_mult_outgoing") +
                               profile("triangle_mult_incoming");
        const double cells = static_cast<double>(
            stats_.cellsMsv + stats_.cellsViterbi + stats_.cellsForward);
        const auto &st = poolStats_.stages;
        LayerMetrics m;
        m["msa.search_s"] = search / n;
        m["msa.cells"] = cells / n;
        m["msa.cells_per_s"] = search > 0 ? cells / search : 0;
        m["msa.msv_pass_rate"] = stats_.msvPassRate();
        m["util.pool_search_s"] = rec.total("util.pool_search") / n;
        m["msa.stage.occupancy"] = st.occupancy();
        m["msa.stage.chunk_waits"] = static_cast<double>(st.chunkWaits) / n;
        m["msa.stage.producer_waits"] =
            static_cast<double>(st.producerWaits) / n;
        m["msa.stage.survivors_inline"] =
            static_cast<double>(st.survivorsInline) / n;
        m["model.infer_s"] = infer / n;
        m["model.embed_s"] = rec.total("model.embed") / n;
        m["model.pairformer_s"] = rec.total("model.pairformer") / n;
        m["model.diffusion_s"] = rec.total("model.diffusion") / n;
        m["model.confidence_s"] = rec.total("model.confidence") / n;
        m["model.infer_gap_s"] = (infer - stages) / n;
        m["util.pool_infer_s"] = rec.total("util.pool_infer") / n;
        m["util.pool_pairformer_s"] = poolPf / n;
        m["util.pool_infer_gap_s"] = (rec.total("util.pool_infer") -
                                      rec.total("util.pool_model")) /
                                     n;
        m["model.pairformer_scaling"] =
            poolPf > 0 ? rec.total("model.pairformer") / poolPf : 0;
        m["model.triangle_attention_s"] = triAttn / n;
        m["model.triangle_mult_s"] = triMult / n;
        m["model.pair_transition_s"] = profile("pair_transition") / n;
        m["model.single_attention_s"] = profile("single_attention") / n;
        m["model.token_attention_s"] =
            (profile("local_attention_encoder") +
             profile("global_attention") +
             profile("local_attention_decoder")) /
            n;
        m["tensor.triangle_attention_gflops"] =
            triAttn > 0 ? triAttnFlops_ / triAttn / 1e9 : 0;
        m["tensor.triangle_mult_gflops"] =
            triMult > 0 ? triMultFlops_ / triMult / 1e9 : 0;
        m["tensor.arena_high_water_mib"] =
            static_cast<double>(serial_->arena.highWaterFloats()) *
            sizeof(float) / static_cast<double>(MiB);
        return m;
    }

    std::string
    opSize() const override
    {
        return "one complex (1-4 chains, 80-310 tokens), one thread: a "
               "jackhmmer search per distinct protein chain over ~6k "
               "targets, then mini-model inference";
    }

    double nominalPassSeconds() const override { return 17.5; }

    /** The op is serial; the traced run replays it on the pool. */
    unsigned threads() const override { return nproc_; }

  private:
    double
    profile(const std::string &name) const
    {
        const auto it = profile_.find(name);
        return it == profile_.end() ? 0.0 : it->second;
    }

    /**
     * jackhmmer for each distinct protein chain of @p c (serial when
     * @p pool is null) under span @p span; homomer copies reuse the
     * first chain's MSA. Feeds the hit lists to @p digest and the
     * counters to @p stats when they are set.
     */
    model::MsaFeatures
    search(const bio::Complex &c, ThreadPool *pool, SpanRecorder &rec,
           const char *span, Digest *digest, msa::SearchStats *stats)
    {
        io::StorageDevice device;
        io::PageCache cache(1 * GiB, &device);
        msa::JackhmmerConfig jcfg;
        jcfg.search.threads = pool ? pool->size() : 1;

        model::MsaFeatures features;
        std::vector<std::pair<std::string, size_t>> searched;
        for (const auto &chain : c.chains()) {
            if (chain.type() != MoleculeType::Protein) {
                features.depthPerChain.push_back(0);
                continue;
            }
            const std::string text = chain.toString();
            const auto hit = std::find_if(
                searched.begin(), searched.end(),
                [&](const auto &e) { return e.first == text; });
            if (hit != searched.end()) {
                features.depthPerChain.push_back(hit->second);
                continue;
            }
            msa::JackhmmerResult r;
            {
                SpanRecorder::Scope s(rec, span);
                r = msa::runJackhmmer(chain, db_, cache, pool, jcfg);
            }
            if (digest) {
                for (size_t row = 0; row < r.msa.rows.size(); ++row) {
                    digest->text(r.msa.rowIds[row]);
                    digest->text(r.msa.rows[row]);
                }
                for (uint64_t v :
                     {r.stats.targetsScanned, r.stats.msvPassed,
                      r.stats.viterbiPassed, r.stats.hits,
                      r.stats.cellsMsv, r.stats.cellsViterbi,
                      r.stats.cellsForward})
                    digest->u64(v);
            }
            if (stats)
                stats->merge(r.stats);
            searched.emplace_back(text, r.msa.depth());
            features.depthPerChain.push_back(r.msa.depth());
        }
        if (digest)
            for (size_t depth : features.depthPerChain)
                digest->u64(depth);
        return features;
    }

    unsigned nproc_;
    std::vector<bio::Complex> complexes_;
    io::Vfs vfs_;
    msa::SequenceDatabase db_;
    uint64_t modelSeed_ = 0;
    std::unique_ptr<ModelSet> serial_;

    // Traced-run state.
    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<ModelSet> pooled_;
    uint64_t lastModel_ = 0;
    model::MsaFeatures lastMsa_;
    msa::SearchStats stats_;
    msa::SearchStats poolStats_;
    std::map<std::string, double> profile_;
    double triAttnFlops_ = 0.0;
    double triMultFlops_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeNativeFold(unsigned nproc)
{
    return std::make_unique<NativeFold>(nproc);
}

} // namespace perfbench
