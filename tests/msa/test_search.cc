/**
 * @file
 * Integration tests for database generation and the scan pipeline,
 * including the low-complexity (Observation 2) mechanism.
 */

#include <gtest/gtest.h>

#include <string>

#include "bio/seqgen.hh"
#include "msa/dbgen.hh"
#include "msa/search.hh"
#include "util/units.hh"
#include "util/logging.hh"

namespace afsb::msa {
namespace {

using bio::MoleculeType;
using bio::Sequence;

struct SearchFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        gen = std::make_unique<bio::SequenceGenerator>(101);
        query = gen->random("q", MoleculeType::Protein, 180);

        DbGenConfig cfg;
        cfg.decoyCount = 250;
        cfg.homologsPerQuery = 8;
        cfg.fragmentsPerQuery = 6;
        const std::vector<const Sequence *> queries = {&query};
        generateDatabase(vfs, "prot.fasta", queries,
                         MoleculeType::Protein, cfg);
        db = SequenceDatabase::load(vfs, cache(), "prot.fasta",
                                    MoleculeType::Protein, 0.0);
    }

    io::PageCache &
    cache()
    {
        if (!cache_)
            cache_ = std::make_unique<io::PageCache>(1 * GiB, &dev);
        return *cache_;
    }

    std::unique_ptr<bio::SequenceGenerator> gen;
    Sequence query;
    io::Vfs vfs;
    io::StorageDevice dev;
    std::unique_ptr<io::PageCache> cache_;
    SequenceDatabase db;
};

TEST_F(SearchFixture, DatabaseLoadParsesEverything)
{
    EXPECT_EQ(db.size(), 250u + 8u + 6u);
    EXPECT_GT(db.totalResidues(), 20000u);
    // Byte extents tile the file.
    uint64_t prev = 0;
    for (size_t i = 0; i < db.size(); ++i) {
        const auto e = db.byteExtent(i);
        EXPECT_EQ(e.offset, prev);
        EXPECT_GT(e.length, 0u);
        prev = e.offset + e.length;
    }
    EXPECT_EQ(prev, vfs.size(*vfs.open("prot.fasta")));
}

TEST_F(SearchFixture, FindsPlantedHomologs)
{
    const auto prof =
        ProfileHmm::fromSequence(query, ScoreMatrix::blosum62());
    SearchConfig cfg;
    const auto result =
        searchDatabase(prof, db, cache(), nullptr, cfg);
    // At least half of the 8 planted homologs are recovered.
    size_t homologHits = 0;
    for (const auto &hit : result.hits) {
        const auto &id = db.sequences()[hit.targetIndex].id();
        homologHits += id.rfind("hom_", 0) == 0;
    }
    EXPECT_GE(homologHits, 4u);
    EXPECT_EQ(result.stats.targetsScanned, db.size());
    EXPECT_GT(result.stats.cellsMsv, 0u);
    EXPECT_GT(result.stats.cellsViterbi, 0u);
}

TEST_F(SearchFixture, PrefilterKeepsViterbiWorkSmall)
{
    const auto prof =
        ProfileHmm::fromSequence(query, ScoreMatrix::blosum62());
    SearchConfig cfg;
    const auto result =
        searchDatabase(prof, db, cache(), nullptr, cfg);
    EXPECT_LT(result.stats.msvPassRate(), 0.35);
    EXPECT_LT(result.stats.cellsViterbi, result.stats.cellsMsv);
}

/** Exact comparison of two scan results (hit scores included). */
void
expectIdentical(const SearchResult &a, const SearchResult &b)
{
    EXPECT_EQ(a.stats.targetsScanned, b.stats.targetsScanned);
    EXPECT_EQ(a.stats.residuesScanned, b.stats.residuesScanned);
    EXPECT_EQ(a.stats.msvPassed, b.stats.msvPassed);
    EXPECT_EQ(a.stats.viterbiPassed, b.stats.viterbiPassed);
    EXPECT_EQ(a.stats.domainsScored, b.stats.domainsScored);
    EXPECT_EQ(a.stats.hits, b.stats.hits);
    EXPECT_EQ(a.stats.cellsMsv, b.stats.cellsMsv);
    EXPECT_EQ(a.stats.cellsViterbi, b.stats.cellsViterbi);
    EXPECT_EQ(a.stats.cellsForward, b.stats.cellsForward);
    EXPECT_EQ(a.stats.bytesStreamed, b.stats.bytesStreamed);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (size_t i = 0; i < a.hits.size(); ++i) {
        EXPECT_EQ(a.hits[i].targetIndex, b.hits[i].targetIndex);
        EXPECT_EQ(a.hits[i].viterbiScore, b.hits[i].viterbiScore);
        EXPECT_EQ(a.hits[i].forwardLogOdds, b.hits[i].forwardLogOdds);
    }
    EXPECT_EQ(a.msvSurvivors, b.msvSurvivors);
}

TEST_F(SearchFixture, MultithreadedScanMatchesSingleThreaded)
{
    // The skewed-workload, clamp, cold-cache and repeated-run inputs
    // are in test_search_overlap.cc.
    const auto prof =
        ProfileHmm::fromSequence(query, ScoreMatrix::blosum62());
    auto scan = [&](ThreadPool *pool, size_t threads) {
        SearchConfig cfg;
        cfg.threads = threads;
        return searchDatabase(prof, db, cache(), pool, cfg);
    };
    const auto serial = scan(nullptr, 1);
    EXPECT_GT(serial.stats.msvPassed, 0u);
    for (size_t threads : {2u, 4u, 8u}) {
        ThreadPool pool(threads);
        expectIdentical(serial, scan(&pool, threads));
    }
}

TEST_F(SearchFixture, StreamsDatabaseBytesThroughCache)
{
    const auto prof =
        ProfileHmm::fromSequence(query, ScoreMatrix::blosum62());
    SearchConfig cfg;
    // The load in SetUp warmed the page cache: a scan sees DRAM
    // hits only (the paper's Server behaviour).
    const auto warm =
        searchDatabase(prof, db, cache(), nullptr, cfg);
    EXPECT_EQ(warm.stats.bytesStreamed,
              vfs.size(*vfs.open("prot.fasta")));
    EXPECT_EQ(warm.stats.bytesFromDisk, 0u);
    EXPECT_DOUBLE_EQ(warm.stats.ioLatency, 0.0);

    // After dropping the cache the scan must fault from storage
    // (the Desktop behaviour when DRAM cannot hold the database).
    cache().dropAll();
    const auto cold =
        searchDatabase(prof, db, cache(), nullptr, cfg);
    EXPECT_GT(cold.stats.bytesFromDisk, 0u);
    EXPECT_GT(cold.stats.ioLatency, 0.0);
}

/** Sink that drops every event. */
class NullSink : public MemTraceSink
{
  public:
    void access(const MemAccess &) override {}
    void instructions(FuncId, uint64_t) override {}
    void branches(FuncId, uint64_t, uint64_t) override {}
};

TEST_F(SearchFixture, ZeroTraceStrideTracedScanIsFatal)
{
    // The reader loop steps by 64 * traceStride: zero would never end.
    const auto prof =
        ProfileHmm::fromSequence(query, ScoreMatrix::blosum62());
    SearchConfig cfg;
    cfg.kernel.traceStride = 0;
    NullSink sink;
    const std::vector<MemTraceSink *> sinks = {&sink};
    try {
        searchDatabase(prof, db, cache(), nullptr, cfg, 0.0, sinks);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("traceStride"),
                  std::string::npos);
    }
    // Untraced scans never sample.
    EXPECT_GT(searchDatabase(prof, db, cache(), nullptr, cfg)
                  .stats.targetsScanned,
              0u);
}

TEST_F(SearchFixture, HugeTraceStrideTracedScanCompletes)
{
    // At traceStride 2^27 the kernels' arena metadata period used to
    // wrap to 0 in 32 bits and divide by zero; the traced scan now
    // completes with the untraced scan's results.
    const auto prof =
        ProfileHmm::fromSequence(query, ScoreMatrix::blosum62());
    SearchConfig cfg;
    cfg.kernel.traceStride = 1u << 27;
    NullSink sink;
    const std::vector<MemTraceSink *> sinks = {&sink};
    expectIdentical(
        searchDatabase(prof, db, cache(), nullptr, cfg),
        searchDatabase(prof, db, cache(), nullptr, cfg, 0.0, sinks));
}

TEST_F(SearchFixture, SubPageArenaTracedScanIsFatal)
{
    // The check runs before any worker starts, so it throws on the
    // calling thread even for a pooled scan.
    const auto prof =
        ProfileHmm::fromSequence(query, ScoreMatrix::blosum62());
    SearchConfig cfg;
    cfg.threads = 2;
    cfg.kernel.arenaBytes = 4095;
    NullSink a, b;
    const std::vector<MemTraceSink *> sinks = {&a, &b};
    ThreadPool pool(2);
    try {
        searchDatabase(prof, db, cache(), &pool, cfg, 0.0, sinks);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "searchDatabase: KernelConfig::arenaBytes"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SearchLowComplexity, PolyQInflatesPipelineWork)
{
    // Observation 2: a poly-Q query of the same length must push
    // far more targets past the prefilter into the banded kernels.
    bio::SequenceGenerator gen(202);
    const auto diverse = gen.random("d", MoleculeType::Protein, 200);
    const auto polyq = gen.withHomopolymer("p", 200, 64, 'Q');

    io::Vfs vfs;
    io::StorageDevice dev;
    io::PageCache cache(1 * GiB, &dev);

    DbGenConfig cfg;
    cfg.decoyCount = 400;
    cfg.homologsPerQuery = 4;
    cfg.fragmentsPerQuery = 4;
    cfg.lowComplexityFraction = 0.08;
    // One shared database built for both queries.
    const std::vector<const bio::Sequence *> queries = {&diverse,
                                                        &polyq};
    generateDatabase(vfs, "db.fasta", queries,
                     MoleculeType::Protein, cfg);
    const auto db = SequenceDatabase::load(
        vfs, cache, "db.fasta", MoleculeType::Protein, 0.0);

    SearchConfig scfg;
    const auto profD = ProfileHmm::fromSequence(
        diverse, ScoreMatrix::blosum62());
    const auto profQ =
        ProfileHmm::fromSequence(polyq, ScoreMatrix::blosum62());
    const auto rd = searchDatabase(profD, db, cache, nullptr, scfg);
    const auto rq = searchDatabase(profQ, db, cache, nullptr, scfg);

    EXPECT_GT(rq.stats.msvPassed, 2 * rd.stats.msvPassed);
    EXPECT_GT(rq.stats.cellsViterbi,
              3 * rd.stats.cellsViterbi / 2);
}

TEST(SearchThreshold, GrowsLogarithmicallyWithTarget)
{
    bio::SequenceGenerator gen(303);
    const auto q = gen.random("q", MoleculeType::Protein, 100);
    const auto prof =
        ProfileHmm::fromSequence(q, ScoreMatrix::blosum62());
    SearchConfig cfg;
    const int t100 = msvThreshold(prof, 100, cfg);
    const int t10k = msvThreshold(prof, 10000, cfg);
    EXPECT_GT(t10k, t100);
    EXPECT_LT(t10k, t100 + 20);
}

} // namespace
} // namespace afsb::msa
