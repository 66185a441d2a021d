/**
 * @file
 * Integration tests for iterative protein search and MSA assembly.
 */

#include <gtest/gtest.h>

#include "bio/seqgen.hh"
#include "msa/dbgen.hh"
#include "msa/jackhmmer.hh"
#include "util/units.hh"
#include "util/logging.hh"

namespace afsb::msa {
namespace {

using bio::MoleculeType;
using bio::Sequence;

struct JackFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        bio::SequenceGenerator gen(77);
        query = gen.random("q", MoleculeType::Protein, 160);
        DbGenConfig cfg;
        cfg.decoyCount = 200;
        cfg.homologsPerQuery = 10;
        cfg.fragmentsPerQuery = 5;
        const std::vector<const Sequence *> queries = {&query};
        generateDatabase(vfs, "db.fasta", queries,
                         MoleculeType::Protein, cfg);
        db = SequenceDatabase::load(vfs, *cache, "db.fasta",
                                    MoleculeType::Protein, 0.0);
    }

    Sequence query;
    io::Vfs vfs;
    io::StorageDevice dev;
    std::unique_ptr<io::PageCache> cache =
        std::make_unique<io::PageCache>(1 * GiB, &dev);
    SequenceDatabase db;
};

TEST_F(JackFixture, BuildsDeepMsa)
{
    JackhmmerConfig cfg;
    const auto result =
        runJackhmmer(query, db, *cache, nullptr, cfg);
    EXPECT_EQ(result.rounds, cfg.iterations);
    EXPECT_GE(result.msa.depth(), 5u);
    EXPECT_EQ(result.msa.queryLength, query.length());
    // Row 0 is the query itself.
    EXPECT_EQ(result.msa.rows[0], query.toString());
    EXPECT_EQ(result.msa.rowIds[0], "q");
    // All rows have query length.
    for (const auto &row : result.msa.rows)
        EXPECT_EQ(row.size(), query.length());
}

TEST_F(JackFixture, MsaRowsResembleQuery)
{
    JackhmmerConfig cfg;
    const auto result =
        runJackhmmer(query, db, *cache, nullptr, cfg);
    ASSERT_GE(result.msa.depth(), 2u);
    EXPECT_GT(result.msa.meanIdentity(), 0.4);
}

TEST_F(JackFixture, StatsAccumulateAcrossRounds)
{
    JackhmmerConfig cfg;
    cfg.iterations = 2;
    const auto result =
        runJackhmmer(query, db, *cache, nullptr, cfg);
    ASSERT_EQ(result.perRound.size(), 2u);
    EXPECT_EQ(result.stats.targetsScanned,
              result.perRound[0].targetsScanned +
                  result.perRound[1].targetsScanned);
    EXPECT_GT(result.stats.cellsMsv,
              result.perRound[0].cellsMsv);
}

TEST_F(JackFixture, SecondRoundFindsAtLeastFirstRoundHits)
{
    JackhmmerConfig cfg;
    cfg.iterations = 2;
    const auto result =
        runJackhmmer(query, db, *cache, nullptr, cfg);
    EXPECT_GE(result.perRound[1].hits, result.perRound[0].hits);
}

/** Same rounds, per-round counters and MSA rows. */
void
expectSameRun(const JackhmmerResult &a, const JackhmmerResult &b)
{
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.stats.msvPassed, b.stats.msvPassed);
    EXPECT_EQ(a.stats.hits, b.stats.hits);
    EXPECT_EQ(a.stats.cellsMsv, b.stats.cellsMsv);
    EXPECT_EQ(a.stats.cellsViterbi, b.stats.cellsViterbi);
    EXPECT_EQ(a.stats.cellsForward, b.stats.cellsForward);
    ASSERT_EQ(a.perRound.size(), b.perRound.size());
    for (size_t r = 0; r < a.perRound.size(); ++r) {
        EXPECT_EQ(a.perRound[r].msvPassed, b.perRound[r].msvPassed);
        EXPECT_EQ(a.perRound[r].hits, b.perRound[r].hits);
    }
    EXPECT_EQ(a.msa.rowIds, b.msa.rowIds);
    EXPECT_EQ(a.msa.rows, b.msa.rows);
}

TEST_F(JackFixture, MultithreadedMatchesSingle)
{
    JackhmmerConfig cfg;
    cfg.iterations = 3;
    auto run = [&](ThreadPool *pool, size_t threads) {
        JackhmmerConfig c = cfg;
        c.search.threads = threads;
        return runJackhmmer(query, db, *cache, pool, c);
    };
    const auto serial = run(nullptr, 1);
    EXPECT_GE(serial.rounds, 2u);
    for (size_t threads : {2u, 4u, 8u}) {
        ThreadPool pool(threads);
        expectSameRun(serial, run(&pool, threads));
    }

    // More threads than the pool has: clamps and still matches.
    ThreadPool two(2);
    expectSameRun(serial, run(&two, 16));

    // Repeated runs on one pool match.
    ThreadPool eight(8);
    expectSameRun(run(&eight, 8), run(&eight, 8));

    // Cold, then warm, page cache under a pool.
    ThreadPool four(4);
    cache->dropAll();
    const auto cold = run(&four, 4);
    EXPECT_GT(cold.stats.bytesFromDisk, 0u);
    const auto warm = run(&four, 4);
    EXPECT_EQ(warm.stats.bytesFromDisk, 0u);
    expectSameRun(cold, warm);
}

TEST_F(JackFixture, RejectsNucleotideQuery)
{
    bio::SequenceGenerator gen(5);
    const auto rna = gen.random("r", MoleculeType::Rna, 60);
    JackhmmerConfig cfg;
    EXPECT_THROW(runJackhmmer(rna, db, *cache, nullptr, cfg),
                 FatalError);
}

TEST_F(JackFixture, FeatureBytesMatchDims)
{
    JackhmmerConfig cfg;
    const auto result =
        runJackhmmer(query, db, *cache, nullptr, cfg);
    const uint64_t expect =
        static_cast<uint64_t>(result.msa.depth()) * query.length() *
        64 * 4;
    EXPECT_EQ(result.msa.featureBytes(), expect);
}

} // namespace
} // namespace afsb::msa
