/**
 * @file
 * Pooled scans on a skewed workload: the static block split must
 * produce bit-identical hit sets (scores included) and pipeline
 * counters to the serial loop at any thread count, from a plain
 * caller or from inside a TaskGroup task, across repeated runs, a
 * cold page cache and a clamped thread request. Also covers pooled
 * jackhmmer rounds, the pooled nhmmer window scan, and the thread
 * count of an untraced pooled scan.
 *
 * The suite names keep their `Overlap` prefix from the overlapped
 * staged scan these cases were written for. That scan is gone; the
 * same inputs now pin the static split that replaced it.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "bio/seqgen.hh"
#include "msa/dbgen.hh"
#include "msa/jackhmmer.hh"
#include "msa/nhmmer.hh"
#include "msa/search.hh"
#include "util/task.hh"
#include "util/units.hh"

namespace afsb::msa {
namespace {

using bio::MoleculeType;
using bio::Sequence;

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
        EXPECT_EQ(a.hits[i].forwardLogOdds,
                  b.hits[i].forwardLogOdds);
    }
    EXPECT_EQ(a.msvSurvivors, b.msvSurvivors);
}

struct OverlapFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        bio::SequenceGenerator gen(4242);
        // A mildly low-complexity query inflates the survivor set
        // (paper Observation 2), so per-block cost is skewed.
        query = gen.withHomopolymer("q", 200, 48, 'Q');

        DbGenConfig cfg;
        cfg.decoyCount = 600;
        cfg.homologsPerQuery = 10;
        cfg.fragmentsPerQuery = 8;
        cfg.lowComplexityFraction = 0.1;
        const std::vector<const Sequence *> queries = {&query};
        generateDatabase(vfs, "prot.fasta", queries,
                         MoleculeType::Protein, cfg);
        cache = std::make_unique<io::PageCache>(1 * GiB, &dev);
        db = SequenceDatabase::load(vfs, *cache, "prot.fasta",
                                    MoleculeType::Protein, 0.0);
        prof = std::make_unique<ProfileHmm>(
            ProfileHmm::fromSequence(query,
                                     ScoreMatrix::blosum62()));
    }

    SearchResult
    scan(ThreadPool *pool, size_t threads)
    {
        SearchConfig cfg;
        cfg.threads = threads;
        return searchDatabase(*prof, db, *cache, pool, cfg);
    }

    Sequence query;
    io::Vfs vfs;
    io::StorageDevice dev;
    std::unique_ptr<io::PageCache> cache;
    SequenceDatabase db;
    std::unique_ptr<ProfileHmm> prof;
};

TEST_F(OverlapFixture, MatchesStaticPathAcrossThreadCounts)
{
    const auto reference = scan(nullptr, 1);
    EXPECT_GT(reference.stats.msvPassed, 0u);
    EXPECT_GT(reference.hits.size(), 0u);
    for (size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(threads);
        expectIdentical(reference, scan(&pool, threads));
    }
}

TEST_F(OverlapFixture, TaskEngineMatchesQueueEngineAcrossThreads)
{
    // A scan started from inside a TaskGroup task dispatches its
    // blocks inline on that thread; one started by a plain caller
    // goes through the pool's queue. Both must match the serial
    // reference bit-exactly.
    const auto reference = scan(nullptr, 1);
    for (size_t threads : {2u, 4u, 8u}) {
        ThreadPool pool(threads);
        SearchResult tasked;
        TaskGroup group(&pool);
        group.spawn([&] { tasked = scan(&pool, threads); });
        group.sync();
        expectIdentical(reference, tasked);
        expectIdentical(reference, scan(&pool, threads));
    }
}

TEST_F(OverlapFixture, RepeatedOverlappedRunsAreIdentical)
{
    ThreadPool pool(8);
    const auto a = scan(&pool, 8);
    const auto b = scan(&pool, 8);
    expectIdentical(a, b);
}

TEST_F(OverlapFixture, StageCountersAccountForTheScan)
{
    ThreadPool pool(4);
    const auto r = scan(&pool, 4);
    // Every target is read once through the page cache, so the
    // pooled scan streams the whole FASTA exactly once.
    EXPECT_EQ(r.stats.targetsScanned, db.size());
    EXPECT_EQ(r.stats.bytesStreamed,
              vfs.size(*vfs.open("prot.fasta")));
    // The staged-scan counters kept for perfbench read zero.
    const auto &st = r.stats.stages;
    EXPECT_EQ(st.chunkWaits, 0u);
    EXPECT_EQ(st.producerWaits, 0u);
    EXPECT_EQ(st.survivorsInline, 0u);
    EXPECT_EQ(st.occupancy(), 0.0);
}

TEST_F(OverlapFixture, ColdCacheStreamsFromDisk)
{
    ThreadPool pool(4);
    cache->dropAll();
    const auto cold = scan(&pool, 4);
    EXPECT_GT(cold.stats.bytesFromDisk, 0u);
    EXPECT_GT(cold.stats.ioLatency, 0.0);

    // Warm rescan: everything resident now.
    const auto warm = scan(&pool, 4);
    EXPECT_EQ(warm.stats.bytesFromDisk, 0u);
    expectIdentical(cold, warm);
}

TEST_F(OverlapFixture, ThreadClampStillScansEverything)
{
    ThreadPool pool(2);
    // threads > pool size: clamps (with a warning) and still works.
    const auto clamped = scan(&pool, 16);
    expectIdentical(scan(nullptr, 1), clamped);
    EXPECT_EQ(clamped.stats.targetsScanned, db.size());
}

TEST(ScanPartition, UntracedScanRunsOnItsWorkerCount)
{
    // threads = 2 on a 4-worker pool: the calling thread is one of
    // the two, so at most one pool worker may join the scan. Each
    // block sleeps so idle workers would have time to steal.
    ThreadPool pool(4);
    std::mutex m;
    std::set<std::thread::id> threads;
    const auto r = scanPartitioned(
        256, 2, &pool, {},
        [&](size_t begin, size_t end, MemTraceSink *,
            SearchResult &out) {
            {
                std::lock_guard lock(m);
                threads.insert(std::this_thread::get_id());
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            out.stats.targetsScanned += end - begin;
        });
    EXPECT_EQ(r.stats.targetsScanned, 256u);
    EXPECT_LE(threads.size(), 2u);
}

TEST(OverlapJackhmmer, CarryAndOverlapNeverChangeTheMsa)
{
    bio::SequenceGenerator gen(777);
    const auto query =
        gen.random("q", MoleculeType::Protein, 160);
    io::Vfs vfs;
    io::StorageDevice dev;
    io::PageCache cache(1 * GiB, &dev);
    DbGenConfig dcfg;
    dcfg.decoyCount = 300;
    dcfg.homologsPerQuery = 8;
    const std::vector<const Sequence *> queries = {&query};
    generateDatabase(vfs, "db.fasta", queries,
                     MoleculeType::Protein, dcfg);
    const auto db = SequenceDatabase::load(
        vfs, cache, "db.fasta", MoleculeType::Protein, 0.0);

    ThreadPool pool(4);
    auto run = [&](ThreadPool *p, size_t threads) {
        JackhmmerConfig cfg;
        cfg.iterations = 3;
        cfg.search.threads = threads;
        return runJackhmmer(query, db, cache, p, cfg);
    };
    const auto base = run(nullptr, 1);
    const auto pooled = run(&pool, 4);
    EXPECT_EQ(base.msa.depth(), pooled.msa.depth());
    EXPECT_EQ(base.msa.rows, pooled.msa.rows);
    EXPECT_EQ(base.rounds, pooled.rounds);
    EXPECT_EQ(base.stats.hits, pooled.stats.hits);
    EXPECT_EQ(base.stats.msvPassed, pooled.stats.msvPassed);
    EXPECT_EQ(base.stats.cellsViterbi, pooled.stats.cellsViterbi);
    ASSERT_EQ(base.perRound.size(), pooled.perRound.size());
    for (size_t r = 0; r < base.perRound.size(); ++r) {
        // Every round rescans the whole database.
        EXPECT_EQ(pooled.perRound[r].targetsScanned, db.size());
        EXPECT_EQ(base.perRound[r].msvPassed,
                  pooled.perRound[r].msvPassed);
        EXPECT_EQ(base.perRound[r].hits, pooled.perRound[r].hits);
    }
}

TEST(OverlapNhmmer, WindowScanMatchesStaticPath)
{
    bio::SequenceGenerator gen(888);
    const auto query = gen.random("q", MoleculeType::Rna, 90);
    io::Vfs vfs;
    io::StorageDevice dev;
    io::PageCache cache(1 * GiB, &dev);
    DbGenConfig dcfg;
    dcfg.decoyCount = 120;
    dcfg.homologsPerQuery = 6;
    const std::vector<const Sequence *> queries = {&query};
    generateDatabase(vfs, "rna.fasta", queries, MoleculeType::Rna,
                     dcfg);
    const auto db = SequenceDatabase::load(
        vfs, cache, "rna.fasta", MoleculeType::Rna, 0.0);

    ThreadPool pool(4);
    auto run = [&](ThreadPool *p, size_t threads) {
        NhmmerConfig cfg;
        cfg.search.threads = threads;
        return runNhmmer(query, db, cache, p, cfg);
    };
    const auto serial = run(nullptr, 1);
    const auto pooled = run(&pool, 4);
    EXPECT_GT(serial.windowsScanned, 0u);
    EXPECT_EQ(serial.windowsScanned, pooled.windowsScanned);
    EXPECT_EQ(serial.stats.targetsScanned,
              pooled.stats.targetsScanned);
    EXPECT_EQ(serial.stats.msvPassed, pooled.stats.msvPassed);
    EXPECT_EQ(serial.stats.hits, pooled.stats.hits);
    EXPECT_EQ(serial.stats.bytesStreamed,
              pooled.stats.bytesStreamed);
    EXPECT_EQ(serial.msa.depth(), pooled.msa.depth());
    EXPECT_EQ(serial.msa.rows, pooled.msa.rows);
}

} // namespace
} // namespace afsb::msa
