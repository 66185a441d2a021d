/**
 * @file
 * Tests for the windowed nucleotide search and the Fig 2 memory
 * model.
 */

#include <gtest/gtest.h>

#include "bio/samples.hh"
#include "bio/seqgen.hh"
#include "msa/dbgen.hh"
#include "msa/memory_model.hh"
#include "msa/nhmmer.hh"
#include "util/units.hh"
#include "util/logging.hh"

namespace afsb::msa {
namespace {

using bio::MoleculeType;
using bio::Sequence;

TEST(ReverseComplement, InvertsAndComplements)
{
    const Sequence s("x", MoleculeType::Rna, "ACGU");
    const auto rc = reverseComplement(s);
    EXPECT_EQ(rc.toString(), "ACGU");  // ACGU is its own RC
    const Sequence s2("y", MoleculeType::Dna, "AACG");
    EXPECT_EQ(reverseComplement(s2).toString(), "CGTT");
    // Double application is identity.
    const Sequence s3("z", MoleculeType::Rna, "AAGGCUA");
    EXPECT_EQ(reverseComplement(reverseComplement(s3)).toString(),
              s3.toString());
    const Sequence p("p", MoleculeType::Protein, "MK");
    EXPECT_THROW(reverseComplement(p), FatalError);
}

struct NhmmerFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        bio::SequenceGenerator gen(909);
        query = gen.random("q", MoleculeType::Rna, 120);
        DbGenConfig cfg;
        cfg.decoyCount = 120;
        cfg.decoyMinLen = 150;
        cfg.decoyMaxLen = 600;
        cfg.homologsPerQuery = 6;
        cfg.fragmentsPerQuery = 4;
        const std::vector<const Sequence *> queries = {&query};
        generateDatabase(vfs, "rna.fasta", queries,
                         MoleculeType::Rna, cfg);
        db = SequenceDatabase::load(vfs, *cache, "rna.fasta",
                                    MoleculeType::Rna, 0.0);
    }

    Sequence query;
    io::Vfs vfs;
    io::StorageDevice dev;
    std::unique_ptr<io::PageCache> cache =
        std::make_unique<io::PageCache>(1 * GiB, &dev);
    SequenceDatabase db;
};

TEST_F(NhmmerFixture, ScansWindowsAndFindsHomologs)
{
    NhmmerConfig cfg;
    const auto result = runNhmmer(query, db, *cache, nullptr, cfg);
    EXPECT_GT(result.windowsScanned, db.size());
    EXPECT_GE(result.stats.hits, 2u);
    EXPECT_GE(result.msa.depth(), 3u);
    EXPECT_EQ(result.msa.queryLength, query.length());
}

TEST_F(NhmmerFixture, ModeledMemoryReported)
{
    NhmmerConfig cfg;
    const auto result = runNhmmer(query, db, *cache, nullptr, cfg);
    EXPECT_EQ(result.modeledPeakMemory,
              nhmmerPeakMemoryBytes(query.length()));
    EXPECT_GT(result.modeledPeakMemory, 0u);
}

TEST_F(NhmmerFixture, MultithreadedMatchesSingle)
{
    NhmmerConfig cfg;
    const auto r1 = runNhmmer(query, db, *cache, nullptr, cfg);
    ThreadPool pool(4);
    NhmmerConfig cfg4 = cfg;
    cfg4.search.threads = 4;
    const auto r4 = runNhmmer(query, db, *cache, &pool, cfg4);
    EXPECT_EQ(r1.stats.hits, r4.stats.hits);
    EXPECT_EQ(r1.windowsScanned, r4.windowsScanned);
}

TEST_F(NhmmerFixture, RejectsProteinQuery)
{
    bio::SequenceGenerator gen(4);
    const auto prot = gen.random("p", MoleculeType::Protein, 50);
    NhmmerConfig cfg;
    EXPECT_THROW(runNhmmer(prot, db, *cache, nullptr, cfg),
                 FatalError);
}

/** Sink that drops every event. */
class NullSink : public MemTraceSink
{
  public:
    void access(const MemAccess &) override {}
    void instructions(FuncId, uint64_t) override {}
    void branches(FuncId, uint64_t, uint64_t) override {}
};

TEST_F(NhmmerFixture, ZeroTraceStrideTracedScanIsFatal)
{
    NhmmerConfig cfg;
    cfg.search.kernel.traceStride = 0;
    NullSink sink;
    const std::vector<MemTraceSink *> sinks = {&sink};
    try {
        runNhmmer(query, db, *cache, nullptr, cfg, 0.0, sinks);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("traceStride"),
                  std::string::npos);
    }
}

// --- Fig 2 memory model -------------------------------------------------

TEST(MemoryModel, MatchesPublishedRnaPoints)
{
    // Paper Fig 2: 621 nt -> 79.3 GiB, 935 -> 506, 1135 -> 644.
    EXPECT_NEAR(static_cast<double>(nhmmerPeakMemoryBytes(621)) /
                    static_cast<double>(GiB),
                79.3, 0.5);
    EXPECT_NEAR(static_cast<double>(nhmmerPeakMemoryBytes(935)) /
                    static_cast<double>(GiB),
                506.0, 1.0);
    EXPECT_NEAR(static_cast<double>(nhmmerPeakMemoryBytes(1135)) /
                    static_cast<double>(GiB),
                644.0, 1.0);
}

TEST(MemoryModel, Rna1335ExceedsCxlCapacity)
{
    // The paper's 1,335-nt input failed at 768 GiB (512 DRAM +
    // 256 CXL).
    EXPECT_GT(nhmmerPeakMemoryBytes(1335), 768 * GiB);
}

TEST(MemoryModel, RnaCurveIsMonotone)
{
    uint64_t prev = 0;
    for (size_t len = 50; len <= 1400; len += 25) {
        const uint64_t m = nhmmerPeakMemoryBytes(len);
        EXPECT_GE(m, prev) << "at length " << len;
        prev = m;
    }
}

TEST(MemoryModel, RnaGrowthIsNonLinear)
{
    // Section III-C: "memory consumption of nhmmer increased
    // non-linearly with RNA input length": doubling 467 -> 934
    // should far more than double memory.
    const auto m1 = nhmmerPeakMemoryBytes(467);
    const auto m2 = nhmmerPeakMemoryBytes(934);
    EXPECT_GT(m2, 4 * m1);
}

TEST(MemoryModel, ProteinPointsMatchPaper)
{
    // 1000 res: 0.23 GiB @1T, ~0.9 GiB @8T; 2000 res: ~1.7 GiB @8T.
    EXPECT_NEAR(static_cast<double>(
                    jackhmmerPeakMemoryBytes(1000, 1)) /
                    static_cast<double>(GiB),
                0.23, 0.02);
    EXPECT_NEAR(static_cast<double>(
                    jackhmmerPeakMemoryBytes(1000, 8)) /
                    static_cast<double>(GiB),
                0.9, 0.05);
    EXPECT_NEAR(static_cast<double>(
                    jackhmmerPeakMemoryBytes(2000, 8)) /
                    static_cast<double>(GiB),
                1.8, 0.15);
}

TEST(MemoryModel, RnaDominatesComplexPeak)
{
    // For 6QNR-like inputs the RNA chain footprint dwarfs the
    // protein chains ("the number and length of accompanying
    // protein chains had negligible impact").
    const auto sample = bio::makeSample("6QNR");
    const uint64_t whole =
        msaPhasePeakMemoryBytes(sample.complex, 8);
    const uint64_t rnaOnly = nhmmerPeakMemoryBytes(
        sample.complex.longestChain(MoleculeType::Rna));
    EXPECT_GT(whole, rnaOnly);
    EXPECT_LT(static_cast<double>(whole),
              1.2 * static_cast<double>(rnaOnly));
}

TEST(MemoryModel, ProteinOnlyComplexIsCheap)
{
    const auto sample = bio::makeSample("1YY9");
    const uint64_t peak =
        msaPhasePeakMemoryBytes(sample.complex, 8);
    EXPECT_LT(peak, 2 * GiB);
}

} // namespace
} // namespace afsb::msa
