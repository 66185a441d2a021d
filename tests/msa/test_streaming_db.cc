/**
 * @file
 * Streaming compressed database tests: the AFBC-backed
 * StreamingSequenceDatabase must present exactly the targets that
 * SequenceDatabase::load parses from the same FASTA bytes, a
 * streaming scan must produce the in-RAM scan's hit set
 * bit-identically, and decode residency must stay budget-bound.
 */

#include <gtest/gtest.h>

#include "bio/seqgen.hh"
#include "msa/dbgen.hh"
#include "msa/search.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace afsb::msa {
namespace {

using bio::MoleculeType;
using bio::Sequence;

struct StreamingDbFixture : public ::testing::Test
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
        comp = compressDatabase(vfs, "prot.fasta", "prot.afbc");
    }

    io::PageCache &
    cache()
    {
        if (!cache_)
            cache_ = std::make_unique<io::PageCache>(1 * GiB, &dev);
        return *cache_;
    }

    StreamingSequenceDatabase
    openStreaming(uint64_t budget =
                      StreamingSequenceDatabase::kDefaultDecodeBudget)
    {
        return StreamingSequenceDatabase::open(
            vfs, cache(), "prot.afbc", MoleculeType::Protein, 0.0,
            budget);
    }

    std::unique_ptr<bio::SequenceGenerator> gen;
    Sequence query;
    io::Vfs vfs;
    io::StorageDevice dev;
    std::unique_ptr<io::PageCache> cache_;
    SequenceDatabase db;
    io::BlockFileStats comp;
};

TEST_F(StreamingDbFixture, CompressionShrinksTheCollection)
{
    EXPECT_EQ(comp.rawBytes, vfs.size(*vfs.open("prot.fasta")));
    EXPECT_LT(comp.compressedBytes, comp.rawBytes);
    EXPECT_GT(comp.ratio(), 1.0);
}

TEST_F(StreamingDbFixture, IndexMatchesInRamDatabase)
{
    const auto sdb = openStreaming();
    ASSERT_EQ(sdb.size(), db.size());
    EXPECT_EQ(sdb.totalResidues(), db.totalResidues());
    for (size_t i = 0; i < db.size(); ++i) {
        const auto &seq = db.sequences()[i];
        EXPECT_EQ(sdb.id(i), seq.id());
        EXPECT_EQ(sdb.length(i), seq.length());
        const auto a = sdb.byteExtent(i);
        const auto b = db.byteExtent(i);
        EXPECT_EQ(a.offset, b.offset);
        EXPECT_EQ(a.length, b.length);
    }
}

TEST_F(StreamingDbFixture, MaterializeDecodesIdenticalSequences)
{
    const auto sdb = openStreaming();
    for (size_t i = 0; i < db.size(); i += 17) {
        const auto seq = sdb.materialize(i, 0.0);
        const auto &want = db.sequences()[i];
        EXPECT_EQ(seq.id(), want.id());
        EXPECT_EQ(seq.codes(), want.codes());
    }
}

TEST_F(StreamingDbFixture, StreamingScanMatchesInRamScanExactly)
{
    const auto prof =
        ProfileHmm::fromSequence(query, ScoreMatrix::blosum62());
    SearchConfig cfg;
    const auto ram = searchDatabase(prof, db, cache(), nullptr, cfg);

    const auto sdb = openStreaming();
    const auto streamed = searchDatabaseStreaming(prof, sdb, cfg);

    EXPECT_EQ(streamed.stats.targetsScanned,
              ram.stats.targetsScanned);
    EXPECT_EQ(streamed.stats.residuesScanned,
              ram.stats.residuesScanned);
    EXPECT_EQ(streamed.stats.msvPassed, ram.stats.msvPassed);
    EXPECT_EQ(streamed.stats.viterbiPassed, ram.stats.viterbiPassed);
    EXPECT_EQ(streamed.stats.hits, ram.stats.hits);
    EXPECT_EQ(streamed.stats.cellsMsv, ram.stats.cellsMsv);
    EXPECT_EQ(streamed.stats.cellsViterbi, ram.stats.cellsViterbi);
    EXPECT_EQ(streamed.stats.cellsForward, ram.stats.cellsForward);
    EXPECT_EQ(streamed.msvSurvivors, ram.msvSurvivors);
    ASSERT_EQ(streamed.hits.size(), ram.hits.size());
    for (size_t i = 0; i < ram.hits.size(); ++i) {
        EXPECT_EQ(streamed.hits[i].targetIndex,
                  ram.hits[i].targetIndex);
        EXPECT_EQ(streamed.hits[i].viterbiScore,
                  ram.hits[i].viterbiScore);
        EXPECT_DOUBLE_EQ(streamed.hits[i].forwardLogOdds,
                         ram.hits[i].forwardLogOdds);
    }
}

TEST_F(StreamingDbFixture, ResidencyStaysWithinDecodeBudget)
{
    const uint64_t budget = 128 * KiB;
    const auto sdb = openStreaming(budget);
    const auto prof =
        ProfileHmm::fromSequence(query, ScoreMatrix::blosum62());
    (void)searchDatabaseStreaming(prof, sdb, {});
    // Decode state may momentarily overshoot by one block before
    // eviction; the compressed-side reader window rides on top.
    EXPECT_LE(sdb.blockStats().peakResidentBytes,
              budget + io::kBlockFileBlockSize +
                  io::BufferedReader::kBufferSize);
    // The whole-database view adds only the per-target index on top
    // of the decode state (never the decoded collection).
    const uint64_t indexPart =
        sdb.peakResidentBytes() - sdb.blockStats().peakResidentBytes;
    EXPECT_GT(indexPart, 0u);
    EXPECT_LT(indexPart, comp.rawBytes);
    EXPECT_GT(sdb.blockStats().blocksDecoded, 0u);
    EXPECT_GT(sdb.readerStats().bytesFromDisk, 0u);
}

TEST_F(StreamingDbFixture, MissingFilesAreFatal)
{
    EXPECT_THROW(
        compressDatabase(vfs, "absent.fasta", "absent.afbc"),
        FatalError);
    EXPECT_THROW(StreamingSequenceDatabase::open(
                     vfs, cache(), "absent.afbc",
                     MoleculeType::Protein, 0.0),
                 FatalError);
    // A FASTA file is not an AFBC container.
    EXPECT_THROW(StreamingSequenceDatabase::open(
                     vfs, cache(), "prot.fasta",
                     MoleculeType::Protein, 0.0),
                 FatalError);
}

} // namespace
} // namespace afsb::msa
