/**
 * @file
 * Tests that the synthesized sample suite matches the paper's
 * Table II characteristics.
 */

#include <gtest/gtest.h>

#include "bio/complexity.hh"
#include "bio/samples.hh"
#include "util/logging.hh"

namespace afsb::bio {
namespace {

struct TableIIRow
{
    const char *name;
    size_t proteinChains;
    size_t dnaChains;
    size_t rnaChains;
    size_t totalResidues;
};

// gtest's default printer dumps the row's bytes, including the address
// in `name`, which moves with every load; the dump ends up in the test
// names that ctest discovers. Print the sample name instead.
void
PrintTo(const TableIIRow &row, std::ostream *os)
{
    *os << row.name;
}

class SamplesTableII : public ::testing::TestWithParam<TableIIRow>
{};

TEST_P(SamplesTableII, MatchesPublishedCharacteristics)
{
    const auto &row = GetParam();
    const auto sample = makeSample(row.name);
    const auto &c = sample.complex;
    EXPECT_EQ(c.chainCount(MoleculeType::Protein), row.proteinChains);
    EXPECT_EQ(c.chainCount(MoleculeType::Dna), row.dnaChains);
    EXPECT_EQ(c.chainCount(MoleculeType::Rna), row.rnaChains);
    EXPECT_EQ(c.totalResidues(), row.totalResidues);
}

INSTANTIATE_TEST_SUITE_P(
    TableII, SamplesTableII,
    ::testing::Values(TableIIRow{"2PV7", 2, 0, 0, 484},
                      TableIIRow{"7RCE", 1, 2, 0, 306},
                      TableIIRow{"1YY9", 3, 0, 0, 881},
                      TableIIRow{"promo", 3, 2, 0, 857},
                      TableIIRow{"6QNR", 9, 0, 1, 1395}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(Samples, Deterministic)
{
    const auto a = makeSample("promo");
    const auto b = makeSample("promo");
    ASSERT_EQ(a.complex.chainCount(), b.complex.chainCount());
    for (size_t i = 0; i < a.complex.chainCount(); ++i)
        EXPECT_EQ(a.complex.chains()[i], b.complex.chains()[i]);
}

TEST(Samples, 2pv7IsSymmetricHomodimer)
{
    const auto s = makeSample("2PV7");
    ASSERT_EQ(s.complex.chainCount(), 2u);
    EXPECT_EQ(s.complex.chains()[0].toString(),
              s.complex.chains()[1].toString());
    EXPECT_NE(s.complex.chains()[0].id(), s.complex.chains()[1].id());
}

TEST(Samples, PromoChainAHasPolyQ)
{
    const auto s = makeSample("promo");
    const auto prof = analyzeComplexity(s.complex.chains()[0]);
    EXPECT_GE(prof.longestRun, 64u);
    EXPECT_EQ(decodeResidue(MoleculeType::Protein, prof.runResidue),
              'Q');
}

TEST(Samples, MakeAllReturnsTableIIOrder)
{
    const auto all = makeAllSamples();
    ASSERT_EQ(all.size(), 5u);
    EXPECT_EQ(all[0].info.name, "2PV7");
    EXPECT_EQ(all[4].info.name, "6QNR");
    EXPECT_THROW(makeSample("XXXX"), FatalError);
}

TEST(Samples, RibosomalRnaPrefixesNest)
{
    const auto shortRna = makeRibosomalRna(621);
    const auto longRna = makeRibosomalRna(935);
    EXPECT_EQ(shortRna.length(), 621u);
    EXPECT_EQ(longRna.length(), 935u);
    // Longer inputs strictly extend shorter ones.
    for (size_t i = 0; i < shortRna.length(); ++i)
        ASSERT_EQ(shortRna[i], longRna[i]);
    EXPECT_THROW(makeRibosomalRna(4096), FatalError);
}

TEST(Samples, ProteinProbeLengths)
{
    EXPECT_EQ(makeProteinProbe(1000).totalResidues(), 1000u);
    EXPECT_EQ(makeProteinProbe(2000).totalResidues(), 2000u);
}

} // namespace
} // namespace afsb::bio
