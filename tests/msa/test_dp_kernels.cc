/**
 * @file
 * Unit and property tests for the alignment DP kernels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "bio/seqgen.hh"
#include "dp_reference.hh"
#include "msa/dp_kernels.hh"
#include "util/logging.hh"

namespace afsb::msa {
namespace {

using bio::MoleculeType;
using bio::Sequence;

ProfileHmm
profFor(const Sequence &q)
{
    return ProfileHmm::fromSequence(q, ScoreMatrix::blosum62());
}

/** Sink that only counts references (selects the traced path). */
class CountingTraceSink : public MemTraceSink
{
  public:
    uint64_t accesses = 0;

    void access(const MemAccess &) override { ++accesses; }
    void instructions(FuncId, uint64_t) override {}
    void branches(FuncId, uint64_t, uint64_t) override {}
};

TEST(MsvFilter, SelfHitScoresSumOfDiagonal)
{
    bio::SequenceGenerator gen(1);
    const auto q = gen.random("q", MoleculeType::Protein, 64);
    const auto prof = profFor(q);
    const auto r = msvFilter(prof, q);
    int diag = 0;
    for (size_t i = 0; i < q.length(); ++i)
        diag += prof.matchScore(i, q[i]);
    EXPECT_EQ(r.score, diag);
    EXPECT_EQ(r.cells, 64u * 64u);
}

TEST(MsvFilter, RandomTargetScoresLow)
{
    bio::SequenceGenerator gen(2);
    const auto q = gen.random("q", MoleculeType::Protein, 120);
    const auto t = gen.random("t", MoleculeType::Protein, 120);
    const auto prof = profFor(q);
    const int self = msvFilter(prof, q).score;
    const int random = msvFilter(prof, t).score;
    EXPECT_LT(random, self / 4);
}

TEST(MsvFilter, DetectsEmbeddedFragment)
{
    bio::SequenceGenerator gen(3);
    const auto q = gen.random("q", MoleculeType::Protein, 150);
    const auto frag = gen.embedFragment(q, "f", 60, 200);
    const auto prof = profFor(q);
    const int fragScore = msvFilter(prof, frag).score;
    const auto decoy = gen.random("d", MoleculeType::Protein, 200);
    const int decoyScore = msvFilter(prof, decoy).score;
    EXPECT_GT(fragScore, 2 * decoyScore);
}

TEST(CalcBand9, SelfAlignmentScoresAtLeastDiagonal)
{
    bio::SequenceGenerator gen(4);
    const auto q = gen.random("q", MoleculeType::Protein, 100);
    const auto prof = profFor(q);
    const auto r = calcBand9(prof, q);
    int diag = 0;
    for (size_t i = 0; i < q.length(); ++i)
        diag += prof.matchScore(i, q[i]);
    EXPECT_GE(r.score, diag);
    EXPECT_EQ(r.endTarget, q.length() - 1);
    EXPECT_EQ(r.endProfile, q.length() - 1);
}

TEST(CalcBand9, ToleratesIndelsWhereMsvCannot)
{
    // An indel breaks the ungapped diagonal but gapped Viterbi
    // recovers most of the score.
    bio::SequenceGenerator gen(5);
    const auto q = gen.random("q", MoleculeType::Protein, 120);
    bio::MutationParams params;
    params.substitutionRate = 0.0;
    params.insertionRate = 0.03;
    params.deletionRate = 0.03;
    const auto mut = gen.mutate(q, "m", params);
    const auto prof = profFor(q);
    const int msv = msvFilter(prof, mut).score;
    const int vit = calcBand9(prof, mut).score;
    EXPECT_GT(vit, msv);
}

TEST(CalcBand9, BandLimitsCells)
{
    bio::SequenceGenerator gen(6);
    const auto q = gen.random("q", MoleculeType::Protein, 200);
    const auto t = gen.random("t", MoleculeType::Protein, 200);
    const auto prof = profFor(q);
    KernelConfig narrow;
    narrow.band = 8;
    KernelConfig wide;
    wide.band = 100;
    const auto rNarrow = calcBand9(prof, t, narrow);
    const auto rWide = calcBand9(prof, t, wide);
    EXPECT_LT(rNarrow.cells, rWide.cells);
    EXPECT_LE(rNarrow.cells, 200u * 17u + 200u);
}

TEST(CalcBand10, HomologScoresAboveDecoy)
{
    bio::SequenceGenerator gen(7);
    const auto q = gen.random("q", MoleculeType::Protein, 100);
    bio::MutationParams params;
    params.substitutionRate = 0.10;
    const auto hom = gen.mutate(q, "h", params);
    const auto decoy = gen.random("d", MoleculeType::Protein, 100);
    const auto prof = profFor(q);
    const double fh = calcBand10(prof, hom).logOdds;
    const double fd = calcBand10(prof, decoy).logOdds;
    EXPECT_GT(fh, fd + 20.0);
}

TEST(CalcBand10, LongSelfAlignmentStaysFinite)
{
    // Rescaling must prevent overflow on long high-scoring targets.
    bio::SequenceGenerator gen(8);
    const auto q = gen.random("q", MoleculeType::Protein, 800);
    const auto prof = profFor(q);
    const auto r = calcBand10(prof, q);
    EXPECT_TRUE(std::isfinite(r.logOdds));
    EXPECT_GT(r.logOdds, 100.0);
}

TEST(AlignToProfile, IdentityMapsDiagonal)
{
    bio::SequenceGenerator gen(9);
    const auto q = gen.random("q", MoleculeType::Protein, 80);
    const auto prof = profFor(q);
    const auto aln = alignToProfile(prof, q);
    ASSERT_EQ(aln.profileToTarget.size(), q.length());
    for (size_t k = 0; k < q.length(); ++k)
        EXPECT_EQ(aln.profileToTarget[k], static_cast<int32_t>(k));
}

TEST(AlignToProfile, DeletionLeavesGap)
{
    // Target missing residues 30..39 of the query: those profile
    // positions stay unmapped.
    bio::SequenceGenerator gen(10);
    const auto q = gen.random("q", MoleculeType::Protein, 80);
    std::vector<uint8_t> codes;
    for (size_t i = 0; i < q.length(); ++i)
        if (i < 30 || i >= 40)
            codes.push_back(q[i]);
    const Sequence t("t", MoleculeType::Protein, std::move(codes));
    const auto prof = profFor(q);
    const auto aln = alignToProfile(prof, t);
    size_t gaps3039 = 0;
    for (size_t k = 30; k < 40; ++k)
        gaps3039 += aln.profileToTarget[k] < 0;
    EXPECT_GE(gaps3039, 8u);
    // Mapped indices are strictly increasing.
    int32_t prev = -1;
    for (int32_t v : aln.profileToTarget) {
        if (v < 0)
            continue;
        EXPECT_GT(v, prev);
        prev = v;
    }
}

TEST(AlignToProfile, NoHitOnEmptyTarget)
{
    bio::SequenceGenerator gen(11);
    const auto q = gen.random("q", MoleculeType::Protein, 50);
    const Sequence t("t", MoleculeType::Protein, "");
    const auto aln = alignToProfile(profFor(q), t);
    EXPECT_EQ(aln.score, 0);
    for (int32_t v : aln.profileToTarget)
        EXPECT_EQ(v, -1);
}

/** Property sweep: Viterbi dominates MSV on mutated homologs. */
class KernelDominance
    : public ::testing::TestWithParam<double>
{};

TEST_P(KernelDominance, ViterbiAtLeastUngapped)
{
    bio::SequenceGenerator gen(
        static_cast<uint64_t>(GetParam() * 1000) + 17);
    const auto q = gen.random("q", MoleculeType::Protein, 150);
    bio::MutationParams params;
    params.substitutionRate = GetParam();
    params.insertionRate = 0.02;
    params.deletionRate = 0.02;
    const auto t = gen.mutate(q, "t", params);
    const auto prof = profFor(q);
    KernelConfig cfg;
    cfg.band = 64;
    EXPECT_GE(calcBand9(prof, t, cfg).score,
              msvFilter(prof, t, cfg).score);
}

INSTANTIATE_TEST_SUITE_P(MutationSweep, KernelDominance,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2, 0.3,
                                           0.4));

// --- striped / scalar reference equivalence -----------------------------
//
// The untraced kernels are a separate striped implementation; these
// sweeps pin them to the scalar reference oracle (dp_reference.hh)
// over odd lengths, non-lane-multiple lengths, band widths from
// degenerate to unbanded, and both alphabets.

constexpr size_t kProfileLens[] = {1, 7, 15, 16, 17, 33, 128, 250};
constexpr size_t kTargetLens[] = {1, 5, 31, 400};
constexpr size_t kBands[] = {1, 3, 16, 96, 10000};

TEST(KernelEquivalence, MsvBitIdenticalToScalar)
{
    bio::SequenceGenerator gen(100);
    for (size_t m : kProfileLens) {
        const auto q = gen.random("q", MoleculeType::Protein, m);
        const auto prof = profFor(q);
        for (size_t l : kTargetLens) {
            const auto t =
                gen.random("t", MoleculeType::Protein, l);
            const auto fast = msvFilter(prof, t);
            const auto ref = reference::msvFilter(prof, t);
            EXPECT_EQ(fast.score, ref.score)
                << "M=" << m << " L=" << l;
            EXPECT_EQ(fast.cells, ref.cells);
        }
    }
}

TEST(KernelEquivalence, Band9BitIdenticalToScalar)
{
    bio::SequenceGenerator gen(101);
    for (size_t m : kProfileLens) {
        const auto q = gen.random("q", MoleculeType::Protein, m);
        const auto prof = profFor(q);
        for (size_t l : kTargetLens) {
            const auto t =
                gen.random("t", MoleculeType::Protein, l);
            for (size_t band : kBands) {
                KernelConfig cfg;
                cfg.band = band;
                const auto fast = calcBand9(prof, t, cfg);
                const auto ref = reference::calcBand9(prof, t, cfg);
                EXPECT_EQ(fast.score, ref.score)
                    << "M=" << m << " L=" << l << " band=" << band;
                EXPECT_EQ(fast.endTarget, ref.endTarget);
                EXPECT_EQ(fast.endProfile, ref.endProfile);
                EXPECT_EQ(fast.cells, ref.cells);
            }
        }
    }
}

TEST(KernelEquivalence, Band9HomologEndpointsMatch)
{
    // High-scoring targets exercise the best-cell tracking; a random
    // decoy mostly keeps score 0.
    bio::SequenceGenerator gen(102);
    const auto q = gen.random("q", MoleculeType::Protein, 150);
    const auto prof = profFor(q);
    bio::MutationParams params;
    params.substitutionRate = 0.1;
    params.insertionRate = 0.02;
    params.deletionRate = 0.02;
    const auto hom = gen.mutate(q, "h", params);
    const auto frag = gen.embedFragment(q, "f", 60, 200);
    for (const auto *t : {&hom, &frag}) {
        for (size_t band : kBands) {
            KernelConfig cfg;
            cfg.band = band;
            const auto fast = calcBand9(prof, *t, cfg);
            const auto ref = reference::calcBand9(prof, *t, cfg);
            EXPECT_EQ(fast.score, ref.score) << "band=" << band;
            EXPECT_EQ(fast.endTarget, ref.endTarget);
            EXPECT_EQ(fast.endProfile, ref.endProfile);
        }
    }
}

TEST(KernelEquivalence, Band10MatchesScalarWithinTolerance)
{
    bio::SequenceGenerator gen(103);
    for (size_t m : kProfileLens) {
        const auto q = gen.random("q", MoleculeType::Protein, m);
        const auto prof = profFor(q);
        for (size_t l : kTargetLens) {
            const auto t =
                gen.random("t", MoleculeType::Protein, l);
            for (size_t band : kBands) {
                KernelConfig cfg;
                cfg.band = band;
                const auto fast = calcBand10(prof, t, cfg);
                const auto ref = reference::calcBand10(prof, t, cfg);
                EXPECT_EQ(fast.cells, ref.cells);
                const double tol =
                    1e-4 * std::max(1.0, std::abs(ref.logOdds));
                EXPECT_NEAR(fast.logOdds, ref.logOdds, tol)
                    << "M=" << m << " L=" << l << " band=" << band;
            }
        }
    }
}

TEST(KernelEquivalence, Band10RescalingPathMatches)
{
    // A long self-alignment drives the per-row rescaling branch.
    bio::SequenceGenerator gen(104);
    const auto q = gen.random("q", MoleculeType::Protein, 800);
    const auto prof = profFor(q);
    const auto fast = calcBand10(prof, q);
    const auto ref = reference::calcBand10(prof, q);
    EXPECT_TRUE(std::isfinite(fast.logOdds));
    EXPECT_NEAR(fast.logOdds, ref.logOdds,
                1e-4 * std::abs(ref.logOdds));
}

TEST(KernelEquivalence, NucleotideAlphabetMatches)
{
    bio::SequenceGenerator gen(105);
    const auto q = gen.random("q", MoleculeType::Rna, 90);
    const auto prof =
        ProfileHmm::fromSequence(q, ScoreMatrix::nucleotide());
    bio::MutationParams params;
    params.substitutionRate = 0.15;
    const auto t = gen.mutate(q, "t", params);
    EXPECT_EQ(msvFilter(prof, t).score,
              reference::msvFilter(prof, t).score);
    const auto fastV = calcBand9(prof, t);
    const auto refV = reference::calcBand9(prof, t);
    EXPECT_EQ(fastV.score, refV.score);
    EXPECT_EQ(fastV.endTarget, refV.endTarget);
    EXPECT_EQ(fastV.endProfile, refV.endProfile);
    const auto fastF = calcBand10(prof, t);
    const auto refF = reference::calcBand10(prof, t);
    EXPECT_NEAR(fastF.logOdds, refF.logOdds,
                1e-4 * std::max(1.0, std::abs(refF.logOdds)));
}

TEST(KernelEquivalence, TracedPathMatchesReference)
{
    // Results with a sink attached equal the scalar reference
    // exactly, Forward log-odds bits included.
    bio::SequenceGenerator gen(106);
    const auto q = gen.random("q", MoleculeType::Protein, 120);
    const auto t = gen.random("t", MoleculeType::Protein, 200);
    const auto prof = profFor(q);
    CountingTraceSink sink;
    KernelConfig cfg;
    EXPECT_EQ(calcBand9(prof, t, cfg, &sink).score,
              reference::calcBand9(prof, t, cfg).score);
    EXPECT_EQ(calcBand10(prof, t, cfg, &sink).logOdds,
              reference::calcBand10(prof, t, cfg).logOdds);
    EXPECT_GT(sink.accesses, 0u);
}

/** Message of the FatalError @p fn throws, or "" when it returns. */
template <typename Fn>
std::string
fatalMessage(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(KernelConfigValidation, ZeroTraceStrideWithSinkIsFatal)
{
    // A zero stride would divide by zero in the block test and never
    // advance the sampled-cell walk; every traced kernel rejects it
    // by name, before touching the sink.
    bio::SequenceGenerator gen(107);
    const auto q = gen.random("q", MoleculeType::Protein, 40);
    const auto t = gen.random("t", MoleculeType::Protein, 50);
    const auto prof = profFor(q);
    KernelConfig cfg;
    cfg.traceStride = 0;
    CountingTraceSink sink;
    EXPECT_NE(fatalMessage([&] { msvFilter(prof, t, cfg, &sink); })
                  .find("traceStride"),
              std::string::npos);
    EXPECT_NE(fatalMessage([&] { calcBand9(prof, t, cfg, &sink); })
                  .find("traceStride"),
              std::string::npos);
    EXPECT_NE(fatalMessage([&] { calcBand10(prof, t, cfg, &sink); })
                  .find("traceStride"),
              std::string::npos);
    EXPECT_EQ(sink.accesses, 0u);

    // Untraced calls never sample, so the stride is irrelevant.
    EXPECT_EQ(msvFilter(prof, t, cfg).score,
              reference::msvFilter(prof, t).score);
    EXPECT_EQ(calcBand9(prof, t, cfg).score,
              reference::calcBand9(prof, t).score);
}

} // namespace
} // namespace afsb::msa
