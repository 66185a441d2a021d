/**
 * @file
 * Event-for-event equivalence of the traced kernels and the scalar
 * reference oracle.
 *
 * The library kernels compute their scores with the striped loops
 * and emit the trace from a separate walk over the sampled cells;
 * the oracle (dp_reference.hh) is the original loop that interleaves
 * both. A recording sink captures every access, instruction batch,
 * and branch batch from each, and the two lists must be equal, along
 * with the results (score, endpoints, cells, Forward log-odds bits).
 * The sweep covers odd and lane-multiple profile lengths, band
 * widths from degenerate to unbanded, every sampling stride shape,
 * both stream-base modes, and both alphabets; a long case crosses
 * the arena capacity-reference boundary (kArenaCells * traceStride).
 *
 * AlignEquivalence holds the rolling-row alignToProfile to the
 * full-matrix oracle over the same profile/target length grid, both
 * alphabets, one-residue profiles and targets, and targets with tied
 * best cells.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bio/seqgen.hh"
#include "dp_reference.hh"
#include "msa/dp_kernels.hh"

namespace afsb::msa {
namespace {

using bio::MoleculeType;

/** One sink call, flattened. */
struct Event
{
    enum Kind : uint8_t { Access, Instructions, Branches };

    Kind kind = Access;
    FuncId func = 0;
    uint64_t a = 0;  ///< addr | instruction count | predictable
    uint64_t b = 0;  ///< size | - | data-dependent
    bool write = false;

    bool operator==(const Event &) const = default;
};

/** Records the full sink event list in call order. */
class RecordingSink : public MemTraceSink
{
  public:
    std::vector<Event> events;

    void access(const MemAccess &m) override
    {
        events.push_back({Event::Access, m.func, m.addr, m.size,
                          m.write});
    }

    void instructions(FuncId func, uint64_t count) override
    {
        events.push_back({Event::Instructions, func, count, 0, false});
    }

    void branches(FuncId func, uint64_t predictable,
                  uint64_t data_dependent) override
    {
        events.push_back({Event::Branches, func, predictable,
                          data_dependent, false});
    }
};

uint64_t
bitsOf(double d)
{
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/** The two recorded streams are equal; on failure, name the first
 *  differing event. */
void
expectSameStream(const RecordingSink &got, const RecordingSink &want)
{
    ASSERT_EQ(got.events.size(), want.events.size());
    const auto diff = std::mismatch(got.events.begin(), got.events.end(),
                                    want.events.begin());
    EXPECT_TRUE(diff.first == got.events.end())
        << "first differing event at index "
        << (diff.first - got.events.begin());
}

/** Run one kernel configuration both ways and compare everything. */
void
checkCase(const ProfileHmm &prof, const bio::Sequence &t,
          const KernelConfig &cfg, bool banded)
{
    SCOPED_TRACE("M=" + std::to_string(prof.length()) +
                 " L=" + std::to_string(t.length()) +
                 " band=" + std::to_string(cfg.band) +
                 " stride=" + std::to_string(cfg.traceStride) +
                 " base=" + std::to_string(cfg.targetBase));
    if (!banded) {
        RecordingSink got, want;
        const auto r = msvFilter(prof, t, cfg, &got);
        const auto ref = reference::msvFilter(prof, t, cfg, &want);
        EXPECT_EQ(r.score, ref.score);
        EXPECT_EQ(r.cells, ref.cells);
        expectSameStream(got, want);
        return;
    }
    {
        RecordingSink got, want;
        const auto r = calcBand9(prof, t, cfg, &got);
        const auto ref = reference::calcBand9(prof, t, cfg, &want);
        EXPECT_EQ(r.score, ref.score);
        EXPECT_EQ(r.endTarget, ref.endTarget);
        EXPECT_EQ(r.endProfile, ref.endProfile);
        EXPECT_EQ(r.cells, ref.cells);
        expectSameStream(got, want);
    }
    {
        RecordingSink got, want;
        const auto r = calcBand10(prof, t, cfg, &got);
        const auto ref = reference::calcBand10(prof, t, cfg, &want);
        EXPECT_EQ(bitsOf(r.logOdds), bitsOf(ref.logOdds));
        EXPECT_EQ(r.cells, ref.cells);
        expectSameStream(got, want);
    }
}

constexpr size_t kProfileLens[] = {1, 7, 15, 16, 17, 33, 128, 250};
constexpr size_t kTargetLens[] = {1, 5, 31, 400};
constexpr size_t kBands[] = {1, 3, 16, 96, 10000};
constexpr uint32_t kStrides[] = {1, 3, 16};
constexpr uint64_t kTargetBases[] = {0, 0x6000'0000'0000ull};

ProfileHmm
profileOf(const bio::Sequence &q)
{
    return ProfileHmm::fromSequence(
        q, q.type() == MoleculeType::Protein
               ? ScoreMatrix::blosum62()
               : ScoreMatrix::nucleotide());
}

/** Sweep every (M, L, stride, base) — and band, for the banded
 *  kernels — over one alphabet. */
void
sweep(MoleculeType type, uint64_t seed, bool banded)
{
    bio::SequenceGenerator gen(seed);
    std::vector<bio::Sequence> targets;
    for (size_t l : kTargetLens)
        targets.push_back(gen.random("t", type, l));
    for (size_t m : kProfileLens) {
        const auto prof = profileOf(gen.random("q", type, m));
        for (const auto &t : targets)
            for (uint32_t stride : kStrides)
                for (uint64_t base : kTargetBases) {
                    KernelConfig cfg;
                    cfg.traceStride = stride;
                    cfg.targetBase = base;
                    if (!banded) {
                        checkCase(prof, t, cfg, false);
                        continue;
                    }
                    for (size_t band : kBands) {
                        cfg.band = band;
                        checkCase(prof, t, cfg, true);
                    }
                }
    }
}

TEST(TracedStreamEquivalence, MsvProteinSweep)
{
    sweep(MoleculeType::Protein, 300, false);
}

TEST(TracedStreamEquivalence, MsvNucleotideSweep)
{
    sweep(MoleculeType::Rna, 301, false);
}

TEST(TracedStreamEquivalence, BandedProteinSweep)
{
    sweep(MoleculeType::Protein, 302, true);
}

TEST(TracedStreamEquivalence, BandedNucleotideSweep)
{
    sweep(MoleculeType::Rna, 303, true);
}

TEST(TracedStreamEquivalence, CrossesArenaCapacityBoundary)
{
    // 600 x 1000 = 600k cells: past kArenaCells * 16 = 524288 for the
    // unbanded shapes, and several boundaries at stride 3. The target
    // embeds the whole query, so the unbanded Forward crosses its
    // rescaling threshold and Viterbi keeps moving its best cell.
    bio::SequenceGenerator gen(304);
    const auto q = gen.random("q", MoleculeType::Protein, 600);
    const auto t = gen.embedFragment(q, "t", 600, 1000);
    const auto prof = profileOf(q);
    ASSERT_GT(prof.length() * t.length(), kArenaCells * 16);
    for (uint32_t stride : {3u, 16u})
        for (uint64_t base : kTargetBases) {
            KernelConfig cfg;
            cfg.traceStride = stride;
            cfg.targetBase = base;
            checkCase(prof, t, cfg, false);
            for (size_t band : {size_t{96}, size_t{10000}}) {
                cfg.band = band;
                checkCase(prof, t, cfg, true);
            }
        }
}

/** The rolling-row aligner against the full-matrix oracle: score,
 *  cells and the whole profile-to-target map. */
void
checkAlignment(const ProfileHmm &prof, const bio::Sequence &t)
{
    SCOPED_TRACE("M=" + std::to_string(prof.length()) +
                 " L=" + std::to_string(t.length()) + " t=" +
                 t.toString());
    const auto r = alignToProfile(prof, t);
    const auto ref = reference::alignToProfile(prof, t);
    EXPECT_EQ(r.score, ref.score);
    EXPECT_EQ(r.cells, ref.cells);
    EXPECT_EQ(r.profileToTarget, ref.profileToTarget);
}

/** Over the M x L grid of the traced sweeps: a random target per
 *  (M, L), plus gapped homologs of each query, whose tracebacks run
 *  through insert and delete states (and their open/extend ties). */
void
alignSweep(MoleculeType type, uint64_t seed)
{
    bio::SequenceGenerator gen(seed);
    bio::MutationParams gapped;
    gapped.substitutionRate = 0.05;
    gapped.insertionRate = 0.1;
    gapped.deletionRate = 0.1;
    for (size_t m : kProfileLens) {
        const auto q = gen.random("q", type, m);
        const auto prof = profileOf(q);
        for (int h = 0; h < 12; ++h)
            checkAlignment(prof, gen.mutate(q, "h", gapped));
        for (size_t l : kTargetLens)
            checkAlignment(prof, gen.random("t", type, l));
    }
}

TEST(AlignEquivalence, ProteinGrid)
{
    alignSweep(MoleculeType::Protein, 310);
}

TEST(AlignEquivalence, NucleotideGrid)
{
    alignSweep(MoleculeType::Rna, 311);
}

TEST(AlignEquivalence, SingleResidueProfileOrTarget)
{
    // M = 1 or L = 1 with a matching residue, so the best cell is
    // positive and the traceback runs on a one-column or one-row
    // matrix.
    for (auto type : {MoleculeType::Protein, MoleculeType::Dna}) {
        const std::string one = type == MoleculeType::Protein ? "W" : "G";
        const std::string many =
            type == MoleculeType::Protein ? "AWCWDW" : "ACGTGGA";
        const bio::Sequence a("a", type, one), b("b", type, many);
        checkAlignment(profileOf(a), b);
        checkAlignment(profileOf(b), a);
        checkAlignment(profileOf(a), a);
    }
}

TEST(AlignEquivalence, TiedBestCellsTakeTheFirst)
{
    // Targets with several cells at the best score: the query twice
    // over (two equal end cells in different rows), the query twice
    // inside one profile row's reach, and homopolymers, where a whole
    // diagonal band ties.
    bio::SequenceGenerator gen(312);
    for (auto type : {MoleculeType::Protein, MoleculeType::Rna}) {
        const auto q = gen.random("q", type, 24);
        const auto prof = profileOf(q);
        const std::string text = q.toString();
        const bio::Sequence doubled("t", type, text + text);
        checkAlignment(prof, doubled);
        // Both copies align at the full self score; the first copy's
        // end cell comes first in row-major order.
        const auto first = alignToProfile(prof, doubled);
        for (size_t k = 0; k < q.length(); ++k)
            EXPECT_EQ(first.profileToTarget[k], static_cast<int32_t>(k));
        checkAlignment(prof,
                       bio::Sequence("t", type, text + "A" + text));
        const auto twice = profileOf(bio::Sequence("q", type, text + text));
        checkAlignment(twice, q);
        const std::string poly(30, type == MoleculeType::Protein ? 'Q'
                                                                 : 'A');
        const auto polyProf =
            profileOf(bio::Sequence("p", type, poly.substr(0, 12)));
        checkAlignment(polyProf, bio::Sequence("t", type, poly));
        checkAlignment(profileOf(bio::Sequence("p", type, poly)),
                       bio::Sequence("t", type, poly.substr(0, 7)));
    }
}

} // namespace
} // namespace afsb::msa
