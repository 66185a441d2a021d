/**
 * @file
 * Traced-path determinism regression tests.
 *
 * The traced (sink-attached) kernels are the stability contract for
 * the cache simulator: their reference streams, instruction/branch
 * counts, and arithmetic results must stay byte-identical across
 * refactors, or every simulated per-platform number in the paper
 * regeneration drifts. These tests hash the full trace stream
 * (FNV-1a over every access, instruction batch, and branch batch)
 * and compare against goldens captured from the cell-by-cell scalar
 * kernels that interleaved emission with the recurrence (kept as the
 * oracle in dp_reference.hh). The kernels compute their arithmetic
 * apart from the sampled-cell trace walk, and the walk must
 * reproduce that stream exactly.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "bio/seqgen.hh"
#include "dp_reference.hh"
#include "msa/dbgen.hh"
#include "msa/dp_kernels.hh"
#include "msa/search.hh"
#include "util/units.hh"

namespace afsb::msa {
namespace {

/** FNV-1a over the entire sink event stream. */
class HashSink : public MemTraceSink
{
  public:
    uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    uint64_t instr = 0, pred = 0, dataDep = 0;

    void mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void access(const MemAccess &a) override
    {
        mix(a.addr);
        mix((static_cast<uint64_t>(a.size) << 32) |
            (a.write ? 1 : 0));
        mix(a.func);
    }

    void instructions(FuncId func, uint64_t count) override
    {
        mix(0xAAA);
        mix(func);
        mix(count);
        instr += count;
    }

    void branches(FuncId func, uint64_t predictable,
                  uint64_t data_dependent) override
    {
        mix(0xBBB);
        mix(func);
        mix(predictable);
        mix(data_dependent);
        pred += predictable;
        dataDep += data_dependent;
    }
};

double
doubleFromBits(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

/** The shared fixture input: seed-42 protein query/target pair with
 *  sampled tracing and a paper-scale stream base. */
struct TracedCase
{
    bio::SequenceGenerator gen{42};
    bio::Sequence q =
        gen.random("q", bio::MoleculeType::Protein, 160);
    bio::Sequence t =
        gen.random("t", bio::MoleculeType::Protein, 230);
    ProfileHmm prof =
        ProfileHmm::fromSequence(q, ScoreMatrix::blosum62());
    KernelConfig cfg;

    TracedCase()
    {
        cfg.traceStride = 4;
        cfg.targetBase = 0x6000'0000'0000ull;
        // FuncIds are interned lazily into a process-global registry,
        // so their numeric values depend on which kernels ran first in
        // this process. Each gtest case runs in its own process under
        // ctest; pin the intern order the goldens were captured with.
        wellknown::calcBand9();
        wellknown::calcBand10();
    }
};

TEST(TracedDeterminism, CalcBand9GoldenTrace)
{
    TracedCase c;
    HashSink sink;
    const auto r = calcBand9(c.prof, c.t, c.cfg, &sink);
    EXPECT_EQ(r.score, 26);
    EXPECT_EQ(r.cells, 31004u);
    EXPECT_EQ(sink.h, 0xcde317c186b6069dull);
    EXPECT_EQ(sink.instr, 37204u);
    EXPECT_EQ(sink.pred, 3875u);
    EXPECT_EQ(sink.dataDep, 3875u);
}

TEST(TracedDeterminism, CalcBand10GoldenTrace)
{
    TracedCase c;
    HashSink sink;
    const auto r = calcBand10(c.prof, c.t, c.cfg, &sink);
    EXPECT_EQ(r.cells, 31004u);
    EXPECT_EQ(sink.h, 0x2277b14b612a89f7ull);
    EXPECT_EQ(sink.instr, 49606u);
    EXPECT_DOUBLE_EQ(r.logOdds,
                     doubleFromBits(0x4021d4e488a1fef0ull));
}

TEST(TracedDeterminism, RepeatRunsAreByteIdentical)
{
    // Same inputs, two runs: the hashes must agree exactly — the
    // trace may not depend on allocator layout or ASLR.
    TracedCase c;
    HashSink a, b;
    (void)calcBand9(c.prof, c.t, c.cfg, &a);
    (void)calcBand9(c.prof, c.t, c.cfg, &b);
    EXPECT_EQ(a.h, b.h);
    HashSink fa, fb;
    (void)calcBand10(c.prof, c.t, c.cfg, &fa);
    (void)calcBand10(c.prof, c.t, c.cfg, &fb);
    EXPECT_EQ(fa.h, fb.h);
}

TEST(TracedDeterminism, MsvGoldenAgainstScalarResult)
{
    // MSV shares calcBand9's FuncId. Two traced runs agree with each
    // other and with the scalar reference oracle, and the result and
    // stream match the values captured from the original scalar
    // kernel.
    TracedCase c;
    HashSink a, b;
    const auto r1 = msvFilter(c.prof, c.t, c.cfg, &a);
    const auto r2 = msvFilter(c.prof, c.t, c.cfg, &b);
    EXPECT_EQ(a.h, b.h);
    EXPECT_EQ(r1.score, r2.score);
    EXPECT_EQ(r1.score,
              reference::msvFilter(c.prof, c.t, c.cfg).score);
    EXPECT_EQ(r1.score, 26);
    EXPECT_EQ(r1.cells, 36800u);
    EXPECT_EQ(a.h, 0x9d6779e60021e7e7ull);
    EXPECT_EQ(a.instr, 22080u);
    EXPECT_EQ(a.pred, 4600u);
    EXPECT_EQ(a.dataDep, 2300u);
}

TEST(TracedDeterminism, TracedScanIgnoresOverlapKnobs)
{
    // A sink-attached database scan must take the scalar static
    // path regardless of the overlap configuration: the whole trace
    // stream (reader functions included) has to stay byte-identical
    // whether the staged pipeline is requested or not, with or
    // without priority hints. Golden pinned from the pre-overlap
    // scan path.
    wellknown::calcBand9();
    wellknown::calcBand10();

    bio::SequenceGenerator gen(42);
    const auto query =
        gen.random("q", bio::MoleculeType::Protein, 120);
    io::Vfs vfs;
    io::StorageDevice dev;
    io::PageCache cache(1 * GiB, &dev);
    DbGenConfig dcfg;
    dcfg.decoyCount = 40;
    dcfg.homologsPerQuery = 4;
    dcfg.fragmentsPerQuery = 2;
    const std::vector<const bio::Sequence *> queries = {&query};
    generateDatabase(vfs, "t.fasta", queries,
                     bio::MoleculeType::Protein, dcfg);
    const auto db = SequenceDatabase::load(
        vfs, cache, "t.fasta", bio::MoleculeType::Protein, 0.0);
    const auto prof =
        ProfileHmm::fromSequence(query, ScoreMatrix::blosum62());

    auto tracedHash = [&](bool overlap,
                          const std::vector<uint32_t> *prio) {
        SearchConfig cfg;
        cfg.threads = 1;
        cfg.overlap = overlap;
        cfg.priorityTargets = prio;
        cfg.kernel.traceStride = 4;
        HashSink sink;
        const std::vector<MemTraceSink *> sinks = {&sink};
        const auto r =
            searchDatabase(prof, db, cache, nullptr, cfg, 0.0, sinks);
        EXPECT_EQ(r.stats.stages.overlappedScans, 0u);
        return sink.h;
    };

    const uint64_t base = tracedHash(false, nullptr);
    EXPECT_EQ(base, tracedHash(true, nullptr));
    std::vector<uint32_t> prio = {5, 3, 1};
    EXPECT_EQ(base, tracedHash(true, &prio));
    EXPECT_EQ(base, 0xb68f18131503b870ull);
}

} // namespace
} // namespace afsb::msa
