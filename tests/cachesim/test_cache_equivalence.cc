/**
 * @file
 * Counter-for-counter equivalence of the cache simulator and its
 * array-of-lines oracle (cache_reference.hh).
 *
 * The library keeps cache state as parallel tag/tick/flag arrays with
 * shift addressing, a branch-free probe and a batch entry point; the
 * oracle is the simulator as it was before. For the same reference
 * stream every structure's accesses, misses and prefetch hits, and
 * every FuncCounters field of the hierarchy, must be equal. That pins
 * the replacement rules the new layout has to keep: one tick per
 * access; the victim is the last empty way, otherwise the first way
 * with the smallest tick; prefilled lines all carry tick 0; and the
 * fills of one prefetch-training call share a tick.
 *
 * The sweep covers the geometries of the five platforms (the two
 * builtin machines and the three committed configs), 1, 2 and 4
 * active threads, the prefetcher and the chaining prefetcher each on
 * and off, and runs with and without the prefilled arena. Streams:
 * seeded random references over hot, warm, arena and wide regions;
 * interleaved strided streams (more than the four stream trackers,
 * strides up to +-17 lines, ascending and descending); and the
 * recorded stream of a traced 2PV7 jackhmmer scan. Each stream goes
 * to the hierarchy both one reference at a time and in batches.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "bio/samples.hh"
#include "cache_reference.hh"
#include "cachesim/hierarchy.hh"
#include "core/workspace.hh"
#include "msa/jackhmmer.hh"
#include "sys/platform_config.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace afsb::cachesim {
namespace {

/** The arena the MSA phase prefills (msa::KernelConfig defaults). */
constexpr uint64_t kArenaBase = 0x7f50'0000'0000ull;
constexpr uint64_t kArenaBytes = 13ull << 20;

std::vector<sys::PlatformSpec>
fivePlatforms()
{
    const std::string dir =
        std::string(AFSB_REPO_ROOT) + "/configs/platforms/";
    return {sys::serverPlatform(), sys::desktopPlatform(),
            sys::loadPlatformFile(dir + "riscv-cpu.json"),
            sys::loadPlatformFile(dir + "cxl-tiered.json"),
            sys::loadPlatformFile(dir + "small-vram.json")};
}

std::array<uint64_t, 3>
fields(const CacheStats &s)
{
    return {s.accesses, s.misses, s.prefetchHits};
}

std::array<uint64_t, 8>
fields(const FuncCounters &c)
{
    return {c.instructions, c.accesses, c.l1Misses, c.l2Misses,
            c.llcMisses,    c.tlbMisses, c.branches, c.branchMisses};
}

/** One sink call, in stream order. */
struct Event
{
    enum Kind : uint8_t { Access, Instructions, Branches };

    Kind kind = Access;
    MemAccess access;
    uint64_t a = 0;  ///< instruction count | predictable branches
    uint64_t b = 0;  ///< data-dependent branches
};

using Stream = std::vector<Event>;

/** Records every call a producer makes. */
class RecordingSink : public MemTraceSink
{
  public:
    Stream events;

    void access(const MemAccess &m) override
    {
        events.push_back({Event::Access, m, 0, 0});
    }

    void instructions(FuncId func, uint64_t count) override
    {
        MemAccess tag;
        tag.func = func;
        events.push_back({Event::Instructions, tag, count, 0});
    }

    void branches(FuncId func, uint64_t predictable,
                  uint64_t data_dependent) override
    {
        MemAccess tag;
        tag.func = func;
        events.push_back(
            {Event::Branches, tag, predictable, data_dependent});
    }
};

/**
 * Replay @p stream into @p sink: one access() per reference when
 * @p batch is 0, else runs of consecutive references in accesses()
 * calls of at most @p batch, flushed before every other event.
 */
void
replay(const Stream &stream, MemTraceSink &sink, size_t batch)
{
    std::vector<MemAccess> pending;
    auto flush = [&] {
        if (!pending.empty())
            sink.accesses(pending.data(), pending.size());
        pending.clear();
    };
    for (const Event &e : stream) {
        if (e.kind == Event::Access) {
            if (batch == 0) {
                sink.access(e.access);
                continue;
            }
            pending.push_back(e.access);
            if (pending.size() == batch)
                flush();
            continue;
        }
        flush();
        if (e.kind == Event::Instructions)
            sink.instructions(e.access.func, e.a);
        else
            sink.branches(e.access.func, e.a, e.b);
    }
    flush();
}

/** Random references: a hot set that lives in L1, a warm set sized
 *  for L2/LLC, the prefilled arena, and a wide region that misses
 *  everywhere, plus a few branch and instruction batches. */
Stream
randomStream(uint64_t seed, size_t n)
{
    Rng rng(seed);
    Stream s;
    s.reserve(n);
    const uint64_t regions[][2] = {
        {0x1000'0000ull, 16 * KiB},
        {0x2000'0000ull, 3 * MiB},
        {kArenaBase, kArenaBytes},
        {0x3000'0000'0000ull, 1ull << 40},
    };
    for (size_t i = 0; i < n; ++i) {
        const auto func = static_cast<FuncId>(rng.nextBounded(3));
        if (rng.nextBounded(64) == 0) {
            MemAccess tag;
            tag.func = func;
            s.push_back({rng.nextBool(0.5) ? Event::Instructions
                                          : Event::Branches,
                         tag, rng.nextBounded(100000),
                         rng.nextBounded(1000)});
            continue;
        }
        const auto &r = regions[rng.nextBounded(4)];
        MemAccess a;
        a.addr = r[0] + rng.nextBounded(r[1]);
        a.size = 8;
        a.write = rng.nextBool(0.3);
        a.func = func;
        s.push_back({Event::Access, a, 0, 0});
    }
    return s;
}

/** Seven interleaved strided streams (more than the four trackers),
 *  at strides from -17 to +17 lines, one jittered the way sampled
 *  traces are, with random noise references between them. */
Stream
stridedStream(uint64_t seed, size_t n)
{
    Rng rng(seed);
    struct Cursor
    {
        uint64_t addr;
        int64_t stride;  ///< in lines
    };
    Cursor cursors[] = {
        {0x4000'0000ull, 1},   {0x5000'0000ull, 2},
        {0x6000'0000ull, 17},  {0x7000'0000ull, -1},
        {0x8000'0000ull, -17}, {0x9000'0000ull, 16},
        {0xa000'0000ull, -7},
    };
    Stream s;
    s.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        MemAccess a;
        a.size = 64;
        a.func = 1;
        if (rng.nextBounded(16) == 0) {
            a.addr = 0xb000'0000ull + rng.nextBounded(64 * MiB);
        } else {
            Cursor &c = cursors[rng.nextBounded(7)];
            // Every fourth step of the +16 stream is one line short:
            // an irregular ascending stride.
            const int64_t jitter =
                c.stride == 16 && rng.nextBounded(4) == 0 ? -1 : 0;
            c.addr += static_cast<uint64_t>((c.stride + jitter) * 64);
            a.addr = c.addr + rng.nextBounded(64);
            a.write = c.stride < 0;
        }
        s.push_back({Event::Access, a, 0, 0});
    }
    return s;
}

/** The stream of 2PV7's traced jackhmmer scans (one iteration, trace
 *  stride 16, one worker), recorded once. */
const Stream &
recorded2pv7Stream()
{
    static const Stream stream = [] {
        RecordingSink rec;
        const auto sample = bio::makeSample("2PV7");
        const auto &ws = core::Workspace::shared();
        io::StorageDevice device(sys::desktopPlatform().storage);
        io::PageCache cache(1 * GiB, &device);
        msa::JackhmmerConfig cfg;
        cfg.iterations = 1;
        cfg.search.threads = 1;
        cfg.search.kernel.traceStride = 16;
        cfg.build.kernel.traceStride = 16;
        for (const auto &chain : sample.complex.chains())
            if (chain.type() == bio::MoleculeType::Protein)
                msa::runJackhmmer(chain, ws.proteinDb(), cache, nullptr,
                                  cfg, 0.0, {&rec});
        return std::move(rec.events);
    }();
    return stream;
}

/** Feed one structure and its oracle the references of @p stream,
 *  one at a time, after prefilling the arena when @p prefill. */
template <class Got, class Want>
void
checkStructure(Got &got, Want &want, const Stream &stream, bool prefill)
{
    if (prefill) {
        for (uint64_t off = 0; off < kArenaBytes; off += 64) {
            got.fill(kArenaBase + off, false);
            want.fill(kArenaBase + off, false);
        }
    }
    for (const Event &e : stream) {
        if (e.kind != Event::Access)
            continue;
        ASSERT_EQ(got.access(e.access.addr, e.access.write),
                  want.access(e.access.addr, e.access.write));
    }
    EXPECT_EQ(fields(got.stats()), fields(want.stats()));
}

/** The prefetcher settings worth sweeping: off, on, on and chaining
 *  (chaining alone never trains: only a prefetched line triggers it,
 *  and without the prefetcher nothing is prefetched). */
constexpr std::pair<bool, bool> kPrefetchModes[] = {
    {false, false}, {true, false}, {true, true}};

/** Run the hierarchy and its oracle on @p stream and compare every
 *  counter; the oracle takes one reference at a time, the library
 *  hierarchy each of that and batches of @p batch. */
void
checkHierarchy(const Stream &stream, const sys::CpuSpec &cpu,
               uint32_t threads, bool prefetch, bool prefill,
               size_t batch)
{
    HierarchyConfig cfg;
    cfg.cpu = cpu;
    cfg.activeThreads = threads;
    cfg.sampleWeight = 16;
    cfg.prefetch = prefetch;
    reference::HierarchySim want(cfg);
    if (prefill)
        want.prefillLlc(kArenaBase, kArenaBytes);
    replay(stream, want, 0);
    const auto wantFuncs = want.perFunction();
    ASSERT_GT(want.totals().accesses, 0u);

    for (size_t b : {size_t{0}, batch}) {
        SCOPED_TRACE(cpu.name + " threads=" + std::to_string(threads) +
                     " prefetch=" + std::to_string(prefetch) +
                     " chain=" + std::to_string(cpu.llcChainPrefetch) +
                     " prefill=" + std::to_string(prefill) +
                     " batch=" + std::to_string(b));
        HierarchySim got(cfg);
        if (prefill)
            got.prefillLlc(kArenaBase, kArenaBytes);
        replay(stream, got, b);
        const auto gotFuncs = got.perFunction();
        ASSERT_EQ(gotFuncs.size(), wantFuncs.size());
        for (size_t f = 0; f < gotFuncs.size(); ++f)
            EXPECT_EQ(fields(gotFuncs[f]), fields(wantFuncs[f]))
                << "func " << f;
        EXPECT_EQ(fields(got.totals()), fields(want.totals()));
    }
}

TEST(CacheEquivalence, StructuresMatchOnRandomAndStridedStreams)
{
    const Stream streams[] = {randomStream(1, 20000),
                              stridedStream(2, 20000)};
    for (const auto &p : fivePlatforms())
        for (const auto &[prefetch, chain] : kPrefetchModes)
            for (const Stream &stream : streams) {
                SCOPED_TRACE(p.name + " prefetch=" +
                             std::to_string(prefetch) + " chain=" +
                             std::to_string(chain));
                for (const auto &g : {p.cpu.l1d, p.cpu.l2}) {
                    Cache got(g, prefetch, chain);
                    reference::Cache want(g, prefetch, chain);
                    checkStructure(got, want, stream, false);
                }
                for (uint32_t threads : {1u, 2u, 4u})
                    for (bool prefill : {false, true}) {
                        SCOPED_TRACE("LLC slice threads=" +
                                     std::to_string(threads) +
                                     " prefill=" +
                                     std::to_string(prefill));
                        const auto g = llcSliceGeometry(p.cpu, threads);
                        Cache got(g, prefetch, chain);
                        reference::Cache want(g, prefetch, chain);
                        checkStructure(got, want, stream, prefill);
                    }
                Tlb got(p.cpu.dtlbEntries, p.cpu.tlbPageBytes);
                reference::Tlb want(p.cpu.dtlbEntries,
                                    p.cpu.tlbPageBytes);
                for (const Event &e : stream) {
                    if (e.kind == Event::Access) {
                        ASSERT_EQ(got.access(e.access.addr),
                                  want.access(e.access.addr));
                    }
                }
                EXPECT_EQ(fields(got.stats()), fields(want.stats()))
                    << "dTLB";
            }
}

TEST(CacheEquivalence, FewSetsPinTheTickTies)
{
    // With one, two or four sets, a demand line, the lines its
    // prefetch-training call fills, and the prefilled arena lines all
    // compete in the same sets, so the victim order depends on which
    // of them share a tick (and on the first-way tie-break): a fill
    // that took its own tick, or prefill lines with distinct ticks,
    // change the counters here.
    const Stream streams[] = {randomStream(5, 20000),
                              stridedStream(6, 20000)};
    const sys::CacheGeometry geometries[] = {
        {512, 8, 64, 1},   // one set of 8 ways
        {2048, 16, 64, 1}, // two sets of 16
        {1024, 4, 64, 1},  // four sets of 4
        {768, 12, 64, 1},  // one set of 12, padded to 16 slots
    };
    for (const auto &g : geometries)
        for (const auto &[prefetch, chain] : kPrefetchModes)
            for (bool prefill : {false, true})
                for (const Stream &stream : streams) {
                    SCOPED_TRACE("size " + std::to_string(g.size) +
                                 " ways " +
                                 std::to_string(g.associativity) +
                                 " prefetch=" +
                                 std::to_string(prefetch) + " chain=" +
                                 std::to_string(chain) + " prefill=" +
                                 std::to_string(prefill));
                    Cache got(g, prefetch, chain);
                    reference::Cache want(g, prefetch, chain);
                    checkStructure(got, want, stream, prefill);
                }
}

TEST(CacheEquivalence, HierarchyMatchesOnRandomAndStridedStreams)
{
    const Stream streams[] = {randomStream(3, 30000),
                              stridedStream(4, 30000)};
    for (auto p : fivePlatforms())
        for (const Stream &stream : streams) {
            // Every prefetcher mode, with and without the arena, on
            // one thread's LLC share ...
            for (const auto &[prefetch, chain] : kPrefetchModes)
                for (bool prefill : {false, true}) {
                    p.cpu.llcChainPrefetch = chain;
                    checkHierarchy(stream, p.cpu, 1, prefetch, prefill,
                                   97);
                }
            // ... and the smaller shares of 2 and 4 active threads.
            for (uint32_t threads : {2u, 4u}) {
                p.cpu.llcChainPrefetch = true;
                checkHierarchy(stream, p.cpu, threads, true, true, 256);
            }
        }
}

TEST(CacheEquivalence, HierarchyMatchesOnRecorded2pv7Scan)
{
    const Stream &stream = recorded2pv7Stream();
    ASSERT_GT(stream.size(), 100000u);
    for (const auto &p : fivePlatforms())
        checkHierarchy(stream, p.cpu, 1, true, true, 256);
    checkHierarchy(stream, sys::desktopPlatform().cpu, 4, true, false,
                   97);
    checkHierarchy(stream, sys::serverPlatform().cpu, 2, false, true,
                   97);
}

} // namespace
} // namespace afsb::cachesim
