#include "cache_reference.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace afsb::cachesim::reference {

namespace {

uint64_t
floorPow2(uint64_t v)
{
    return v ? std::bit_floor(v) : 1;
}

} // namespace

Cache::Cache(const sys::CacheGeometry &geometry, bool prefetch,
             bool chain_prefetch)
    : lineSize_(geometry.lineSize), prefetch_(prefetch),
      chainPrefetch_(chain_prefetch)
{
    panicIf(geometry.size == 0, "Cache: zero size");
    ways_ = std::max<uint32_t>(1, geometry.associativity);
    const uint64_t totalLines =
        std::max<uint64_t>(ways_, geometry.size / lineSize_);
    sets_ = floorPow2(std::max<uint64_t>(1, totalLines / ways_));
    lines_.assign(sets_ * ways_, {});
}

bool
Cache::access(uint64_t addr, bool write)
{
    (void)write;  // write-allocate, write-back: same fill behaviour
    ++stats_.accesses;
    ++tick_;

    const uint64_t line = lineOf(addr);
    const uint64_t set = line & (sets_ - 1);
    Line *base = &lines_[set * ways_];

    for (uint32_t w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].tag == line) {
            base[w].lastUse = tick_;
            if (base[w].prefetched) {
                ++stats_.prefetchHits;
                base[w].prefetched = false;
                // Keep the stream moving across prefetch hits; a
                // chaining prefetcher keeps running ahead.
                if (chainPrefetch_)
                    trainPrefetcher(line);
            }
            return true;
        }
    }

    ++stats_.misses;
    fill(addr, false);
    if (prefetch_)
        trainPrefetcher(line);
    return false;
}

void
Cache::trainPrefetcher(uint64_t line)
{
    // Multi-stream stride prefetcher: each tracker follows one
    // stream; a reference matching a tracker's predicted next
    // element (or near its cursor) advances it and prefetches one
    // element ahead. Strides up to 16 lines are recognized, so
    // sampled traces still look like streams.
    constexpr int64_t kMaxStride = 16;
    StreamTracker *victim = &trackers_[0];
    for (auto &t : trackers_) {
        if (t.lastLine == ~0ull) {
            victim = &t;
            continue;
        }
        const int64_t stride = static_cast<int64_t>(line) -
                               static_cast<int64_t>(t.lastLine);
        if (stride != 0 && stride <= kMaxStride &&
            stride >= -kMaxStride) {
            // Monotone ascending stream (sampled traces have
            // slightly irregular strides): fetch the sequential
            // region ahead, like hardware readahead does.
            if (stride > 0 && t.stride > 0) {
                const int64_t ahead = 2 * stride;
                for (int64_t k = 1; k <= ahead; ++k)
                    fill((line + static_cast<uint64_t>(k)) *
                             lineSize_,
                         true);
            } else if (stride == t.stride) {
                // Exact descending stream: one element ahead.
                fill((line + static_cast<uint64_t>(stride)) *
                         lineSize_,
                     true);
            }
            t.stride = stride;
            t.lastLine = line;
            t.lastUse = tick_;
            return;
        }
        if (t.lastUse < victim->lastUse)
            victim = &t;
    }
    *victim = {line, 0, tick_};
}

void
Cache::fill(uint64_t addr, bool prefetched)
{
    const uint64_t line = lineOf(addr);
    const uint64_t set = line & (sets_ - 1);
    Line *base = &lines_[set * ways_];

    // Already resident?
    for (uint32_t w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].tag == line)
            return;
    }
    // Evict LRU.
    uint32_t victim = 0;
    for (uint32_t w = 1; w < ways_; ++w)
        if (!base[w].valid ||
            base[w].lastUse < base[victim].lastUse)
            victim = w;
    base[victim] = {line, tick_, true, prefetched};
}

void
Cache::reset()
{
    std::fill(lines_.begin(), lines_.end(), Line{});
    stats_ = {};
    tick_ = 0;
    for (auto &t : trackers_)
        t = StreamTracker{};
}

namespace {

sys::CacheGeometry
tlbGeometry(uint32_t entries, uint64_t page_bytes)
{
    panicIf(entries == 0, "Tlb: zero entries");
    panicIf(page_bytes == 0 || page_bytes > (1ull << 31),
            "Tlb: bad page size");
    sys::CacheGeometry g;
    g.lineSize = static_cast<uint32_t>(page_bytes);
    g.associativity = std::min<uint32_t>(8, entries);
    g.size = static_cast<uint64_t>(entries) * page_bytes;
    return g;
}

} // namespace

Tlb::Tlb(uint32_t entries, uint64_t page_bytes)
    : tlb_(tlbGeometry(entries, page_bytes))
{}

bool
Tlb::access(uint64_t addr)
{
    return tlb_.access(addr, false);
}

void
Tlb::reset()
{
    tlb_.reset();
}

namespace {

sys::CacheGeometry
llcSliceGeometry(const sys::CpuSpec &cpu, uint32_t active_threads)
{
    sys::CacheGeometry g = cpu.llc;
    const uint32_t t = std::max<uint32_t>(1, active_threads);
    const auto effective = static_cast<uint64_t>(
        static_cast<double>(g.size) * cpu.llcEffectiveFactor);
    g.size = std::max<uint64_t>(g.lineSize * g.associativity,
                                effective / t);
    return g;
}

} // namespace

HierarchySim::HierarchySim(const HierarchyConfig &cfg)
    : cfg_(cfg),
      l1_(cfg.cpu.l1d, false),
      l2_(cfg.cpu.l2, cfg.prefetch),
      llcSlice_(llcSliceGeometry(cfg.cpu, cfg.activeThreads),
                cfg.prefetch,
                cfg.prefetch && cfg.cpu.llcChainPrefetch),
      tlb_(cfg.cpu.dtlbEntries, cfg.cpu.tlbPageBytes)
{}

FuncCounters &
HierarchySim::slot(FuncId func)
{
    if (func >= perFunc_.size())
        perFunc_.resize(func + size_t{1});
    return perFunc_[func];
}

void
HierarchySim::access(const MemAccess &a)
{
    FuncCounters &c = slot(a.func);
    ++c.accesses;
    if (!tlb_.access(a.addr))
        ++c.tlbMisses;
    if (l1_.access(a.addr, a.write))
        return;
    ++c.l1Misses;
    if (l2_.access(a.addr, a.write))
        return;
    ++c.l2Misses;
    if (llcSlice_.access(a.addr, a.write))
        return;
    ++c.llcMisses;
}

void
HierarchySim::instructions(FuncId func, uint64_t count)
{
    slot(func).instructions += count;
}

void
HierarchySim::branches(FuncId func, uint64_t predictable,
                       uint64_t data_dependent)
{
    FuncCounters &c = slot(func);
    c.branches += predictable + data_dependent;
    // Predictable branches mispredict at a token 0.1%;
    // data-dependent ones at the platform's calibrated rate.
    c.branchMisses +=
        static_cast<uint64_t>(0.001 * predictable) +
        static_cast<uint64_t>(cfg_.cpu.dataBranchMissRate *
                              static_cast<double>(data_dependent));
}

FuncCounters
HierarchySim::totals() const
{
    FuncCounters out;
    for (const auto &f : perFunction())
        out.merge(f);
    return out;
}

std::vector<FuncCounters>
HierarchySim::perFunction() const
{
    std::vector<FuncCounters> out = perFunc_;
    const uint64_t w = cfg_.sampleWeight;
    if (w > 1) {
        for (auto &c : out) {
            // Memory-side counters were sampled 1-in-w; scale them
            // back. Instruction and branch counts arrive unsampled.
            c.accesses *= w;
            c.l1Misses *= w;
            c.l2Misses *= w;
            c.llcMisses *= w;
            c.tlbMisses *= w;
        }
    }
    return out;
}

void
HierarchySim::prefillLlc(uint64_t base, uint64_t bytes)
{
    for (uint64_t off = 0; off < bytes; off += 64)
        llcSlice_.fill(base + off, false);
}

FuncCounters
HierarchySim::mergedTotals(
    const std::vector<std::unique_ptr<HierarchySim>> &sims)
{
    FuncCounters out;
    for (const auto &sim : sims)
        out.merge(sim->totals());
    return out;
}

} // namespace afsb::cachesim::reference
