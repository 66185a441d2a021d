#include "cachesim/cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace afsb::cachesim {

namespace {

uint64_t
floorPow2(uint64_t v)
{
    return v ? std::bit_floor(v) : 1;
}

} // namespace

Cache::Cache(const sys::CacheGeometry &geometry, bool prefetch,
             bool chain_prefetch)
    : prefetch_(prefetch), chainPrefetch_(chain_prefetch)
{
    panicIf(geometry.size == 0, "Cache: zero size");
    panicIf(geometry.lineSize < 2 ||
                !std::has_single_bit(geometry.lineSize),
            "Cache: line size is not a power of two >= 2");
    lineShift_ = static_cast<uint32_t>(
        std::countr_zero(geometry.lineSize));
    ways_ = std::max<uint32_t>(1, geometry.associativity);
    const uint64_t totalLines = std::max<uint64_t>(
        ways_, geometry.size >> lineShift_);
    setMask_ = floorPow2(std::max<uint64_t>(1, totalLines / ways_)) - 1;
    slotShift_ = static_cast<uint32_t>(
        std::countr_zero(std::bit_ceil(uint64_t{ways_})));
    const size_t total = static_cast<size_t>(setMask_ + 1) << slotShift_;
    tags_.assign(total, kEmpty);
    lastUse_.assign(total, 0);
    prefetched_.assign(total, 0);
}

bool
Cache::miss(uint64_t line)
{
    ++misses_;
    place(static_cast<size_t>(line & setMask_) << slotShift_, line,
          false);
    if (prefetch_)
        trainPrefetcher(line);
    return false;
}

void
Cache::prefetchHit(size_t slot, uint64_t line)
{
    ++prefetchHits_;
    prefetched_[slot] = 0;
    // Keep the stream moving across prefetch hits; a chaining
    // prefetcher keeps running ahead.
    if (chainPrefetch_)
        trainPrefetcher(line);
}

void
Cache::insert(uint64_t line, bool prefetched)
{
    const size_t base = static_cast<size_t>(line & setMask_)
                        << slotShift_;
    if (probe(tags_.data() + base, line, ways_) == kNoWay)
        place(base, line, prefetched);
}

void
Cache::place(size_t base, uint64_t line, bool prefetched)
{
    const uint64_t *tag = tags_.data() + base;
    const uint64_t *use = lastUse_.data() + base;
    uint32_t victim = 0;
    if (tag[0] == kEmpty) {
        // Every fill takes the last empty way, so the empty ways are
        // a prefix of the set: the victim is the way before the first
        // full one.
        while (victim + 1 < ways_ && tag[victim + 1] == kEmpty)
            ++victim;
    } else {
        // Full set: the first way with the smallest tick, found
        // without a data-dependent branch.
        uint64_t oldest = use[0];
        for (uint32_t w = 1; w < ways_; ++w) {
            const bool older = use[w] < oldest;
            victim = older ? w : victim;
            oldest = older ? use[w] : oldest;
        }
    }
    tags_[base + victim] = line;
    lastUse_[base + victim] = tick_;
    prefetched_[base + victim] = prefetched;
}

void
Cache::trainPrefetcher(uint64_t line)
{
    // Multi-stream stride prefetcher: each tracker follows one
    // stream; a reference matching a tracker's predicted next
    // element (or near its cursor) advances it and prefetches one
    // element ahead. Strides up to 16 lines are recognized, so
    // sampled traces still look like streams. Every fill of one
    // call carries the same tick. Prefetch targets wrap through the
    // byte address, as a hardware address adder would.
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
                    fill((line + static_cast<uint64_t>(k))
                             << lineShift_,
                         true);
            } else if (stride == t.stride) {
                // Exact descending stream: one element ahead.
                fill((line + static_cast<uint64_t>(stride))
                         << lineShift_,
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
Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), kEmpty);
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    std::fill(prefetched_.begin(), prefetched_.end(), 0);
    tick_ = 0;
    misses_ = 0;
    prefetchHits_ = 0;
    for (auto &t : trackers_)
        t = StreamTracker{};
}

namespace {

sys::CacheGeometry
tlbGeometry(uint32_t entries, uint64_t page_bytes)
{
    panicIf(entries == 0, "Tlb: zero entries");
    panicIf(page_bytes < 2 || page_bytes > (1ull << 31) ||
                !std::has_single_bit(page_bytes),
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

} // namespace afsb::cachesim
