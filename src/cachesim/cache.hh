/**
 * @file
 * Set-associative cache and TLB models (trace-driven).
 *
 * Classic LRU set-associative structures operated on virtual
 * addresses. They are deliberately simple — the goal is reproducing
 * the paper's counter *shapes* (Table III), not timing-accurate
 * microarchitecture — but geometry, associativity, and replacement
 * are real, and a next-line prefetcher captures the streaming-
 * friendliness that lets the promo workload scale on Intel.
 *
 * State is kept as parallel arrays (struct of arrays): one tag per
 * way, with an empty-slot sentinel no line number can equal, one
 * last-use tick per way, and one prefetched flag per way. Line and
 * set indices come from shifts and masks, so the hit path is one
 * pass over a set's tags with no division and no branch per way;
 * misses take an out-of-line path. DESIGN.md ("Cache simulator")
 * states the replacement rules the layout keeps exactly.
 */

#ifndef AFSB_CACHESIM_CACHE_HH
#define AFSB_CACHESIM_CACHE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "sys/platform.hh"

namespace afsb::cachesim {

/** Hit/miss counters for one structure. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t prefetchHits = 0;  ///< hits on prefetched lines

    double
    missRate() const
    {
        return accesses
                   ? static_cast<double>(misses) /
                         static_cast<double>(accesses)
                   : 0.0;
    }

    void
    merge(const CacheStats &o)
    {
        accesses += o.accesses;
        misses += o.misses;
        prefetchHits += o.prefetchHits;
    }
};

/** LRU set-associative cache. */
class Cache
{
  public:
    /**
     * @param geometry Size/associativity/line size; the line size
     *        must be a power of two of at least 2 bytes.
     * @param prefetch Enable next-line prefetch on miss streams.
     * @param chain_prefetch When a prefetched line is hit, prefetch
     *        the next line too — a running stream prefetcher that
     *        keeps sequential scans entirely resident (the behaviour
     *        behind AMD's ~1% single-thread LLC miss rate on the
     *        streaming MSA workload).
     */
    explicit Cache(const sys::CacheGeometry &geometry,
                   bool prefetch = false,
                   bool chain_prefetch = false);

    /**
     * Access a byte address. @return true on hit.
     * Accesses spanning a line boundary count as one access to the
     * first line (producers emit per-line references).
     */
    bool
    access(uint64_t addr, bool write)
    {
        (void)write;  // write-allocate, write-back: same fill behaviour
        ++tick_;
        const uint64_t line = addr >> lineShift_;
        const size_t base = static_cast<size_t>(line & setMask_)
                            << slotShift_;
        const uint64_t *tag = tags_.data() + base;
        const size_t way = slotShift_ == 3   ? probe<8>(tag, line)
                           : slotShift_ == 4 ? probe<16>(tag, line)
                                             : probe(tag, line, slots());
        if (way == kNoWay)
            return miss(line);
        lastUse_[base + way] = tick_;
        // Only the prefetcher marks lines prefetched.
        if (prefetch_ && prefetched_[base + way])
            prefetchHit(base + way, line);
        return true;
    }

    /** Insert a line without counting an access (fill/prefetch). */
    void
    fill(uint64_t addr, bool prefetched)
    {
        insert(addr >> lineShift_, prefetched);
    }

    /** Invalidate everything. */
    void reset();

    CacheStats stats() const { return {tick_, misses_, prefetchHits_}; }
    uint64_t sets() const { return setMask_ + 1; }
    uint32_t ways() const { return ways_; }

  private:
    /** Tag of an empty way: line numbers are addr >> lineShift_ with
     *  lineShift_ >= 1, so none reaches 2^64 - 1. */
    static constexpr uint64_t kEmpty = ~0ull;

    static constexpr size_t kNoWay = ~size_t{0};

    /** Slot of @p line among the @p n at @p tag, or kNoWay. A line is
     *  resident in at most one way. */
    static size_t
    probe(const uint64_t *tag, uint64_t line, size_t n)
    {
        size_t way = kNoWay;
        for (size_t w = 0; w < n; ++w)
            way = tag[w] == line ? w : way;
        return way;
    }

    /** probe() over a fixed @p N slots, unrolled: the match mask is
     *  built with arithmetic only, so no comparison becomes a
     *  data-dependent branch. */
    template <uint32_t N>
    static size_t
    probe(const uint64_t *tag, uint64_t line)
    {
        static_assert(N <= 32);
        uint32_t match = 0;
#pragma GCC unroll 32
        for (uint32_t w = 0; w < N; ++w)
            match |= static_cast<uint32_t>(tag[w] == line) << w;
        return match ? static_cast<size_t>(std::countr_zero(match))
                     : kNoWay;
    }

    size_t slots() const { return size_t{1} << slotShift_; }

    /** Demand-miss path: count, fill, train the prefetcher. */
    bool miss(uint64_t line);

    /** Hit on a prefetched line: count it and, when chaining, keep
     *  the stream running. */
    void prefetchHit(size_t slot, uint64_t line);

    /** Place @p line unless it is resident (a prefetch fill). */
    void insert(uint64_t line, bool prefetched);

    /**
     * Place a line known not to be resident in the set at @p base,
     * over the victim: the last empty way, otherwise the first way
     * with the smallest tick. The new line carries the current tick.
     */
    void place(size_t base, uint64_t line, bool prefetched);

    /** Find/advance a tracker for @p line; prefetch when armed. */
    void trainPrefetcher(uint64_t line);

    uint32_t lineShift_;
    uint64_t setMask_;
    uint32_t ways_;
    /** Slots per set: ways_ rounded up to a power of two, so a set's
     *  first slot is set << slotShift_; padding slots stay empty. */
    uint32_t slotShift_;
    bool prefetch_;
    bool chainPrefetch_;
    /** One hardware stream tracker (real prefetchers keep several
     *  so interleaved streams do not clobber each other). */
    struct StreamTracker
    {
        uint64_t lastLine = ~0ull;
        int64_t stride = 0;
        uint64_t lastUse = 0;
    };

    static constexpr size_t kStreamTrackers = 4;

    /** Accesses so far: the LRU clock (one tick per access) and the
     *  access count. */
    uint64_t tick_ = 0;
    uint64_t misses_ = 0;
    uint64_t prefetchHits_ = 0;
    StreamTracker trackers_[kStreamTrackers];
    // sets x ways, set-major.
    std::vector<uint64_t> tags_;
    std::vector<uint64_t> lastUse_;
    std::vector<uint8_t> prefetched_;
};

/**
 * LRU set-associative TLB (8-way, like real L2 dTLBs; keeps lookups
 * O(ways) even for thousands of entries). Page size is
 * configurable: effective reach differs drastically between THP-
 * backed (2 MiB) and fragmented (4 KiB) mappings. Pages are a power
 * of two from 2 bytes to 2 GiB.
 */
class Tlb
{
  public:
    explicit Tlb(uint32_t entries, uint64_t page_bytes = 4096);

    /** Translate an address. @return true on TLB hit. */
    bool access(uint64_t addr) { return tlb_.access(addr, false); }

    void reset() { tlb_.reset(); }

    CacheStats stats() const { return tlb_.stats(); }

  private:
    Cache tlb_;
};

} // namespace afsb::cachesim

#endif // AFSB_CACHESIM_CACHE_HH
