/**
 * @file
 * Test-only reference for the cache simulator.
 *
 * The array-of-lines Cache, the Tlb that wraps it, and the
 * HierarchySim that feeds them, kept verbatim from before the
 * simulator moved to struct-of-arrays state and a batch entry
 * point. They are the oracle the library classes are checked
 * against: for the same reference stream every structure's
 * accesses, misses and prefetch hits, and every FuncCounters field,
 * must be equal (tests/cachesim/test_cache_equivalence.cc).
 *
 * The counter and configuration types (CacheStats, FuncCounters,
 * HierarchyConfig) are the library's, so results compare directly.
 */

#ifndef AFSB_TESTS_CACHESIM_CACHE_REFERENCE_HH
#define AFSB_TESTS_CACHESIM_CACHE_REFERENCE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cachesim/hierarchy.hh"

namespace afsb::cachesim::reference {

/** LRU set-associative cache. */
class Cache
{
  public:
    /**
     * @param geometry Size/associativity/line size.
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
    bool access(uint64_t addr, bool write);

    /** Insert a line without counting an access (fill/prefetch). */
    void fill(uint64_t addr, bool prefetched);

    /** Invalidate everything. */
    void reset();

    const CacheStats &stats() const { return stats_; }
    uint64_t sets() const { return sets_; }
    uint32_t ways() const { return ways_; }

  private:
    struct Line
    {
        uint64_t tag = ~0ull;
        uint64_t lastUse = 0;
        bool valid = false;
        bool prefetched = false;
    };

    uint64_t lineOf(uint64_t addr) const { return addr / lineSize_; }

    uint32_t lineSize_;
    uint64_t sets_;
    uint32_t ways_;
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

    /** Find/advance a tracker for @p line; prefetch when armed. */
    void trainPrefetcher(uint64_t line);

    static constexpr size_t kStreamTrackers = 4;

    uint64_t tick_ = 0;
    StreamTracker trackers_[kStreamTrackers];
    std::vector<Line> lines_;  ///< sets_ x ways_
    CacheStats stats_;
};

/**
 * LRU set-associative TLB (8-way, like real L2 dTLBs; keeps lookups
 * O(ways) even for thousands of entries). Page size is
 * configurable: effective reach differs drastically between THP-
 * backed (2 MiB) and fragmented (4 KiB) mappings.
 */
class Tlb
{
  public:
    explicit Tlb(uint32_t entries, uint64_t page_bytes = 4096);

    /** Translate an address. @return true on TLB hit. */
    bool access(uint64_t addr);

    void reset();

    const CacheStats &stats() const { return tlb_.stats(); }

  private:
    Cache tlb_;
};

/** One hardware thread's view of the memory hierarchy. */
class HierarchySim : public MemTraceSink
{
  public:
    explicit HierarchySim(const HierarchyConfig &cfg);

    // MemTraceSink interface.
    void access(const MemAccess &a) override;
    void instructions(FuncId func, uint64_t count) override;
    void branches(FuncId func, uint64_t predictable,
                  uint64_t data_dependent) override;

    /** Aggregate counters (sample-weight scaled). */
    FuncCounters totals() const;

    /** Per-function counters (sample-weight scaled). */
    std::vector<FuncCounters> perFunction() const;

    const HierarchyConfig &config() const { return cfg_; }

    /** Merge another thread's simulator into a combined view. */
    static FuncCounters mergedTotals(
        const std::vector<std::unique_ptr<HierarchySim>> &sims);

    /**
     * Pre-fill the LLC slice with the lines of [base, base+bytes)
     * without counting statistics. Models a working set that has
     * reached steady state before measurement (the sparse-rescue
     * arena exists long before any counter window opens).
     */
    void prefillLlc(uint64_t base, uint64_t bytes);

  private:
    FuncCounters &slot(FuncId func);

    HierarchyConfig cfg_;
    Cache l1_;
    Cache l2_;
    Cache llcSlice_;
    Tlb tlb_;

    /// Raw (unscaled) counters; sample-weight scaling applies at
    /// report time.
    std::vector<FuncCounters> perFunc_;
};

} // namespace afsb::cachesim::reference

#endif // AFSB_TESTS_CACHESIM_CACHE_REFERENCE_HH
