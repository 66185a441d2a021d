/**
 * @file
 * Per-thread cache-hierarchy simulator (the MemTraceSink consumer).
 *
 * One instance models one hardware thread: private L1D and L2, a
 * slice of the shared LLC, and a private dTLB. Multi-threaded runs
 * give each worker its own instance with the LLC slice sized
 * sharedLLC / activeThreads — the effective-capacity model of LLC
 * contention that reproduces the paper's Table III trends (AMD's
 * big LLC saturating as threads grow; Intel's small LLC already
 * saturated at one thread).
 *
 * Counters are kept per FuncId, enabling the Table IV function-level
 * breakdowns.
 */

#ifndef AFSB_CACHESIM_HIERARCHY_HH
#define AFSB_CACHESIM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "cachesim/cache.hh"
#include "util/memtrace.hh"

namespace afsb::cachesim {

/** Counter block kept per profiled function (and in aggregate). */
struct FuncCounters
{
    uint64_t instructions = 0;
    uint64_t accesses = 0;
    uint64_t l1Misses = 0;
    uint64_t l2Misses = 0;
    uint64_t llcMisses = 0;
    uint64_t tlbMisses = 0;
    uint64_t branches = 0;
    uint64_t branchMisses = 0;

    void merge(const FuncCounters &o);

    double
    l1MissRate() const
    {
        return accesses ? static_cast<double>(l1Misses) / accesses
                        : 0.0;
    }

    /** LLC local miss rate: misses / LLC lookups. */
    double
    llcMissRate() const
    {
        return l2Misses ? static_cast<double>(llcMisses) / l2Misses
                        : 0.0;
    }

    double
    tlbMissRate() const
    {
        return accesses ? static_cast<double>(tlbMisses) / accesses
                        : 0.0;
    }

    double
    branchMissRate() const
    {
        return branches
                   ? static_cast<double>(branchMisses) / branches
                   : 0.0;
    }
};

/** Configuration derived from a platform + run shape. */
struct HierarchyConfig
{
    sys::CpuSpec cpu;

    /** Worker threads concurrently active (LLC slice divisor). */
    uint32_t activeThreads = 1;

    /**
     * Trace sampling stride agreed with the producer: miss counters
     * are scaled by this weight when reporting.
     */
    uint32_t sampleWeight = 1;

    /** Enable the next-line prefetcher on L2 and LLC. */
    bool prefetch = true;
};

/** The LLC share one thread's simulator models: the effective LLC
 *  capacity divided among @p active_threads, and never less than one
 *  line per way. */
sys::CacheGeometry llcSliceGeometry(const sys::CpuSpec &cpu,
                                    uint32_t active_threads);

/** One hardware thread's view of the memory hierarchy. */
class HierarchySim : public MemTraceSink
{
  public:
    explicit HierarchySim(const HierarchyConfig &cfg);

    // MemTraceSink interface.
    void access(const MemAccess &a) override { record(a); }
    void accesses(const MemAccess *a, size_t n) override;
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
    FuncCounters &
    slot(FuncId func)
    {
        if (func >= perFunc_.size())
            perFunc_.resize(func + size_t{1});
        return perFunc_[func];
    }

    /** One reference down the hierarchy: dTLB, then L1, L2 and the
     *  LLC slice until one hits. */
    void
    record(const MemAccess &a)
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

    HierarchyConfig cfg_;
    Cache l1_;
    Cache l2_;
    Cache llcSlice_;
    Tlb tlb_;

    /// Raw (unscaled) counters; sample-weight scaling applies at
    /// report time.
    std::vector<FuncCounters> perFunc_;
};

} // namespace afsb::cachesim

#endif // AFSB_CACHESIM_HIERARCHY_HH
