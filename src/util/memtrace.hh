/**
 * @file
 * Memory-trace interface connecting workloads to the cache simulator.
 *
 * The paper derives its Table III/IV microarchitectural numbers from
 * perf counters on real CPUs. Here the instrumented workload kernels
 * (MSA dynamic programming, buffered I/O copies, tensor allocation)
 * emit their memory references and instruction counts through this
 * interface, and afsb::cachesim implements it to drive the per-
 * platform cache/TLB/branch models. A null sink keeps uninstrumented
 * runs at full speed.
 *
 * The interface lives in util so that producer modules (io, msa,
 * model) do not depend on the simulator.
 */

#ifndef AFSB_UTIL_MEMTRACE_HH
#define AFSB_UTIL_MEMTRACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace afsb {

/** Small integer handle naming a profiled function. */
using FuncId = uint16_t;

/** One memory reference. */
struct MemAccess
{
    uint64_t addr = 0;   ///< Virtual byte address.
    uint32_t size = 1;   ///< Access width in bytes.
    bool write = false;  ///< Store vs load.
    FuncId func = 0;     ///< Attributed function.
};

/** Consumer of the instrumented execution stream. */
class MemTraceSink
{
  public:
    virtual ~MemTraceSink() = default;

    /**
     * One memory reference, used for cache/TLB modeling only.
     * Producers may sample references (one in N cells); consumers
     * weight the resulting miss counts by the agreed stride.
     */
    virtual void access(const MemAccess &a) = 0;

    /**
     * @p n references in stream order: the same as calling access()
     * on each, which is what the default does. A consumer overrides
     * it to take a producer's batch in one call.
     */
    virtual void
    accesses(const MemAccess *a, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            access(a[i]);
    }

    /**
     * @p count total instructions attributed to @p func (inclusive
     * of memory instructions; reported unsampled).
     */
    virtual void instructions(FuncId func, uint64_t count) = 0;

    /**
     * Batched conditional-branch accounting.
     * @param predictable Branches following patterns real hardware
     *        predicts well (loop back-edges, monotone guards).
     * @param data_dependent Branches whose direction depends on the
     *        data being processed (alignment max-comparisons), which
     *        mispredict at a workload-specific rate.
     */
    virtual void branches(FuncId func, uint64_t predictable,
                          uint64_t data_dependent) = 0;
};

/**
 * Registry mapping function names to FuncIds.
 *
 * The ids index per-function counter arrays in the simulator; names
 * mirror the symbols the paper reports (calc_band_9, copy_to_iter,
 * addbuf, seebuf, ...).
 */
class FuncRegistry
{
  public:
    /** Intern @p name, returning a stable id. */
    FuncId intern(const std::string &name);

    /** Name for @p id; fatal() for unknown ids. */
    const std::string &name(FuncId id) const;

    /** Number of interned functions. */
    size_t size() const { return names_.size(); }

    /** Process-wide registry used by the built-in workloads. */
    static FuncRegistry &global();

  private:
    std::vector<std::string> names_;
};

/**
 * Well-known FuncIds for the hot symbols in the paper's Table IV/V.
 * Interned on first use via FuncRegistry::global().
 */
namespace wellknown {

FuncId calcBand9();
FuncId calcBand10();
FuncId addbuf();
FuncId seebuf();
FuncId copyToIter();
FuncId msvFilter();
FuncId fillInsert();   ///< std::vector::_M_fill_insert analog
FuncId byteSizeOf();   ///< xla::ShapeUtil::ByteSizeOf analog
FuncId other();

} // namespace wellknown

} // namespace afsb

#endif // AFSB_UTIL_MEMTRACE_HH
