/**
 * @file
 * Hardware platform descriptions (paper Table I).
 *
 * Two reference systems:
 *  - Server:  Intel Xeon Gold 5416S (16C/32T, 2.0/4.0 GHz, 30 MB
 *             shared LLC, DDR5-4400, 512 GiB, optional 256 GiB CXL)
 *             + NVIDIA H100 80 GB.
 *  - Desktop: AMD Ryzen 9 7900X (12C/24T, 4.7/5.6 GHz, 64 MB shared
 *             LLC, DDR5-6000, 64 GiB) + NVIDIA RTX 4080 16 GB.
 *
 * The microarchitectural parameters (base IPC envelope, TLB reach,
 * latencies, mispredict penalties) are calibration constants chosen
 * so the trace-driven simulator reproduces the counter shapes in the
 * paper's Table III; they are documented per field.
 */

#ifndef AFSB_SYS_PLATFORM_HH
#define AFSB_SYS_PLATFORM_HH

#include <compare>
#include <cstdint>
#include <string>

#include "io/storage.hh"

namespace afsb::sys {

/** One cache level's geometry. */
struct CacheGeometry
{
    uint64_t size = 0;       ///< bytes
    uint32_t associativity = 8;
    uint32_t lineSize = 64;
    double latencyCycles = 4;
};

/** CPU microarchitecture + chip-level parameters. */
struct CpuSpec
{
    std::string name;
    std::string vendor;      ///< "intel" / "amd"
    uint32_t cores = 1;
    uint32_t threads = 2;    ///< hardware threads (SMT)
    double baseClockGhz = 2.0;
    double maxClockGhz = 4.0;
    double allCoreClockGhz = 3.0;  ///< sustained all-core boost

    CacheGeometry l1d;
    CacheGeometry l2;
    CacheGeometry llc;       ///< shared across cores

    /** dTLB reach in entries (first + second level, effective). */
    uint32_t dtlbEntries = 1536;
    double dtlbMissPenaltyCycles = 30;

    /**
     * Effective page size the dTLB covers. Intel's THP-friendly
     * allocator + large STLB behave like 2 MiB pages on this
     * workload (the paper measures ~0.01% dTLB misses); AMD's
     * effective reach corresponds to fragmented 4 KiB pages.
     */
    uint64_t tlbPageBytes = 4096;

    /** Running stream prefetcher at the LLC (AMD's large-LLC
     *  behaviour; Intel's 30 MB LLC cannot hold the prefetch-ahead
     *  window under this workload's pressure). */
    bool llcChainPrefetch = false;

    /**
     * Fraction of the nominal LLC capacity effectively available to
     * one thread's data. Intel's non-inclusive victim LLC plus code
     * and uncore sharing leave well under the headline 30 MB; AMD's
     * CCD caches behave close to nominal.
     */
    double llcEffectiveFactor = 1.0;

    /** Peak sustainable IPC on integer-heavy DP code. */
    double baseIpc = 3.5;

    /**
     * Peak vector FLOPs retired per core per cycle (fp32 FMA lanes
     * x 2 ops), the compute ceiling for the CPU-side operator
     * roofline used by cachesim cost attribution. AVX-512 with dual
     * FMA pipes sustains 64; a double-pumped 256-bit datapath or a
     * single 512-bit RVV engine sustains 32.
     */
    double vectorFlopsPerCycle = 32.0;

    /** Branch mispredict flush penalty. */
    double mispredictPenaltyCycles = 15;

    /**
     * Mispredict rate on data-dependent branches. Calibrated so
     * Table III's branch-miss column lands near the published
     * 0.2% (Intel, deeper predictor) vs 0.9% (AMD) overall rates on
     * the MSA mix.
     */
    double dataBranchMissRate = 0.05;

    /** DRAM access latency (cycles at max clock) and bandwidth. */
    double memLatencyCycles = 300;
    double memBandwidth = 2.0e11;  ///< bytes/s

    /**
     * DRAM traffic per demand LLC miss, as a multiple of the line
     * size: prefetch fills plus dirty writebacks roughly triple the
     * demand-miss byte count on streaming workloads.
     */
    double trafficAmplification = 3.0;

    /** Memory-level parallelism: overlapping outstanding misses. */
    double mlp = 3.0;

    /** Overlap factor for on-chip cache-hit latency (out-of-order
     *  cores hide most L2/LLC hit latency). */
    double mlpCacheHits = 12.0;
};

/** GPU device parameters for the roofline executor. */
struct GpuSpec
{
    std::string name;
    double peakFlops = 1e14;        ///< sustained bf16/fp16 FLOP/s
    double memBandwidth = 1e12;     ///< bytes/s
    uint64_t vramBytes = 16ull << 30;
    double kernelLaunchUs = 6.0;    ///< per-kernel dispatch cost
    double unifiedMemPenalty = 6.0; ///< slowdown when spilling VRAM

    /** Field-wise order: the whole spec keys memoized roofline
     *  replays (gpusim::XlaCache::replay). */
    auto operator<=>(const GpuSpec &) const = default;
};

/** Host memory configuration. */
struct MemorySpec
{
    uint64_t dramBytes = 64ull << 30;
    uint64_t cxlBytes = 0;          ///< optional expander capacity
    double cxlLatencyFactor = 2.5;  ///< CXL vs DRAM latency ratio
};

/** A complete platform (Table I column). */
struct PlatformSpec
{
    std::string name;
    CpuSpec cpu;
    GpuSpec gpu;
    MemorySpec memory;
    io::StorageSpec storage;

    /** Total memory including any CXL expansion. */
    uint64_t
    totalMemoryBytes() const
    {
        return memory.dramBytes + memory.cxlBytes;
    }

    /** Sustained clock when @p active_threads cores are busy. */
    double effectiveClockGhz(uint32_t active_threads) const;
};

/** The paper's Server platform (Xeon 5416S + H100). */
PlatformSpec serverPlatform();

/** Server with the 256 GiB CXL expander attached (Fig 2 runs). */
PlatformSpec serverPlatformWithCxl();

/** The paper's Desktop platform (Ryzen 7900X + RTX 4080). */
PlatformSpec desktopPlatform();

/** Desktop after the 128 GiB upgrade used for 6QNR (Section III-B). */
PlatformSpec desktopPlatformUpgraded();

} // namespace afsb::sys

#endif // AFSB_SYS_PLATFORM_HH
