#include "cachesim/hierarchy.hh"

#include <algorithm>

#include "util/logging.hh"

namespace afsb::cachesim {

void
FuncCounters::merge(const FuncCounters &o)
{
    instructions += o.instructions;
    accesses += o.accesses;
    l1Misses += o.l1Misses;
    l2Misses += o.l2Misses;
    llcMisses += o.llcMisses;
    tlbMisses += o.tlbMisses;
    branches += o.branches;
    branchMisses += o.branchMisses;
}

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

HierarchySim::HierarchySim(const HierarchyConfig &cfg)
    : cfg_(cfg),
      l1_(cfg.cpu.l1d, false),
      l2_(cfg.cpu.l2, cfg.prefetch),
      llcSlice_(llcSliceGeometry(cfg.cpu, cfg.activeThreads),
                cfg.prefetch,
                cfg.prefetch && cfg.cpu.llcChainPrefetch),
      tlb_(cfg.cpu.dtlbEntries, cfg.cpu.tlbPageBytes)
{}

void
HierarchySim::accesses(const MemAccess *a, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        record(a[i]);
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

} // namespace afsb::cachesim
