/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from the seed
 * in setup(), then runs ops one at a time from the driving thread (a
 * closed loop with one client). An op returns the digest of its
 * outputs. In the traced run the driver also calls attribute() inside
 * the op's span, which replays the op's inputs through inner layers'
 * public entry points to split its time by layer.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "measure.hh"
#include "spans.hh"

namespace perfbench {

/** Per-layer metric values by name. */
using LayerMetrics = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate every input from @p seed (spans only when traced). */
    virtual void setup(uint64_t seed, SpanRecorder &rec) = 0;

    /** Ops in one pass, in run order. */
    virtual size_t opCount() const = 0;

    /** Stable name of op @p i, the key of its reference digest. */
    virtual std::string opLabel(size_t i) const = 0;

    /** Run op @p i and digest its outputs. */
    virtual uint64_t run(size_t i, SpanRecorder &rec) = 0;

    /** Ops the traced run covers, a fixed subset of the pass. */
    virtual std::vector<size_t> tracedOps() const = 0;

    /** Replay op @p i layer by layer (traced run only). */
    virtual void attribute(size_t i, SpanRecorder &rec) = 0;

    /** Per-layer metrics from the traced run's spans and counters. */
    virtual LayerMetrics layerMetrics(const SpanRecorder &rec,
                                      size_t ops) const = 0;

    /** One line: what one op is. */
    virtual std::string opSize() const = 0;

    /**
     * Wall seconds of one pass on the reference host (4-vCPU VM,
     * Release build). A run of --seconds S makes round(S / this)
     * passes, at least one, whatever the speed of the commit.
     */
    virtual double nominalPassSeconds() const = 0;

    /** Host threads the workload uses at most (set-up and traced
     *  run included); timed ops run on one. */
    virtual unsigned threads() const = 0;
};

/**
 * Runs ops one at a time and counts failures: an op fails when it
 * throws (an unexpected OOM included) or its digest differs from the
 * reference in @p book.
 */
class OpRunner
{
  public:
    OpRunner(Workload &wl, DigestBook &book) : wl_(wl), book_(book) {}

    /**
     * Run op @p i inside an "op" span and return its wall seconds.
     * With @p attribute the layer replay runs after it, inside the
     * same span but outside the returned time.
     */
    double run(size_t i, SpanRecorder &rec, bool attribute);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    Workload &wl_;
    DigestBook &book_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** The workload named @p name, or null. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       unsigned nproc);

std::unique_ptr<Workload> makePaperFigures();
std::unique_ptr<Workload> makeNativeFold(unsigned nproc);
std::unique_ptr<Workload> makeServeSim(unsigned nproc);

/** Fisher-Yates permutation of 0..n-1 from @p seed. */
std::vector<size_t> permutation(size_t n, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
