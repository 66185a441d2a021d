/**
 * @file
 * Measurement helpers shared by every perfbench workload: the op
 * statistics (median and tail rule), the output digest and the
 * reference book that turns a changed digest into a failed op, and
 * the host fingerprint and drift probe recorded with each result.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** Seconds on the monotonic host clock. */
double now();

/** Median of @p values (mean of the middle two for an even count). */
double median(std::vector<double> values);

/**
 * The tail statistic: the highest percentile that still has at least
 * ten ops beyond it. With n ops sorted ascending that is the value at
 * index n - 11, the nearest-rank percentile 100 * (n - 10) / n. With
 * ten or fewer ops no percentile qualifies, and the maximum is used
 * with percentile 100.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    size_t ops = 0;
};

Tail tailOf(std::vector<double> values);

/** FNV-1a 64-bit digest over an op's outputs. */
class Digest
{
  public:
    void bytes(const void *data, size_t n);
    void text(std::string_view s);
    void u64(uint64_t v);

    /** Exact decimal text of @p v (`%.17g`). */
    void real(double v);

    /** Raw bits of @p n floats. */
    void floats(const float *data, size_t n);

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(uint64_t v);

/**
 * Reference digests per op label. An op fails when its digest differs
 * from the reference: the committed digest for the default seed, or
 * else the op's first digest in this run.
 */
class DigestBook
{
  public:
    /** Parse "label hex" reference lines; '#' starts a comment. */
    void load(std::istream &in);

    /** Record @p digest for @p label; false when it mismatches. */
    bool check(const std::string &label, uint64_t digest);

    /** Every op's first digest, in label order. */
    const std::map<std::string, uint64_t> &seen() const
    {
        return seen_;
    }

    size_t referenceCount() const { return reference_.size(); }

  private:
    std::map<std::string, uint64_t> reference_;
    std::map<std::string, uint64_t> seen_;
};

/** Process user + system CPU seconds so far. */
double cpuSeconds();

/** Peak resident set of the process in MiB. */
double peakRssMib();

/** Seconds for a fixed scalar calibration loop (drift probe). */
double calibrationSeconds();

/** CPUs this process may run on (what `nproc` prints). */
unsigned usableCpus();

/** Host and build description printed with every result. */
struct Fingerprint
{
    unsigned nproc = 1;
    std::string cpuModel;
    std::string compiler;
    std::string flags;
    std::string buildType;
};

Fingerprint hostFingerprint();

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
