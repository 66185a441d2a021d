#include "measure.hh"

#include <sched.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace perfbench {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail
tailOf(std::vector<double> values)
{
    Tail t;
    t.ops = values.size();
    if (values.empty())
        return t;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    if (n <= 10) {
        t.value = values.back();
        t.percentile = 100.0;
        return t;
    }
    t.value = values[n - 11];
    t.percentile = 100.0 * static_cast<double>(n - 10) /
                   static_cast<double>(n);
    return t;
}

void
Digest::bytes(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::text(std::string_view s)
{
    bytes(s.data(), s.size());
    // A separator keeps "ab"+"c" and "a"+"bc" apart.
    bytes("\n", 1);
}

void
Digest::u64(uint64_t v)
{
    char buf[24];
    const int n = std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    text(std::string_view(buf, static_cast<size_t>(n)));
}

void
Digest::real(double v)
{
    char buf[40];
    const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    text(std::string_view(buf, static_cast<size_t>(n)));
}

void
Digest::floats(const float *data, size_t n)
{
    bytes(data, n * sizeof(float));
}

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

void
DigestBook::load(std::istream &in)
{
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto space = line.rfind(' ');
        if (space == std::string::npos)
            continue;
        reference_[line.substr(0, space)] =
            std::strtoull(line.c_str() + space + 1, nullptr, 16);
    }
}

bool
DigestBook::check(const std::string &label, uint64_t digest)
{
    seen_.emplace(label, digest);
    const auto ref = reference_.find(label);
    if (ref != reference_.end())
        return ref->second == digest;
    reference_.emplace(label, digest);
    return true;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
calibrationSeconds()
{
    // A dependent integer recurrence the compiler cannot fold or
    // vectorize: its time tracks the core's clock and contention.
    const double t0 = now();
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint32_t i = 0; i < 40'000'000u; ++i)
        x = x * 6364136223846793005ull + (x >> 29) + i;
    const double t = now() - t0;
    volatile uint64_t sink = x;
    (void)sink;
    return t;
}

unsigned
usableCpus()
{
    // The affinity mask, as `nproc` reports it: a container may see
    // more online CPUs than it is allowed to run on.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

namespace {

/** The processor brand string, read with CPUID (no file access). */
std::string
cpuBrand()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned leaf = 0; leaf < 3; ++leaf)
            __get_cpuid(0x80000002u + leaf, &regs[4 * leaf],
                        &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                        &regs[4 * leaf + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        if (first != std::string::npos)
            return s.substr(first);
    }
#endif
    return "unknown";
}

} // namespace

Fingerprint
hostFingerprint()
{
    Fingerprint f;
    f.nproc = usableCpus();
    f.cpuModel = cpuBrand();
    f.compiler = __VERSION__;
#ifdef PERFBENCH_FLAGS
    f.flags = PERFBENCH_FLAGS;
#endif
#ifdef PERFBENCH_BUILD_TYPE
    f.buildType = PERFBENCH_BUILD_TYPE;
#endif
    return f;
}

} // namespace perfbench
