#include "workloads.hh"

#include <cstdio>
#include <exception>

#include "util/rng.hh"

namespace perfbench {

double
OpRunner::run(size_t i, SpanRecorder &rec, bool attribute)
{
    ++attempted_;
    const std::string label = wl_.opLabel(i);
    SpanRecorder::Scope op(rec, "op", static_cast<int64_t>(i));
    const double t0 = now();
    double t = 0.0;
    try {
        const uint64_t digest = wl_.run(i, rec);
        t = now() - t0;
        if (!book_.check(label, digest)) {
            ++failed_;
            std::fprintf(stderr,
                         "op %s: digest %s differs from the reference\n",
                         label.c_str(), hex(digest).c_str());
        }
        if (attribute) {
            SpanRecorder::Scope s(rec, "replay");
            wl_.attribute(i, rec);
        }
    } catch (const std::exception &e) {
        if (t == 0.0)
            t = now() - t0;
        ++failed_;
        std::fprintf(stderr, "op %s failed: %s\n", label.c_str(),
                     e.what());
    }
    return t;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, unsigned nproc)
{
    if (name == "paper-figures")
        return makePaperFigures();
    if (name == "native-fold")
        return makeNativeFold(nproc);
    if (name == "serve-sim")
        return makeServeSim(nproc);
    return nullptr;
}

std::vector<size_t>
permutation(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    afsb::Rng rng(seed ^ 0x0bde5eedull);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBounded(i)]);
    return order;
}

} // namespace perfbench
