/**
 * @file
 * The benchmark's own tests: the tail-percentile rule, failure
 * counting (a changed digest is a failed op), span self-time
 * arithmetic, and that one seed always yields the same op list and
 * digests. Run with `python3 perfbench/run.py --selftest`, or ctest in
 * the perfbench build tree.
 */

#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                      \
    do {                                                                 \
        if (!(cond)) {                                                   \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                         __LINE__, #cond);                               \
            ++failures;                                                  \
        }                                                                \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i)
        v.push_back(static_cast<double>(i));
    return v;
}

void
testTailRule()
{
    // 20 ops: the 10th smallest has exactly 10 beyond it -> p50.
    Tail t = tailOf(ramp(20));
    CHECK(near(t.value, 10.0));
    CHECK(near(t.percentile, 50.0));
    CHECK(t.ops == 20);

    // 100 ops -> p90, value 90.
    t = tailOf(ramp(100));
    CHECK(near(t.value, 90.0));
    CHECK(near(t.percentile, 90.0));

    // 11 ops: only the smallest has 10 beyond it.
    t = tailOf(ramp(11));
    CHECK(near(t.value, 1.0));
    CHECK(near(t.percentile, 100.0 / 11.0));

    // Ten or fewer: no percentile qualifies; the maximum stands in.
    t = tailOf(ramp(10));
    CHECK(near(t.value, 10.0));
    CHECK(near(t.percentile, 100.0));

    CHECK(tailOf({}).ops == 0);
    CHECK(near(median({3.0, 1.0, 2.0}), 2.0));
    CHECK(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
}

/** Two ops whose behaviour per call is scripted by the test. */
class ScriptedWorkload : public Workload
{
  public:
    std::function<uint64_t(size_t, int)> body;
    int calls[2] = {0, 0};

    void setup(uint64_t, SpanRecorder &) override {}
    size_t opCount() const override { return 2; }
    std::string
    opLabel(size_t i) const override
    {
        return "op" + std::to_string(i);
    }
    uint64_t
    run(size_t i, SpanRecorder &rec) override
    {
        SpanRecorder::Scope s(rec, "layer.call");
        return body(i, calls[i]++);
    }
    std::vector<size_t> tracedOps() const override { return {0, 1}; }
    void
    attribute(size_t, SpanRecorder &rec) override
    {
        SpanRecorder::Scope s(rec, "layer.replay");
    }
    LayerMetrics
    layerMetrics(const SpanRecorder &, size_t) const override
    {
        return {};
    }
    std::string opSize() const override { return "scripted"; }
    double nominalPassSeconds() const override { return 1.0; }
    unsigned threads() const override { return 1; }
};

void
testErrorCounting()
{
    // A repeat whose digest changes fails; so does a throwing op.
    ScriptedWorkload wl;
    wl.body = [](size_t i, int call) -> uint64_t {
        if (i == 0)
            return call < 2 ? 0xaa : 0xab;
        if (call == 1)
            throw std::runtime_error("unexpected OOM");
        return 0xbb;
    };
    DigestBook book;
    OpRunner runner(wl, book);
    SpanRecorder off;
    for (int pass = 0; pass < 3; ++pass)
        for (size_t i = 0; i < wl.opCount(); ++i)
            runner.run(i, off, false);
    CHECK(runner.attempted() == 6);
    CHECK(runner.failed() == 2); // op0 pass 3, op1 pass 2
    CHECK(book.seen().at("op0") == 0xaa);

    // Committed references take precedence over the first sighting.
    std::istringstream refs("# comment\nop0 00000000000000aa\n"
                            "op1 00000000000000bc\n");
    DigestBook committed;
    committed.load(refs);
    CHECK(committed.referenceCount() == 2);
    ScriptedWorkload steady;
    steady.body = [](size_t i, int) -> uint64_t {
        return i == 0 ? 0xaa : 0xbb;
    };
    OpRunner checked(steady, committed);
    checked.run(0, off, false);
    checked.run(1, off, false);
    CHECK(checked.failed() == 1); // op1 digest bb != committed bc

    // In a traced run the op span holds the call and the replay.
    SpanRecorder rec(true);
    OpRunner traced(steady, committed);
    traced.run(0, rec, true);
    CHECK(rec.spans().size() == 4);
    CHECK(rec.spans()[0].name == "op");
    CHECK(rec.spans()[1].parent == 0 && rec.spans()[2].parent == 0);
    CHECK(rec.spans()[3].parent == 2 && rec.spans()[3].op == 0);
    CHECK(rec.nested());
}

void
testSelfTime()
{
    SpanRecorder rec(true);
    auto span = [&](const char *name, double a, double b, int parent) {
        Span s;
        s.name = name;
        s.start = a;
        s.end = b;
        s.parent = parent;
        s.op = 7;
        return rec.add(s);
    };
    const int op = span("op", 0.0, 10.0, -1);
    span("msa.search", 1.0, 3.0, op);
    span("msa.search", 2.0, 5.0, op);   // overlaps the first
    span("model.infer", 8.0, 12.0, op); // runs past its parent
    const int leaf = span("model.embed", 8.5, 9.0, 3);
    // Covered: [1,5] and [8,10] -> 6 of 10.
    CHECK(near(rec.selfTime(op), 4.0));
    CHECK(near(rec.selfTime(3), 3.5));
    CHECK(near(rec.selfTime(leaf), 0.5));
    const auto totals = rec.totals();
    CHECK(totals.at("msa.search").count == 2);
    CHECK(near(totals.at("msa.search").total, 5.0));
    CHECK(near(totals.at("msa.search").self, 5.0));
    CHECK(near(rec.total("model.infer"), 4.0));
    CHECK(!rec.nested()); // model.infer leaves its op span
    const std::string trace = rec.chromeTrace();
    CHECK(trace.find("\"traceEvents\"") != std::string::npos);
    CHECK(trace.find("\"ph\":\"X\"") != std::string::npos);

    // Scoped spans nest as a stack and inherit the op id.
    SpanRecorder live(true);
    {
        SpanRecorder::Scope a(live, "op", 3);
        SpanRecorder::Scope b(live, "core.msa_phase");
    }
    CHECK(live.spans().size() == 2);
    CHECK(live.spans()[1].parent == 0 && live.spans()[1].op == 3);
    CHECK(live.nested());
    CHECK(live.selfTime(0) <= live.spans()[0].end - live.spans()[0].start);

    SpanRecorder off;
    { SpanRecorder::Scope a(off, "op", 1); }
    CHECK(off.spans().empty());
}

std::vector<std::string>
labels(const Workload &wl)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < wl.opCount(); ++i)
        out.push_back(wl.opLabel(i));
    return out;
}

size_t
indexOf(const Workload &wl, const std::string &label)
{
    for (size_t i = 0; i < wl.opCount(); ++i)
        if (wl.opLabel(i) == label)
            return i;
    throw std::runtime_error("no op " + label);
}

void
testSeedDeterminism()
{
    CHECK(permutation(20, 5) == permutation(20, 5));
    CHECK(permutation(20, 5) != permutation(20, 6));

    SpanRecorder off;
    auto a = makeNativeFold(2);
    auto b = makeNativeFold(2);
    auto c = makeNativeFold(2);
    a->setup(11, off);
    b->setup(11, off);
    c->setup(12, off);
    CHECK(labels(*a) == labels(*b));
    CHECK(labels(*a) == labels(*c)); // fixed shapes and order
    const std::string smallest = "monomer80";
    const uint64_t da = a->run(indexOf(*a, smallest), off);
    CHECK(da == b->run(indexOf(*b, smallest), off));
    CHECK(da == a->run(indexOf(*a, smallest), off)); // repeat
    CHECK(da != c->run(indexOf(*c, smallest), off));

    auto p = makePaperFigures();
    auto q = makePaperFigures();
    p->setup(3, off);
    q->setup(3, off);
    CHECK(p->opCount() == 10);
    CHECK(labels(*p) == labels(*q));
    const std::string op = "7RCE/Server/t1";
    CHECK(p->run(indexOf(*p, op), off) == q->run(indexOf(*q, op), off));

    CHECK(makeWorkload("serve-sim", 2) != nullptr);
    CHECK(makeWorkload("no-such-workload", 2) == nullptr);
}

} // namespace

int
main()
{
    testTailRule();
    testErrorCounting();
    testSelfTime();
    testSeedDeterminism();
    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench tests passed\n");
    return 0;
}
