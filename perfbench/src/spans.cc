#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "measure.hh"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(now())
{}

int
SpanRecorder::begin(const std::string &name, int64_t op)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.start = now() - origin_;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op >= 0 || s.parent < 0 ? op : spans_[s.parent].op;
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    if (id < 0)
        return;
    if (open_.empty() || open_.back() != id) {
        // Scopes close in stack order; anything else is a bug here,
        // and this runs in destructors, so stop rather than throw.
        std::fprintf(stderr, "perfbench: span %s closed out of order\n",
                     spans_[id].name.c_str());
        std::abort();
    }
    spans_[id].end = now() - origin_;
    open_.pop_back();
}

int
SpanRecorder::add(const Span &span)
{
    spans_.push_back(span);
    return static_cast<int>(spans_.size() - 1);
}

double
SpanRecorder::selfTime(size_t id) const
{
    const Span &s = spans_[id];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> kids;
    for (const Span &c : spans_)
        if (c.parent == static_cast<int>(id))
            kids.emplace_back(std::max(c.start, s.start),
                              std::min(c.end, s.end));
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto &[a, b] : kids) {
        const double from = std::max(a, reach);
        if (b > from) {
            covered += b - from;
            reach = b;
        }
    }
    return (s.end - s.start) - covered;
}

std::map<std::string, SpanTotal>
SpanRecorder::totals() const
{
    std::map<std::string, SpanTotal> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        SpanTotal &t = out[spans_[i].name];
        t.total += spans_[i].end - spans_[i].start;
        t.self += selfTime(i);
        ++t.count;
    }
    return out;
}

double
SpanRecorder::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

std::string
SpanRecorder::chromeTrace() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%lld}}",
                      i ? "," : "", s.name.c_str(),
                      s.name.substr(0, s.name.find('.')).c_str(),
                      s.start * 1e6, (s.end - s.start) * 1e6, i,
                      s.parent, static_cast<long long>(s.op));
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

std::string
SpanRecorder::selfTimeTable() const
{
    std::string out = "span                                calls"
                      "      total_s       self_s\n";
    char buf[160];
    for (const auto &[name, t] : totals()) {
        std::snprintf(buf, sizeof buf, "%-34s %7llu %12.6f %12.6f\n",
                      name.c_str(),
                      static_cast<unsigned long long>(t.count),
                      t.total, t.self);
        out += buf;
    }
    return out;
}

bool
SpanRecorder::nested() const
{
    for (const Span &s : spans_) {
        if (s.end < s.start)
            return false;
        if (s.parent < 0)
            continue;
        const Span &p = spans_[s.parent];
        if (s.start < p.start || s.end > p.end || s.op != p.op)
            return false;
    }
    return true;
}

} // namespace perfbench
