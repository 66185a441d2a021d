/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * The benchmark opens a span around each public library call it makes
 * (and around each op), all from the driving thread, so spans nest as
 * a stack. Spans stay in memory and are written once at exit as Chrome
 * trace-event JSON, which Perfetto and chrome://tracing open. A span's
 * self time is its duration minus the part of it its children cover.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    double start = 0.0; ///< seconds since the recorder started
    double end = 0.0;
    int parent = -1;    ///< index of the enclosing span, -1 at the root
    int64_t op = -1;    ///< op id, -1 outside ops (set-up)
};

/** Totals for one span name. */
struct SpanTotal
{
    double total = 0.0; ///< summed durations
    double self = 0.0;  ///< summed self times
    uint64_t count = 0;
};

class SpanRecorder
{
  public:
    /** A disabled recorder ignores every call. */
    explicit SpanRecorder(bool enabled = false);

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (-1 when disabled). */
    int begin(const std::string &name, int64_t op = -1);

    /** Close span @p id; closing out of order aborts (a bug). */
    void end(int id);

    /** Add a closed span directly (tests and synthetic children). */
    int add(const Span &span);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of span @p id: duration minus covered child time. */
    double selfTime(size_t id) const;

    /** Totals by span name. */
    std::map<std::string, SpanTotal> totals() const;

    /** Summed duration of spans named @p name (0 when none). */
    double total(const std::string &name) const;

    /** Chrome trace-event JSON ("X" events, microseconds). */
    std::string chromeTrace() const;

    /** Per-name table of calls, total and self seconds. */
    std::string selfTimeTable() const;

    /** True when every span lies within its parent's interval. */
    bool nested() const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const std::string &name,
              int64_t op = -1)
            : rec_(rec), id_(rec.begin(name, op))
        {}
        ~Scope() { rec_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int id_;
    };

  private:
    bool enabled_;
    double origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
