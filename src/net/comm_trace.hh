/**
 * @file
 * CCL-style communication trace: every cross-node message as a
 * typed, timestamped record.
 *
 * Collective-communication benchmarks (CCL-Bench) argue that a
 * compute timeline without the matching communication trace hides
 * exactly the costs that dominate at scale. Here every
 * Interconnect::send appends one CommEvent; the trace renders to a
 * canonical one-line-per-event text that is byte-identical across
 * runs with identical seeds, and parses back for analysis — the
 * same write/parse/re-render contract the SLO report and fault log
 * follow.
 */

#ifndef AFSB_NET_COMM_TRACE_HH
#define AFSB_NET_COMM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace afsb::net {

/** Why the bytes moved. */
enum class MsgKind : uint8_t {
    RouteRequest = 0,  ///< router forwards a request to its node
    RouteResponse,     ///< node returns the finished structure
    CacheLookup,       ///< MSA-cache probe to the owning shard
    CacheReply,        ///< negative probe reply (control only)
    CacheResult,       ///< cached MSA shipped to the querying node
    CacheInsert,       ///< freshly computed MSA stored on its owner
};

constexpr size_t kMsgKinds = 6;

/** Canonical lower-snake name (stable; used in traces). */
const char *msgKindName(MsgKind kind);

/** Inverse of msgKindName; false when @p name is unknown. */
bool msgKindByName(const std::string &name, MsgKind *out);

/** One message on the virtual clock. */
struct CommEvent
{
    double sendTime = 0.0;     ///< when the sender issued it
    double arriveTime = 0.0;   ///< when the receiver has it
    uint32_t src = 0;
    uint32_t dst = 0;
    uint64_t bytes = 0;
    MsgKind kind = MsgKind::RouteRequest;
    double serializeSeconds = 0.0; ///< sender-side marshalling
    double transferSeconds = 0.0;  ///< on-the-wire occupancy
    uint64_t tag = 0;              ///< request id / shard id
};

/** Append-only event log with a canonical text form. */
class CommTrace
{
  public:
    void
    append(const CommEvent &event)
    {
        events_.push_back(event);
    }

    const std::vector<CommEvent> &events() const { return events_; }
    size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

    /**
     * Canonical serialization: a `# afsb-comm-trace v1` header line
     * followed by one `t=... src=... dst=... kind=... bytes=...
     * ser=... xfer=... arrive=... tag=...` line per event, %.6f
     * timestamps. Byte-identical across runs with identical seeds.
     */
    std::string render() const;

  private:
    std::vector<CommEvent> events_;
};

/**
 * Parse a canonical trace back into events.
 * @throws FatalError on a malformed header, line, or field.
 */
std::vector<CommEvent> parseCommTrace(const std::string &text);

} // namespace afsb::net

#endif // AFSB_NET_COMM_TRACE_HH
