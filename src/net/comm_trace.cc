#include "net/comm_trace.hh"

#include <cstdlib>

#include "util/logging.hh"
#include "util/str.hh"

namespace afsb::net {

const char *
msgKindName(MsgKind kind)
{
    switch (kind) {
    case MsgKind::RouteRequest:
        return "route_request";
    case MsgKind::RouteResponse:
        return "route_response";
    case MsgKind::CacheLookup:
        return "cache_lookup";
    case MsgKind::CacheReply:
        return "cache_reply";
    case MsgKind::CacheResult:
        return "cache_result";
    case MsgKind::CacheInsert:
        return "cache_insert";
    }
    return "unknown";
}

bool
msgKindByName(const std::string &name, MsgKind *out)
{
    for (size_t k = 0; k < kMsgKinds; ++k) {
        const auto kind = static_cast<MsgKind>(k);
        if (name == msgKindName(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

std::string
CommTrace::render() const
{
    std::string out = "# afsb-comm-trace v1\n";
    out.reserve(out.size() + events_.size() * 96);
    for (const auto &e : events_) {
        out += strformat(
            "t=%.6f src=%u dst=%u kind=%s bytes=%llu ser=%.6f "
            "xfer=%.6f arrive=%.6f tag=%llu\n",
            e.sendTime, e.src, e.dst, msgKindName(e.kind),
            static_cast<unsigned long long>(e.bytes),
            e.serializeSeconds, e.transferSeconds, e.arriveTime,
            static_cast<unsigned long long>(e.tag));
    }
    return out;
}

namespace {

/** The `value` of a `key=value` token; fatal on key mismatch. */
std::string
expectField(const std::string &token, const char *key, size_t line)
{
    const size_t eq = token.find('=');
    if (eq == std::string::npos || token.substr(0, eq) != key)
        fatal(strformat("comm trace line %zu: expected %s=..., got "
                        "'%s'",
                        line + 1, key, token.c_str()));
    return token.substr(eq + 1);
}

/**
 * Strict numeric field parsers: the whole value must be consumed
 * ("1.5x" or an empty value is an error, not a silent prefix
 * parse), matching the throw-with-context convention of the SLO
 * report and JSON parsers.
 */
double
numberField(const std::string &value, const char *key, size_t line)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size())
        fatal(strformat("comm trace line %zu: bad number '%s' for "
                        "%s",
                        line + 1, value.c_str(), key));
    return v;
}

uint64_t
uintField(const std::string &value, const char *key, size_t line)
{
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || end != value.c_str() + value.size() ||
        value[0] == '-')
        fatal(strformat("comm trace line %zu: bad integer '%s' for "
                        "%s",
                        line + 1, value.c_str(), key));
    return v;
}

} // namespace

std::vector<CommEvent>
parseCommTrace(const std::string &text)
{
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    if (lines.empty() || lines[0] != "# afsb-comm-trace v1")
        fatal("comm trace: missing '# afsb-comm-trace v1' header");

    std::vector<CommEvent> events;
    for (size_t ln = 1; ln < lines.size(); ++ln) {
        const std::string &line = lines[ln];
        if (line.empty())
            continue;
        std::vector<std::string> tokens;
        size_t pos = 0;
        while (pos < line.size()) {
            size_t sp = line.find(' ', pos);
            if (sp == std::string::npos)
                sp = line.size();
            if (sp > pos)
                tokens.push_back(line.substr(pos, sp - pos));
            pos = sp + 1;
        }
        if (tokens.size() != 9)
            fatal(strformat("comm trace line %zu: expected 9 "
                            "fields, got %zu",
                            ln + 1, tokens.size()));
        CommEvent e;
        e.sendTime =
            numberField(expectField(tokens[0], "t", ln), "t", ln);
        e.src = static_cast<uint32_t>(uintField(
            expectField(tokens[1], "src", ln), "src", ln));
        e.dst = static_cast<uint32_t>(uintField(
            expectField(tokens[2], "dst", ln), "dst", ln));
        const std::string kind = expectField(tokens[3], "kind", ln);
        if (!msgKindByName(kind, &e.kind))
            fatal(strformat("comm trace line %zu: unknown message "
                            "kind '%s'",
                            ln + 1, kind.c_str()));
        e.bytes = uintField(expectField(tokens[4], "bytes", ln),
                            "bytes", ln);
        e.serializeSeconds = numberField(
            expectField(tokens[5], "ser", ln), "ser", ln);
        e.transferSeconds = numberField(
            expectField(tokens[6], "xfer", ln), "xfer", ln);
        e.arriveTime = numberField(
            expectField(tokens[7], "arrive", ln), "arrive", ln);
        e.tag = uintField(expectField(tokens[8], "tag", ln), "tag",
                          ln);
        events.push_back(e);
    }
    return events;
}

} // namespace afsb::net
