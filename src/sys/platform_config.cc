#include "sys/platform_config.hh"

#include <bit>
#include <cstdint>
#include <limits>

#include "io/textfile.hh"
#include "util/logging.hh"

namespace afsb::sys {

namespace {

constexpr const char *kFormat = "afsb-platform";
constexpr int64_t kVersion = 1;

[[noreturn]] void
badKey(const std::string &context, const std::string &section,
       const std::string &key)
{
    fatal("platform config " + context + ": unknown key '" + key +
          "' in " + section + " section");
}

uint64_t
asUint(const JsonValue &v, const std::string &context,
       const std::string &key)
{
    const int64_t n = v.asInt();
    if (n < 0)
        fatal("platform config " + context + ": key '" + key +
              "' must be non-negative");
    return static_cast<uint64_t>(n);
}

/** asUint for a 32-bit field: larger values are errors, not
 *  truncated. */
uint32_t
asUint32(const JsonValue &v, const std::string &context,
         const std::string &key)
{
    const uint64_t n = asUint(v, context, key);
    if (n > std::numeric_limits<uint32_t>::max())
        fatal("platform config " + context + ": key '" + key +
              "' exceeds " +
              std::to_string(std::numeric_limits<uint32_t>::max()));
    return static_cast<uint32_t>(n);
}

/**
 * The geometry the cache simulator needs: a nonzero size and
 * associativity, and a line size that is a power of two of at least
 * 2 bytes (lines and sets are found by shifts and masks).
 */
void
checkCache(const CacheGeometry &c, const std::string &context,
           const std::string &section)
{
    if (c.size == 0)
        fatal("platform config " + context + ": " + section +
              ".size must be >= 1");
    if (c.associativity == 0)
        fatal("platform config " + context + ": " + section +
              ".associativity must be >= 1");
    if (c.lineSize < 2 || !std::has_single_bit(c.lineSize))
        fatal("platform config " + context + ": " + section +
              ".line_size must be a power of two >= 2 (got " +
              std::to_string(c.lineSize) + ")");
}

JsonValue
cacheToJson(const CacheGeometry &c)
{
    auto j = JsonValue::makeObject();
    j["size"] = JsonValue(c.size);
    j["associativity"] = JsonValue(uint64_t{c.associativity});
    j["line_size"] = JsonValue(uint64_t{c.lineSize});
    j["latency_cycles"] = JsonValue(c.latencyCycles);
    return j;
}

CacheGeometry
cacheFromJson(const JsonValue &doc, const std::string &context,
              const std::string &section)
{
    CacheGeometry c;
    for (const auto &[key, value] : doc.asObject()) {
        if (key == "size")
            c.size = asUint(value, context, key);
        else if (key == "associativity")
            c.associativity = asUint32(value, context, key);
        else if (key == "line_size")
            c.lineSize = asUint32(value, context, key);
        else if (key == "latency_cycles")
            c.latencyCycles = value.asNumber();
        else
            badKey(context, section, key);
    }
    return c;
}

JsonValue
cpuToJson(const CpuSpec &c)
{
    auto j = JsonValue::makeObject();
    j["name"] = JsonValue(c.name);
    j["vendor"] = JsonValue(c.vendor);
    j["cores"] = JsonValue(uint64_t{c.cores});
    j["threads"] = JsonValue(uint64_t{c.threads});
    j["base_clock_ghz"] = JsonValue(c.baseClockGhz);
    j["max_clock_ghz"] = JsonValue(c.maxClockGhz);
    j["all_core_clock_ghz"] = JsonValue(c.allCoreClockGhz);
    j["l1d"] = cacheToJson(c.l1d);
    j["l2"] = cacheToJson(c.l2);
    j["llc"] = cacheToJson(c.llc);
    j["dtlb_entries"] = JsonValue(uint64_t{c.dtlbEntries});
    j["dtlb_miss_penalty_cycles"] =
        JsonValue(c.dtlbMissPenaltyCycles);
    j["tlb_page_bytes"] = JsonValue(c.tlbPageBytes);
    j["llc_chain_prefetch"] = JsonValue(c.llcChainPrefetch);
    j["llc_effective_factor"] = JsonValue(c.llcEffectiveFactor);
    j["base_ipc"] = JsonValue(c.baseIpc);
    j["vector_flops_per_cycle"] = JsonValue(c.vectorFlopsPerCycle);
    j["mispredict_penalty_cycles"] =
        JsonValue(c.mispredictPenaltyCycles);
    j["data_branch_miss_rate"] = JsonValue(c.dataBranchMissRate);
    j["mem_latency_cycles"] = JsonValue(c.memLatencyCycles);
    j["mem_bandwidth"] = JsonValue(c.memBandwidth);
    j["traffic_amplification"] = JsonValue(c.trafficAmplification);
    j["mlp"] = JsonValue(c.mlp);
    j["mlp_cache_hits"] = JsonValue(c.mlpCacheHits);
    return j;
}

CpuSpec
cpuFromJson(const JsonValue &doc, const std::string &context)
{
    CpuSpec c;
    for (const auto &[key, value] : doc.asObject()) {
        if (key == "name")
            c.name = value.asString();
        else if (key == "vendor")
            c.vendor = value.asString();
        else if (key == "cores")
            c.cores = asUint32(value, context, key);
        else if (key == "threads")
            c.threads = asUint32(value, context, key);
        else if (key == "base_clock_ghz")
            c.baseClockGhz = value.asNumber();
        else if (key == "max_clock_ghz")
            c.maxClockGhz = value.asNumber();
        else if (key == "all_core_clock_ghz")
            c.allCoreClockGhz = value.asNumber();
        else if (key == "l1d")
            c.l1d = cacheFromJson(value, context, "cpu.l1d");
        else if (key == "l2")
            c.l2 = cacheFromJson(value, context, "cpu.l2");
        else if (key == "llc")
            c.llc = cacheFromJson(value, context, "cpu.llc");
        else if (key == "dtlb_entries")
            c.dtlbEntries = asUint32(value, context, key);
        else if (key == "dtlb_miss_penalty_cycles")
            c.dtlbMissPenaltyCycles = value.asNumber();
        else if (key == "tlb_page_bytes")
            c.tlbPageBytes = asUint(value, context, key);
        else if (key == "llc_chain_prefetch")
            c.llcChainPrefetch = value.asBool();
        else if (key == "llc_effective_factor")
            c.llcEffectiveFactor = value.asNumber();
        else if (key == "base_ipc")
            c.baseIpc = value.asNumber();
        else if (key == "vector_flops_per_cycle")
            c.vectorFlopsPerCycle = value.asNumber();
        else if (key == "mispredict_penalty_cycles")
            c.mispredictPenaltyCycles = value.asNumber();
        else if (key == "data_branch_miss_rate")
            c.dataBranchMissRate = value.asNumber();
        else if (key == "mem_latency_cycles")
            c.memLatencyCycles = value.asNumber();
        else if (key == "mem_bandwidth")
            c.memBandwidth = value.asNumber();
        else if (key == "traffic_amplification")
            c.trafficAmplification = value.asNumber();
        else if (key == "mlp")
            c.mlp = value.asNumber();
        else if (key == "mlp_cache_hits")
            c.mlpCacheHits = value.asNumber();
        else
            badKey(context, "cpu", key);
    }
    if (c.cores == 0)
        fatal("platform config " + context +
              ": cpu.cores must be >= 1");
    checkCache(c.l1d, context, "cpu.l1d");
    checkCache(c.l2, context, "cpu.l2");
    checkCache(c.llc, context, "cpu.llc");
    if (c.dtlbEntries == 0)
        fatal("platform config " + context +
              ": cpu.dtlb_entries must be >= 1");
    if (c.tlbPageBytes < 2 || c.tlbPageBytes > (uint64_t{1} << 31) ||
        !std::has_single_bit(c.tlbPageBytes))
        fatal("platform config " + context +
              ": cpu.tlb_page_bytes must be a power of two from 2 "
              "bytes to 2 GiB (got " +
              std::to_string(c.tlbPageBytes) + ")");
    return c;
}

JsonValue
gpuToJson(const GpuSpec &g)
{
    auto j = JsonValue::makeObject();
    j["name"] = JsonValue(g.name);
    j["peak_flops"] = JsonValue(g.peakFlops);
    j["mem_bandwidth"] = JsonValue(g.memBandwidth);
    j["vram_bytes"] = JsonValue(g.vramBytes);
    j["kernel_launch_us"] = JsonValue(g.kernelLaunchUs);
    j["unified_mem_penalty"] = JsonValue(g.unifiedMemPenalty);
    return j;
}

GpuSpec
gpuFromJson(const JsonValue &doc, const std::string &context)
{
    GpuSpec g;
    for (const auto &[key, value] : doc.asObject()) {
        if (key == "name")
            g.name = value.asString();
        else if (key == "peak_flops")
            g.peakFlops = value.asNumber();
        else if (key == "mem_bandwidth")
            g.memBandwidth = value.asNumber();
        else if (key == "vram_bytes")
            g.vramBytes = asUint(value, context, key);
        else if (key == "kernel_launch_us")
            g.kernelLaunchUs = value.asNumber();
        else if (key == "unified_mem_penalty")
            g.unifiedMemPenalty = value.asNumber();
        else
            badKey(context, "gpu", key);
    }
    return g;
}

JsonValue
memoryToJson(const MemorySpec &m)
{
    auto j = JsonValue::makeObject();
    j["dram_bytes"] = JsonValue(m.dramBytes);
    j["cxl_bytes"] = JsonValue(m.cxlBytes);
    j["cxl_latency_factor"] = JsonValue(m.cxlLatencyFactor);
    return j;
}

MemorySpec
memoryFromJson(const JsonValue &doc, const std::string &context)
{
    MemorySpec m;
    for (const auto &[key, value] : doc.asObject()) {
        if (key == "dram_bytes")
            m.dramBytes = asUint(value, context, key);
        else if (key == "cxl_bytes")
            m.cxlBytes = asUint(value, context, key);
        else if (key == "cxl_latency_factor")
            m.cxlLatencyFactor = value.asNumber();
        else
            badKey(context, "memory", key);
    }
    return m;
}

JsonValue
storageToJson(const io::StorageSpec &s)
{
    auto j = JsonValue::makeObject();
    j["name"] = JsonValue(s.name);
    j["seq_read_bandwidth"] = JsonValue(s.seqReadBandwidth);
    j["base_latency"] = JsonValue(s.baseLatency);
    j["queue_depth"] = JsonValue(uint64_t{s.queueDepth});
    return j;
}

io::StorageSpec
storageFromJson(const JsonValue &doc, const std::string &context)
{
    io::StorageSpec s;
    for (const auto &[key, value] : doc.asObject()) {
        if (key == "name")
            s.name = value.asString();
        else if (key == "seq_read_bandwidth")
            s.seqReadBandwidth = value.asNumber();
        else if (key == "base_latency")
            s.baseLatency = value.asNumber();
        else if (key == "queue_depth")
            s.queueDepth = asUint32(value, context, key);
        else
            badKey(context, "storage", key);
    }
    return s;
}

} // namespace

JsonValue
platformToJson(const PlatformSpec &platform)
{
    auto j = JsonValue::makeObject();
    j["format"] = JsonValue(kFormat);
    j["version"] = JsonValue(kVersion);
    j["name"] = JsonValue(platform.name);
    j["cpu"] = cpuToJson(platform.cpu);
    j["gpu"] = gpuToJson(platform.gpu);
    j["memory"] = memoryToJson(platform.memory);
    j["storage"] = storageToJson(platform.storage);
    return j;
}

PlatformSpec
platformFromJson(const JsonValue &doc, const std::string &context)
{
    if (!doc.isObject())
        fatal("platform config " + context +
              ": document must be a JSON object");
    if (!doc.has("format") ||
        doc.at("format").asString() != kFormat)
        fatal("platform config " + context +
              ": missing or wrong 'format' (expected \"" +
              std::string(kFormat) + "\")");
    if (!doc.has("version") || doc.at("version").asInt() != kVersion)
        fatal("platform config " + context +
              ": unsupported 'version' (expected 1)");

    PlatformSpec p;
    for (const auto &[key, value] : doc.asObject()) {
        if (key == "format" || key == "version")
            continue;
        else if (key == "name")
            p.name = value.asString();
        else if (key == "cpu")
            p.cpu = cpuFromJson(value, context);
        else if (key == "gpu")
            p.gpu = gpuFromJson(value, context);
        else if (key == "memory")
            p.memory = memoryFromJson(value, context);
        else if (key == "storage")
            p.storage = storageFromJson(value, context);
        else
            badKey(context, "top-level", key);
    }
    if (p.name.empty())
        fatal("platform config " + context +
              ": missing 'name'");
    return p;
}

PlatformSpec
loadPlatformFile(const std::string &path)
{
    const std::string text = io::readTextFile(path);
    JsonValue doc;
    try {
        doc = parseJson(text);
    } catch (const FatalError &e) {
        fatal("platform config " + path + ": " + e.what());
    }
    return platformFromJson(doc, path);
}

std::vector<std::string>
builtinPlatformNames()
{
    return {"server", "server-cxl", "desktop", "desktop-128"};
}

PlatformSpec
resolvePlatform(const std::string &nameOrPath)
{
    if (nameOrPath == "server")
        return serverPlatform();
    if (nameOrPath == "server-cxl")
        return serverPlatformWithCxl();
    if (nameOrPath == "desktop")
        return desktopPlatform();
    if (nameOrPath == "desktop-128")
        return desktopPlatformUpgraded();
    if (nameOrPath.find('/') != std::string::npos ||
        (nameOrPath.size() > 5 &&
         nameOrPath.substr(nameOrPath.size() - 5) == ".json"))
        return loadPlatformFile(nameOrPath);
    fatal("unknown platform '" + nameOrPath +
          "' (builtin: server, server-cxl, desktop, desktop-128; "
          "or a path to a *.json platform config)");
}

} // namespace afsb::sys
