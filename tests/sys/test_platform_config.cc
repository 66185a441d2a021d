/**
 * @file
 * Platform-as-data tests: JSON round-trips of every builtin spec,
 * strict rejection of malformed configs (unknown keys, bad
 * format/version, negative sizes, cache and TLB geometry the cache
 * simulator cannot model), and loading of the three committed
 * configs under configs/platforms/.
 */

#include <string>

#include <gtest/gtest.h>

#include "sys/platform_config.hh"
#include "util/logging.hh"

using namespace afsb;

namespace {

std::string
configPath(const char *file)
{
    return std::string(AFSB_REPO_ROOT) + "/configs/platforms/" +
           file;
}

} // namespace

TEST(PlatformConfig, BuiltinSpecsRoundTripThroughJson)
{
    for (const auto &name : sys::builtinPlatformNames()) {
        const auto spec = sys::resolvePlatform(name);
        const auto doc = sys::platformToJson(spec);
        const auto back = sys::platformFromJson(doc, name);
        // PlatformSpec has no operator==; the canonical JSON dump
        // is the equality witness.
        EXPECT_EQ(sys::platformToJson(back).dumpPretty(),
                  doc.dumpPretty())
            << name;
        EXPECT_EQ(back.name, spec.name);
        EXPECT_EQ(back.cpu.cores, spec.cpu.cores);
        EXPECT_EQ(back.cpu.vectorFlopsPerCycle,
                  spec.cpu.vectorFlopsPerCycle);
        EXPECT_EQ(back.gpu.vramBytes, spec.gpu.vramBytes);
    }
}

TEST(PlatformConfig, TextualRoundTripSurvivesReparse)
{
    const auto spec = sys::serverPlatform();
    const std::string dumped =
        sys::platformToJson(spec).dumpPretty();
    const auto back =
        sys::platformFromJson(parseJson(dumped), "reparse");
    EXPECT_EQ(sys::platformToJson(back).dumpPretty(), dumped);
}

TEST(PlatformConfig, UnknownKeysAreHardErrors)
{
    auto doc = sys::platformToJson(sys::serverPlatform());
    doc["cpu"]["frequncy_ghz"] = JsonValue(3.0);  // typoed knob
    EXPECT_THROW(sys::platformFromJson(doc, "t"), FatalError);

    doc = sys::platformToJson(sys::serverPlatform());
    doc["acceleratorz"] = JsonValue::makeObject();
    EXPECT_THROW(sys::platformFromJson(doc, "t"), FatalError);

    doc = sys::platformToJson(sys::serverPlatform());
    doc["gpu"]["hbm"] = JsonValue(1.0);
    EXPECT_THROW(sys::platformFromJson(doc, "t"), FatalError);
}

TEST(PlatformConfig, HeaderAndValueViolationsAreHardErrors)
{
    auto doc = sys::platformToJson(sys::serverPlatform());
    doc["format"] = "afsb-toaster";
    EXPECT_THROW(sys::platformFromJson(doc, "t"), FatalError);

    doc = sys::platformToJson(sys::serverPlatform());
    doc["version"] = 2;
    EXPECT_THROW(sys::platformFromJson(doc, "t"), FatalError);

    doc = sys::platformToJson(sys::serverPlatform());
    doc["gpu"]["vram_bytes"] = -1;
    EXPECT_THROW(sys::platformFromJson(doc, "t"), FatalError);

    doc = sys::platformToJson(sys::serverPlatform());
    doc["cpu"]["cores"] = 0;
    EXPECT_THROW(sys::platformFromJson(doc, "t"), FatalError);

    doc = sys::platformToJson(sys::serverPlatform());
    doc["name"] = "";
    EXPECT_THROW(sys::platformFromJson(doc, "t"), FatalError);
}

TEST(PlatformConfig, CommittedConfigsLoadWithExpectedTraits)
{
    const auto riscv =
        sys::loadPlatformFile(configPath("riscv-cpu.json"));
    EXPECT_EQ(riscv.name, "RISCV-Vector");
    EXPECT_EQ(riscv.cpu.vendor, "riscv");
    // Unified SoC: the on-die engine sees all of DRAM, so the
    // inference path never spills.
    EXPECT_EQ(riscv.gpu.vramBytes, riscv.memory.dramBytes);
    EXPECT_EQ(riscv.cpu.vectorFlopsPerCycle, 16.0);

    const auto cxl =
        sys::loadPlatformFile(configPath("cxl-tiered.json"));
    EXPECT_EQ(cxl.name, "CXL-Tiered");
    EXPECT_GT(cxl.memory.cxlBytes, 0u);
    EXPECT_GT(cxl.memory.cxlLatencyFactor, 1.0);

    const auto small =
        sys::loadPlatformFile(configPath("small-vram.json"));
    EXPECT_EQ(small.name, "SmallVRAM");
    EXPECT_EQ(small.gpu.vramBytes, uint64_t{8} << 30);
    EXPECT_GT(small.gpu.unifiedMemPenalty, 1.0);
}

TEST(PlatformConfig, ResolveAcceptsBuiltinsAndPathsOnly)
{
    for (const auto &name : sys::builtinPlatformNames())
        EXPECT_NO_THROW(sys::resolvePlatform(name)) << name;
    EXPECT_EQ(sys::resolvePlatform("server").name,
              sys::serverPlatform().name);
    EXPECT_EQ(
        sys::resolvePlatform(configPath("small-vram.json")).name,
        "SmallVRAM");
    EXPECT_THROW(sys::resolvePlatform("toaster"), FatalError);
    EXPECT_THROW(sys::resolvePlatform("/no/such/file.json"),
                 FatalError);
}

TEST(PlatformConfig, MalformedFixtureFilesAreRejected)
{
    const std::string fixtures =
        std::string(AFSB_REPO_ROOT) + "/tests/data/platforms/";
    EXPECT_THROW(
        sys::loadPlatformFile(fixtures + "bad_unknown_key.json"),
        FatalError);
    EXPECT_THROW(
        sys::loadPlatformFile(fixtures + "bad_format.json"),
        FatalError);
    // Valid JSON object followed by trailing garbage: the strict
    // JSON parser must not silently accept the prefix.
    EXPECT_THROW(
        sys::loadPlatformFile(fixtures + "bad_trailing.json"),
        FatalError);
}

namespace {

/** The FatalError message platformFromJson throws for @p doc, or ""
 *  when it parses. */
std::string
rejection(const JsonValue &doc)
{
    try {
        sys::platformFromJson(doc, "geom.json");
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(PlatformConfig, MalformedCacheGeometryNamesTheKey)
{
    struct Case
    {
        const char *section;  ///< cache section, or nullptr for cpu
        const char *key;
        uint64_t value;
        const char *message;
    };
    const Case cases[] = {
        {"l1d", "size", 0, "cpu.l1d.size must be >= 1"},
        {"llc", "size", 0, "cpu.llc.size must be >= 1"},
        {"l2", "associativity", 0, "cpu.l2.associativity must be >= 1"},
        {"l1d", "line_size", 0, "cpu.l1d.line_size must be a power of two"},
        {"l2", "line_size", 48, "cpu.l2.line_size must be a power of two"},
        {"llc", "line_size", 1, "cpu.llc.line_size must be a power of two"},
        {"l1d", "associativity", uint64_t{1} << 32,
         "key 'associativity' exceeds 4294967295"},
        {nullptr, "dtlb_entries", 0, "cpu.dtlb_entries must be >= 1"},
        {nullptr, "tlb_page_bytes", 0, "cpu.tlb_page_bytes must be"},
        {nullptr, "tlb_page_bytes", 3000, "cpu.tlb_page_bytes must be"},
        {nullptr, "tlb_page_bytes", (uint64_t{1} << 31) + 4096,
         "cpu.tlb_page_bytes must be"},
        {nullptr, "tlb_page_bytes", uint64_t{1} << 32,
         "cpu.tlb_page_bytes must be"},
    };
    for (const Case &c : cases) {
        auto doc = sys::platformToJson(sys::desktopPlatform());
        JsonValue &where = c.section ? doc["cpu"][c.section] : doc["cpu"];
        where[c.key] = JsonValue(c.value);
        const std::string what = rejection(doc);
        EXPECT_NE(what.find("platform config geom.json: "),
                  std::string::npos)
            << c.key << " = " << c.value << ": " << what;
        EXPECT_NE(what.find(c.message), std::string::npos)
            << c.key << " = " << c.value << ": " << what;
    }

    // The edges of the accepted range still parse.
    auto doc = sys::platformToJson(sys::desktopPlatform());
    doc["cpu"]["l1d"]["line_size"] = JsonValue(uint64_t{2});
    doc["cpu"]["l1d"]["associativity"] = JsonValue(uint64_t{1});
    doc["cpu"]["llc"]["size"] = JsonValue(uint64_t{1});
    doc["cpu"]["dtlb_entries"] = JsonValue(uint64_t{1});
    doc["cpu"]["tlb_page_bytes"] = JsonValue(uint64_t{1} << 31);
    EXPECT_EQ(rejection(doc), "");
}

TEST(PlatformConfig, GeometryFixturesAreRejectedWithTheirPath)
{
    const std::string fixtures =
        std::string(AFSB_REPO_ROOT) + "/tests/data/platforms/";
    for (const char *name :
         {"bad_llc_size_zero", "bad_l2_associativity_zero",
          "bad_l1d_line_size_zero", "bad_l1d_line_size_48",
          "bad_dtlb_entries_zero", "bad_tlb_page_bytes_zero",
          "bad_tlb_page_bytes_3000", "bad_tlb_page_bytes_4gib"}) {
        const std::string path = fixtures + name + ".json";
        try {
            sys::loadPlatformFile(path);
            ADD_FAILURE() << name << " parsed";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(path),
                      std::string::npos)
                << e.what();
        }
    }
}
