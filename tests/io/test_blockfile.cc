/**
 * @file
 * Block-compressed container (AFBC) tests: codec round-trips, the
 * container's random-access and line-reader views against the raw
 * bytes, decode-LRU residency under a budget, and the malformed-
 * container error paths.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>

#include "io/blockfile.hh"
#include "io/pagecache.hh"
#include "io/storage.hh"
#include "io/vfs.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace afsb::io {
namespace {

std::string
patternedText(size_t lines)
{
    // Compressible: FASTA-ish repeated motifs with varying ids.
    std::string s;
    for (size_t i = 0; i < lines; ++i) {
        s += ">seq_" + std::to_string(i) + "\n";
        for (size_t j = 0; j < 3; ++j)
            s += "ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY\n";
    }
    return s;
}

std::string
randomBytes(size_t n, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::string s(n, '\0');
    for (auto &c : s)
        c = static_cast<char>(rng() & 0xff);
    return s;
}

TEST(BlockFile, CodecRoundTripsCompressibleInput)
{
    const std::string raw = patternedText(200);
    const std::string comp = compressBlock(raw);
    EXPECT_LT(comp.size(), raw.size() / 2); // repeats must compress
    EXPECT_EQ(decompressBlock(comp, raw.size()), raw);
}

TEST(BlockFile, CodecRoundTripsIncompressibleInput)
{
    const std::string raw = randomBytes(50000, 42);
    const std::string comp = compressBlock(raw);
    EXPECT_EQ(decompressBlock(comp, raw.size()), raw);
}

TEST(BlockFile, CodecHandlesEmptyAndTinyInputs)
{
    EXPECT_EQ(compressBlock(""), "");
    EXPECT_EQ(decompressBlock("", 0), "");
    for (const std::string raw : {"a", "ab", "abc", "\n\n\n\n\n\n"}) {
        const std::string comp = compressBlock(raw);
        EXPECT_EQ(decompressBlock(comp, raw.size()), raw);
    }
}

TEST(BlockFile, CodecRejectsCorruptStream)
{
    const std::string raw = patternedText(50);
    std::string comp = compressBlock(raw);
    comp.resize(comp.size() / 2); // truncation
    EXPECT_THROW(decompressBlock(comp, raw.size()), FatalError);
}

struct BlockFileReaderTest : public ::testing::Test
{
    BlockFileReaderTest() : cache(64 * MiB, &dev) {}

    FileId
    write(const std::string &raw, size_t block_size)
    {
        return writeBlockFile(vfs, "t.afbc", raw, block_size, &st);
    }

    Vfs vfs;
    StorageDevice dev;
    PageCache cache;
    BlockFileStats st;
};

TEST_F(BlockFileReaderTest, ReadAtMatchesRawEverywhere)
{
    const std::string raw = patternedText(300);
    const FileId id = write(raw, 4096);
    BlockFileReader rd(&vfs, &cache, id, 1 * MiB);
    EXPECT_EQ(rd.rawSize(), raw.size());
    EXPECT_EQ(rd.blockCount(), (raw.size() + 4095) / 4096);

    std::string whole(raw.size(), '\0');
    EXPECT_EQ(rd.readAt(0, whole.data(), whole.size(), 0.0),
              whole.size());
    EXPECT_EQ(whole, raw);

    // Unaligned reads spanning block boundaries.
    char buf[1000];
    for (uint64_t off : {uint64_t{1}, uint64_t{4090},
                         uint64_t{raw.size() - 10}}) {
        const size_t got = rd.readAt(off, buf, sizeof(buf), 0.0);
        EXPECT_EQ(got, std::min<uint64_t>(sizeof(buf),
                                          raw.size() - off));
        EXPECT_EQ(std::string(buf, got), raw.substr(off, got));
    }
    EXPECT_EQ(rd.readAt(raw.size(), buf, sizeof(buf), 0.0), 0u);
}

TEST_F(BlockFileReaderTest, ReadLineMatchesLineSplitOfRaw)
{
    const std::string raw = patternedText(100) + "unterminated";
    const FileId id = write(raw, 512); // lines span blocks
    BlockFileReader rd(&vfs, &cache, id, 1 * MiB);

    std::vector<std::string> expect;
    size_t start = 0;
    while (start < raw.size()) {
        size_t nl = raw.find('\n', start);
        if (nl == std::string::npos) {
            expect.push_back(raw.substr(start));
            break;
        }
        expect.push_back(raw.substr(start, nl - start));
        start = nl + 1;
    }

    std::vector<std::string> got;
    std::string line;
    while (rd.readLine(line, 0.0))
        got.push_back(line);
    EXPECT_EQ(got, expect);
}

TEST_F(BlockFileReaderTest, DecodeBudgetBoundsResidency)
{
    const std::string raw = randomBytes(512 * KiB, 7);
    const size_t blockSize = 16 * KiB;
    const uint64_t budget = 48 * KiB;
    const FileId id = write(raw, blockSize);
    BlockFileReader rd(&vfs, &cache, id, budget);

    // Strided back-and-forth access: far more unique blocks than the
    // budget holds.
    std::mt19937 rng(3);
    char buf[256];
    for (int i = 0; i < 400; ++i) {
        const uint64_t off = rng() % (raw.size() - sizeof(buf));
        const size_t got = rd.readAt(off, buf, sizeof(buf), 0.0);
        ASSERT_EQ(got, sizeof(buf));
        ASSERT_EQ(std::string(buf, got), raw.substr(off, got));
    }
    EXPECT_GT(rd.stats().blocksDecoded,
              raw.size() / blockSize); // re-decodes happened
    // Peak = decoded blocks (may momentarily overshoot by the block
    // just decoded) + the compressed-side reader window.
    EXPECT_LE(rd.stats().peakResidentBytes,
              budget + blockSize + BufferedReader::kBufferSize);
}

TEST_F(BlockFileReaderTest, RepeatedAccessHitsDecodeCache)
{
    const std::string raw = patternedText(200);
    const FileId id = write(raw, 4096);
    BlockFileReader rd(&vfs, &cache, id, 1 * MiB);
    char buf[64];
    for (int i = 0; i < 10; ++i)
        rd.readAt(0, buf, sizeof(buf), 0.0);
    EXPECT_EQ(rd.stats().blocksDecoded, 1u);
    EXPECT_EQ(rd.stats().blockHits, 9u);
}

TEST_F(BlockFileReaderTest, RejectsMalformedContainers)
{
    const FileId garbage =
        vfs.createFile("garbage.bin", "this is not an AFBC file..!");
    EXPECT_THROW(BlockFileReader(&vfs, &cache, garbage, 1 * MiB),
                 FatalError);

    const FileId shortFile = vfs.createFile("short.bin", "AFBC");
    EXPECT_THROW(BlockFileReader(&vfs, &cache, shortFile, 1 * MiB),
                 FatalError);

    std::string packed = packBlockFile(patternedText(10), 4096);
    packed[4] = 99; // version byte
    const FileId badVersion = vfs.createFile("badver.afbc", packed);
    EXPECT_THROW(BlockFileReader(&vfs, &cache, badVersion, 1 * MiB),
                 FatalError);
}

#ifdef AFSB_REPO_ROOT
TEST_F(BlockFileReaderTest, HostileHeadersFailNamingTheField)
{
    // Each header asks for far more memory than its file holds: an
    // 8 TiB index, a 1 TiB block from 4 compressed bytes, and block
    // sizes whose sum wraps around to the file length. Each must be
    // refused before anything is allocated from it.
    const std::pair<const char *, const char *> cases[] = {
        {"block_count_2pow40.afbc", "block_count 1099511627776"},
        {"raw_size_2pow40.afbc", "raw_size/block_size"},
        {"compressed_size_wraps.afbc", "compressed_size"},
    };
    for (const auto &[name, field] : cases) {
        std::ifstream in(std::string(AFSB_REPO_ROOT) +
                             "/tests/data/blockfile/" + name,
                         std::ios::binary);
        ASSERT_TRUE(in.good()) << "missing fixture " << name;
        std::stringstream bytes;
        bytes << in.rdbuf();
        const FileId id = vfs.createFile(name, bytes.str());
        try {
            BlockFileReader reader(&vfs, &cache, id, 1 * MiB);
            char c;
            reader.readAt(0, &c, 1, 0.0);
            ADD_FAILURE() << name << " was read";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << name << ": " << e.what();
        }
    }
}
#endif

TEST_F(BlockFileReaderTest, StatsTrackCompressionRatio)
{
    const std::string raw = patternedText(300);
    write(raw, kBlockFileBlockSize);
    EXPECT_EQ(st.rawBytes, raw.size());
    EXPECT_GT(st.compressedBytes, 0u);
    EXPECT_GT(st.ratio(), 1.5); // repeated motifs compress well
}

} // namespace
} // namespace afsb::io
