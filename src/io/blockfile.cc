#include "io/blockfile.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace afsb::io {

namespace {

/** Greedy-matcher tuning: LZ4-like byte-oriented format. */
constexpr size_t kMinMatch = 4;

/** Most raw bytes one compressed byte can decode to: a match-length
 *  extension byte adds at most 255 (every other byte adds less). */
constexpr uint64_t kMaxExpansion = 255;
constexpr size_t kMaxDistance = 65535;
constexpr size_t kHashBits = 13;

uint32_t
read32(const char *p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

size_t
hash32(uint32_t v)
{
    return (v * 2654435761u) >> (32 - kHashBits);
}

/** Append @p v in the 255-saturating extension-byte encoding. */
void
putExtended(std::string &out, size_t v)
{
    while (v >= 255) {
        out.push_back(static_cast<char>(0xff));
        v -= 255;
    }
    out.push_back(static_cast<char>(v));
}

size_t
takeExtended(std::string_view comp, size_t &ip)
{
    size_t v = 0;
    while (true) {
        if (ip >= comp.size())
            fatal("blockfile: truncated extension");
        const uint8_t b = static_cast<uint8_t>(comp[ip++]);
        v += b;
        if (b != 0xff)
            return v;
    }
}

/** Emit one token: literals [anchor, lit_end), then an optional
 *  (distance, length) back-reference. */
void
emitToken(std::string &out, std::string_view raw, size_t anchor,
          size_t lit_end, size_t dist, size_t match_len)
{
    const size_t litLen = lit_end - anchor;
    const size_t mlToken =
        match_len ? match_len - kMinMatch : 0;
    out.push_back(static_cast<char>(
        (std::min<size_t>(litLen, 15) << 4) |
        std::min<size_t>(mlToken, 15)));
    if (litLen >= 15)
        putExtended(out, litLen - 15);
    out.append(raw.data() + anchor, litLen);
    if (!match_len)
        return;
    out.push_back(static_cast<char>(dist & 0xff));
    out.push_back(static_cast<char>((dist >> 8) & 0xff));
    if (mlToken >= 15)
        putExtended(out, mlToken - 15);
}

} // namespace

std::string
compressBlock(std::string_view raw)
{
    std::string out;
    const size_t n = raw.size();
    if (n == 0)
        return out;
    out.reserve(n / 2 + 16);

    // Last seen position of each 4-byte prefix hash; single-probe
    // greedy matching (no chains) keeps the encoder simple and the
    // decode side — the hot path in a streaming scan — trivial.
    std::vector<uint32_t> table(size_t{1} << kHashBits, UINT32_MAX);

    size_t pos = 0;
    size_t anchor = 0;
    while (pos + kMinMatch <= n) {
        const uint32_t word = read32(raw.data() + pos);
        const size_t h = hash32(word);
        const uint32_t cand = table[h];
        table[h] = static_cast<uint32_t>(pos);
        if (cand == UINT32_MAX || pos - cand > kMaxDistance ||
            read32(raw.data() + cand) != word) {
            ++pos;
            continue;
        }
        size_t len = kMinMatch;
        while (pos + len < n && raw[cand + len] == raw[pos + len])
            ++len;
        emitToken(out, raw, anchor, pos, pos - cand, len);
        pos += len;
        anchor = pos;
    }
    if (anchor < n)
        emitToken(out, raw, anchor, n, 0, 0);
    return out;
}

std::string
decompressBlock(std::string_view comp, size_t raw_len)
{
    std::string out;
    out.reserve(raw_len);
    size_t ip = 0;
    while (out.size() < raw_len) {
        if (ip >= comp.size())
            fatal("blockfile: truncated block");
        const uint8_t control = static_cast<uint8_t>(comp[ip++]);
        size_t litLen = control >> 4;
        if (litLen == 15)
            litLen += takeExtended(comp, ip);
        if (ip + litLen > comp.size() ||
            out.size() + litLen > raw_len)
            fatal("blockfile: literal overrun");
        out.append(comp.data() + ip, litLen);
        ip += litLen;
        if (out.size() == raw_len)
            break;

        if (ip + 2 > comp.size())
            fatal("blockfile: truncated match");
        const size_t dist =
            static_cast<uint8_t>(comp[ip]) |
            (static_cast<size_t>(static_cast<uint8_t>(comp[ip + 1]))
             << 8);
        ip += 2;
        size_t matchLen = control & 0x0f;
        if (matchLen == 15)
            matchLen += takeExtended(comp, ip);
        matchLen += kMinMatch;
        if (dist == 0 || dist > out.size() ||
            out.size() + matchLen > raw_len)
            fatal("blockfile: match overrun");
        // Byte-by-byte so overlapping references (dist < len, the
        // run-length case) replay correctly.
        size_t src = out.size() - dist;
        for (size_t i = 0; i < matchLen; ++i)
            out.push_back(out[src + i]);
    }
    if (ip != comp.size())
        fatal("blockfile: trailing garbage");
    return out;
}

namespace {

void
putU32(std::string &out, uint32_t v)
{
    for (int s = 0; s < 32; s += 8)
        out.push_back(static_cast<char>((v >> s) & 0xff));
}

void
putU64(std::string &out, uint64_t v)
{
    for (int s = 0; s < 64; s += 8)
        out.push_back(static_cast<char>((v >> s) & 0xff));
}

uint32_t
getU32(const char *p)
{
    uint32_t v = 0;
    for (int s = 0; s < 32; s += 8)
        v |= static_cast<uint32_t>(static_cast<uint8_t>(*p++)) << s;
    return v;
}

uint64_t
getU64(const char *p)
{
    uint64_t v = 0;
    for (int s = 0; s < 64; s += 8)
        v |= static_cast<uint64_t>(static_cast<uint8_t>(*p++)) << s;
    return v;
}

} // namespace

std::string
packBlockFile(std::string_view raw, size_t block_size,
              BlockFileStats *stats)
{
    panicIf(block_size == 0, "packBlockFile: zero block size");
    const uint64_t n = raw.size();
    const uint64_t blocks =
        block_size ? (n + block_size - 1) / block_size : 0;

    std::string out;
    putU32(out, kBlockFileMagic);
    putU32(out, kBlockFileVersion);
    putU64(out, n);
    putU64(out, block_size);
    putU64(out, blocks);

    std::vector<std::string> comp;
    comp.reserve(blocks);
    for (uint64_t b = 0; b < blocks; ++b) {
        const uint64_t off = b * block_size;
        const uint64_t len = std::min<uint64_t>(block_size, n - off);
        comp.push_back(compressBlock(raw.substr(off, len)));
        putU64(out, comp.back().size());
    }
    for (const auto &c : comp)
        out += c;

    if (stats) {
        stats->rawBytes = n;
        stats->compressedBytes = out.size();
    }
    return out;
}

FileId
writeBlockFile(Vfs &vfs, const std::string &name,
               std::string_view raw, size_t block_size,
               BlockFileStats *stats)
{
    return vfs.createFile(name,
                          packBlockFile(raw, block_size, stats));
}

BlockFileReader::BlockFileReader(const Vfs *vfs, PageCache *cache,
                                 FileId id, uint64_t decode_budget,
                                 double now)
    : reader_(vfs, cache, id), decodeBudget_(decode_budget)
{
    char header[32];
    if (reader_.copyToIter(header, sizeof(header), now) !=
        sizeof(header))
        fatal("blockfile: short header");
    if (getU32(header) != kBlockFileMagic)
        fatal("blockfile: bad magic (not an AFBC container)");
    if (getU32(header + 4) != kBlockFileVersion)
        fatal("blockfile: unsupported version");
    rawSize_ = getU64(header + 8);
    blockSize_ = static_cast<size_t>(getU64(header + 16));
    const uint64_t blocks = getU64(header + 24);
    if (blockSize_ == 0 && rawSize_ != 0)
        fatal("blockfile: zero block size");
    if (blockSize_ && blocks != rawSize_ / blockSize_ +
                                    (rawSize_ % blockSize_ != 0))
        fatal("blockfile: block_count " + std::to_string(blocks) +
              " does not match raw_size / block_size");

    // Header fields size allocations, so every one is checked
    // against the file first: the index must fit in it, the blocks
    // must tile the rest of it exactly, and each block's raw length
    // must be reachable from its compressed bytes.
    const uint64_t fileSize = vfs->size(id);
    if (blocks > (fileSize - sizeof(header)) / 8)
        fatal("blockfile: block_count " + std::to_string(blocks) +
              " needs an 8-byte index entry per block, more than the " +
              std::to_string(fileSize - sizeof(header)) +
              " bytes after the header");
    blockComp_.resize(blocks);
    blockOffset_.resize(blocks);
    uint64_t off = sizeof(header) + 8 * blocks;
    for (uint64_t b = 0; b < blocks; ++b) {
        char entry[8];
        if (reader_.copyToIter(entry, sizeof(entry), now) !=
            sizeof(entry))
            fatal("blockfile: truncated index");
        blockComp_[b] = getU64(entry);
        blockOffset_[b] = off;
        if (blockComp_[b] > fileSize - off)
            fatal("blockfile: block " + std::to_string(b) +
                  " compressed_size " + std::to_string(blockComp_[b]) +
                  " runs past the end of the " +
                  std::to_string(fileSize) + "-byte file");
        off += blockComp_[b];
        const uint64_t rawLen =
            std::min<uint64_t>(blockSize_, rawSize_ - b * blockSize_);
        if (rawLen / kMaxExpansion + (rawLen % kMaxExpansion != 0) >
            blockComp_[b])
            fatal("blockfile: raw_size/block_size give block " +
                  std::to_string(b) + " " + std::to_string(rawLen) +
                  " raw bytes, more than its " +
                  std::to_string(blockComp_[b]) +
                  " compressed bytes can decode to");
    }
    if (off != fileSize)
        fatal("blockfile: compressed_size fields cover " +
              std::to_string(off) + " bytes of the " +
              std::to_string(fileSize) + "-byte file");
    noteResidency();
}

void
BlockFileReader::noteResidency()
{
    stats_.peakResidentBytes =
        std::max(stats_.peakResidentBytes,
                 decodedBytes_ + BufferedReader::kBufferSize);
}

const std::string &
BlockFileReader::block(size_t index, double now)
{
    panicIf(index >= blockComp_.size(), "blockfile: bad block index");
    const auto it = decoded_.find(index);
    if (it != decoded_.end()) {
        ++stats_.blockHits;
        lru_.splice(lru_.begin(), lru_, it->second.lruIt);
        return it->second.bytes;
    }

    std::string comp(static_cast<size_t>(blockComp_[index]), '\0');
    reader_.seek(blockOffset_[index]);
    if (reader_.copyToIter(comp.data(), comp.size(), now) !=
        comp.size())
        fatal("blockfile: short block read");
    const size_t rawLen = static_cast<size_t>(std::min<uint64_t>(
        blockSize_, rawSize_ - uint64_t{index} * blockSize_));
    std::string bytes = decompressBlock(comp, rawLen);
    ++stats_.blocksDecoded;

    decodedBytes_ += bytes.size();
    lru_.push_front(index);
    auto [ins, fresh] = decoded_.emplace(
        index, CachedBlock{std::move(bytes), lru_.begin()});
    panicIf(!fresh, "blockfile: duplicate decode");
    noteResidency();

    // Evict past the budget, but never the block just decoded.
    while (decodedBytes_ > decodeBudget_ && decoded_.size() > 1) {
        const size_t victim = lru_.back();
        lru_.pop_back();
        const auto vit = decoded_.find(victim);
        decodedBytes_ -= vit->second.bytes.size();
        decoded_.erase(vit);
    }
    return ins->second.bytes;
}

size_t
BlockFileReader::readAt(uint64_t offset, char *dst, size_t len,
                        double now)
{
    if (offset >= rawSize_)
        return 0;
    len = static_cast<size_t>(
        std::min<uint64_t>(len, rawSize_ - offset));
    size_t copied = 0;
    while (copied < len) {
        const uint64_t at = offset + copied;
        const size_t b = static_cast<size_t>(at / blockSize_);
        const size_t within = static_cast<size_t>(at % blockSize_);
        const std::string &bytes = block(b, now);
        const size_t take =
            std::min(len - copied, bytes.size() - within);
        std::memcpy(dst + copied, bytes.data() + within, take);
        copied += take;
    }
    stats_.rawBytesRead += copied;
    return copied;
}

bool
BlockFileReader::readLine(std::string &out, double now)
{
    if (cursor_ >= rawSize_)
        return false;
    out.clear();
    while (cursor_ < rawSize_) {
        const size_t b = static_cast<size_t>(cursor_ / blockSize_);
        const size_t within =
            static_cast<size_t>(cursor_ % blockSize_);
        const std::string &bytes = block(b, now);
        const size_t end = bytes.size();
        const char *data = bytes.data();
        size_t i = within;
        while (i < end && data[i] != '\n')
            ++i;
        out.append(data + within, i - within);
        stats_.rawBytesRead += i - within;
        cursor_ += i - within;
        if (i < end) {
            ++cursor_;  // consume the newline
            ++stats_.rawBytesRead;
            return true;
        }
    }
    return true;  // final unterminated line
}

} // namespace afsb::io
