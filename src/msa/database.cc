#include "msa/database.hh"

#include "util/logging.hh"

namespace afsb::msa {

SequenceDatabase
SequenceDatabase::load(const io::Vfs &vfs, io::PageCache &cache,
                       const std::string &file_name,
                       bio::MoleculeType type, double now,
                       double *io_latency_out, MemTraceSink *sink)
{
    SequenceDatabase db;
    const auto opened = vfs.open(file_name);
    if (!opened)
        fatal("SequenceDatabase: no such file '" + file_name + "'");
    const io::FileId id = *opened;
    db.info_.name = file_name;
    db.info_.type = type;
    db.info_.scaledBytes = vfs.size(id);
    db.info_.paperScaleBytes = vfs.size(id);

    io::BufferedReader reader(&vfs, &cache, id, sink);
    std::string line;
    std::string headerId;
    std::string residues;
    bool have = false;

    auto flush = [&] {
        if (have) {
            db.seqs_.emplace_back(headerId, type, residues);
            residues.clear();
        }
    };

    while (reader.readLine(line, now)) {
        if (line.empty())
            continue;
        if (line[0] == '>') {
            flush();
            const size_t sp = line.find(' ');
            headerId = sp == std::string::npos
                           ? line.substr(1)
                           : line.substr(1, sp - 1);
            if (headerId.empty())
                fatal("database: empty FASTA header in " + file_name);
            have = true;
        } else {
            if (!have)
                fatal("database: residues before header in " +
                      file_name);
            residues += line;
        }
    }
    if (reader.failed())
        fatal("database: storage read error loading " + file_name);
    flush();

    db.info_.sequenceCount = db.seqs_.size();
    db.fileId_ = id;

    // Cumulative byte offsets: header line plus wrapped residue
    // lines (60 per line, writeFasta's default).
    db.offsets_.reserve(db.seqs_.size() + 1);
    uint64_t off = 0;
    db.offsets_.push_back(off);
    for (const auto &s : db.seqs_) {
        const uint64_t lines = (s.length() + 59) / 60;
        off += 2 + s.id().size() + s.length() + lines;
        db.offsets_.push_back(off);
    }

    if (io_latency_out)
        *io_latency_out += reader.stats().ioLatency;
    return db;
}

SequenceDatabase::ByteExtent
SequenceDatabase::byteExtent(size_t i) const
{
    panicIf(i + 1 >= offsets_.size(), "byteExtent: bad index");
    return {offsets_[i], offsets_[i + 1] - offsets_[i]};
}

uint64_t
SequenceDatabase::totalResidues() const
{
    uint64_t n = 0;
    for (const auto &s : seqs_)
        n += s.length();
    return n;
}

io::BlockFileStats
compressDatabase(io::Vfs &vfs, const std::string &fasta_name,
                 const std::string &afbc_name)
{
    const auto opened = vfs.open(fasta_name);
    if (!opened)
        fatal("compressDatabase: no such file '" + fasta_name + "'");
    const io::FileId id = *opened;
    std::string raw(vfs.size(id), '\0');
    const size_t got = vfs.read(id, 0, raw.data(), raw.size());
    panicIf(got != raw.size(), "compressDatabase: short read");
    io::BlockFileStats stats;
    io::writeBlockFile(vfs, afbc_name, raw,
                       io::kBlockFileBlockSize, &stats);
    return stats;
}

StreamingSequenceDatabase
StreamingSequenceDatabase::open(const io::Vfs &vfs,
                                io::PageCache &cache,
                                const std::string &afbc_name,
                                bio::MoleculeType type, double now,
                                uint64_t decode_budget)
{
    const auto opened = vfs.open(afbc_name);
    if (!opened)
        fatal("StreamingSequenceDatabase: no such file '" +
              afbc_name + "'");

    StreamingSequenceDatabase db;
    db.reader_ = std::make_unique<io::BlockFileReader>(
        &vfs, &cache, *opened, decode_budget, now);
    db.info_.name = afbc_name;
    db.info_.type = type;
    db.info_.scaledBytes = db.reader_->rawSize();
    db.info_.paperScaleBytes = db.reader_->rawSize();

    // Indexing pass: record id / length / logical extent per
    // target, residue bytes are decoded and dropped.
    std::string line;
    uint64_t lineStart = 0;
    TargetIndex cur;
    bool have = false;
    auto flush = [&](uint64_t end_off) {
        if (!have)
            return;
        cur.extent = end_off - cur.offset;
        db.totalResidues_ += cur.length;
        db.indexBytes_ += sizeof(TargetIndex) + cur.id.size();
        db.index_.push_back(std::move(cur));
        cur = TargetIndex{};
    };
    while (true) {
        lineStart = db.reader_->tellLogical();
        if (!db.reader_->readLine(line, now))
            break;
        if (line.empty())
            continue;
        if (line[0] == '>') {
            flush(lineStart);
            const size_t sp = line.find(' ');
            cur.id = sp == std::string::npos
                         ? line.substr(1)
                         : line.substr(1, sp - 1);
            if (cur.id.empty())
                fatal("streaming db: empty FASTA header in " +
                      afbc_name);
            cur.offset = lineStart;
            have = true;
        } else {
            if (!have)
                fatal("streaming db: residues before header in " +
                      afbc_name);
            cur.length += static_cast<uint32_t>(line.size());
        }
    }
    flush(db.reader_->rawSize());
    db.info_.sequenceCount = db.index_.size();
    return db;
}

SequenceDatabase::ByteExtent
StreamingSequenceDatabase::byteExtent(size_t i) const
{
    const auto &t = index_.at(i);
    return {t.offset, t.extent};
}

bio::Sequence
StreamingSequenceDatabase::materialize(size_t i, double now) const
{
    const auto &t = index_.at(i);
    std::string fasta(static_cast<size_t>(t.extent), '\0');
    const size_t got =
        reader_->readAt(t.offset, fasta.data(), fasta.size(), now);
    panicIf(got != fasta.size(), "streaming db: short extent read");

    // Strip the header line and residue-line breaks — same bytes
    // SequenceDatabase::load feeds the Sequence constructor.
    const size_t hdrEnd = fasta.find('\n');
    panicIf(hdrEnd == std::string::npos || fasta[0] != '>',
            "streaming db: extent is not a FASTA record");
    std::string residues;
    residues.reserve(t.length);
    for (size_t p = hdrEnd + 1; p < fasta.size(); ++p)
        if (fasta[p] != '\n')
            residues.push_back(fasta[p]);
    return bio::Sequence(t.id, info_.type, residues);
}

uint64_t
StreamingSequenceDatabase::peakResidentBytes() const
{
    return reader_->stats().peakResidentBytes + indexBytes_;
}

} // namespace afsb::msa
