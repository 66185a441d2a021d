/**
 * @file
 * Sequence databases for the MSA search engine.
 *
 * A database is materialized as FASTA inside the virtual file store
 * and parsed through the buffered-reader path, so every search
 * exercises the same I/O plumbing the paper profiles (page cache,
 * NVMe model, addbuf/seebuf/copy_to_iter). Alongside the scaled-down
 * materialized bytes, each database carries its paper-scale size so
 * the capacity models see realistic footprints (e.g. the 89 GiB RNA
 * collection).
 */

#ifndef AFSB_MSA_DATABASE_HH
#define AFSB_MSA_DATABASE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bio/sequence.hh"
#include "io/blockfile.hh"
#include "io/buffered_reader.hh"
#include "io/pagecache.hh"
#include "io/vfs.hh"

namespace afsb::msa {

/** Static description of one reference database. */
struct DatabaseInfo
{
    std::string name;              ///< e.g. "uniref_small"
    bio::MoleculeType type = bio::MoleculeType::Protein;
    uint64_t paperScaleBytes = 0;  ///< real-world collection size
    uint64_t scaledBytes = 0;      ///< materialized FASTA size
    size_t sequenceCount = 0;

    /** Ratio paper-scale / scaled, used for work extrapolation. */
    double
    scaleFactor() const
    {
        return scaledBytes
                   ? static_cast<double>(paperScaleBytes) /
                         static_cast<double>(scaledBytes)
                   : 1.0;
    }
};

/** A parsed, in-memory database plus its provenance. */
class SequenceDatabase
{
  public:
    /**
     * Parse @p file_name from the store through the buffered-reader
     * path at simulated time @p now.
     * @param io_latency_out Accumulated simulated I/O seconds.
     */
    static SequenceDatabase load(const io::Vfs &vfs,
                                 io::PageCache &cache,
                                 const std::string &file_name,
                                 bio::MoleculeType type, double now,
                                 double *io_latency_out = nullptr,
                                 MemTraceSink *sink = nullptr);

    const DatabaseInfo &info() const { return info_; }
    const std::vector<bio::Sequence> &sequences() const
    {
        return seqs_;
    }
    size_t size() const { return seqs_.size(); }

    /** Total residues across all targets. */
    uint64_t totalResidues() const;

    /** Set the paper-scale size this database stands in for. */
    void setPaperScaleBytes(uint64_t bytes)
    {
        info_.paperScaleBytes = bytes;
    }

    /** Approximate FASTA byte range of target @p i in the file. */
    struct ByteExtent
    {
        uint64_t offset = 0;
        uint64_t length = 0;
    };

    /**
     * Byte extent of target @p i, used by the scan loop to stream
     * the file through the page-cache model while computing.
     */
    ByteExtent byteExtent(size_t i) const;

    /** Backing file id in the store. */
    io::FileId fileId() const { return fileId_; }

  private:
    DatabaseInfo info_;
    std::vector<bio::Sequence> seqs_;
    std::vector<uint64_t> offsets_;  ///< cumulative FASTA offsets
    io::FileId fileId_ = 0;
};

/**
 * Compress a materialized FASTA file into an AFBC container in the
 * same store (see io/blockfile.hh). @return Compression accounting.
 */
io::BlockFileStats compressDatabase(io::Vfs &vfs,
                                    const std::string &fasta_name,
                                    const std::string &afbc_name);

/**
 * A database scanned out of a block-compressed AFBC container
 * without materializing its sequences in RAM.
 *
 * open() makes one indexing pass over the logical FASTA stream
 * (through the bounded decode cache) recording each target's id,
 * length, and logical byte extent — but not its residues. Targets
 * are re-decoded on demand by materialize(); a sequential scan
 * therefore keeps only the decode budget plus one reader window
 * resident, however large the collection. That is how the paper's
 * 89 GiB RNA footprint fits a few-MiB RAM budget here.
 */
class StreamingSequenceDatabase
{
  public:
    /** Default decoded-block budget (8 MiB). */
    static constexpr uint64_t kDefaultDecodeBudget = 8ull << 20;

    /**
     * Open @p afbc_name (an AFBC container of FASTA bytes) and
     * build the target index at simulated time @p now.
     */
    static StreamingSequenceDatabase
    open(const io::Vfs &vfs, io::PageCache &cache,
         const std::string &afbc_name, bio::MoleculeType type,
         double now,
         uint64_t decode_budget = kDefaultDecodeBudget);

    const DatabaseInfo &info() const { return info_; }
    size_t size() const { return index_.size(); }
    uint64_t totalResidues() const { return totalResidues_; }

    /** Set the paper-scale size this database stands in for. */
    void
    setPaperScaleBytes(uint64_t bytes)
    {
        info_.paperScaleBytes = bytes;
    }

    /** Target id without decoding its residues. */
    const std::string &id(size_t i) const { return index_.at(i).id; }

    /** Residue count without decoding. */
    size_t
    length(size_t i) const
    {
        return index_.at(i).length;
    }

    /** Logical (uncompressed FASTA) byte extent of target @p i. */
    SequenceDatabase::ByteExtent byteExtent(size_t i) const;

    /**
     * Decode target @p i into a full Sequence at simulated time
     * @p now. Identical codes to what SequenceDatabase::load would
     * have parsed from the same FASTA bytes.
     */
    bio::Sequence materialize(size_t i, double now) const;

    /** Decode-cache / residency accounting. */
    const io::BlockFileReader::Stats &
    blockStats() const
    {
        return reader_->stats();
    }

    /** Compressed-side reader counters (disk bytes, I/O latency). */
    const io::ReaderStats &
    readerStats() const
    {
        return reader_->readerStats();
    }

    /** Peak resident bytes: decode LRU + reader window + index. */
    uint64_t peakResidentBytes() const;

  private:
    struct TargetIndex
    {
        std::string id;
        uint64_t offset = 0;  ///< logical extent begin
        uint64_t extent = 0;  ///< logical extent length
        uint32_t length = 0;  ///< residue count
    };

    DatabaseInfo info_;
    std::vector<TargetIndex> index_;
    uint64_t totalResidues_ = 0;
    uint64_t indexBytes_ = 0;

    /** unique_ptr so the database stays movable (the reader holds
     *  an internal window and LRU). Mutable: decoding through the
     *  LRU is logically const access to immutable file bytes. */
    mutable std::unique_ptr<io::BlockFileReader> reader_;
};

} // namespace afsb::msa

#endif // AFSB_MSA_DATABASE_HH
