/**
 * @file
 * Buffered database reader — the addbuf/seebuf/copy_to_iter path.
 *
 * HMMER's esl_buffer layer refills an internal window (addbuf),
 * peeks ahead for tokenization (seebuf), and the kernel moves bytes
 * from the page cache into user space (copy_to_iter). The paper's
 * function-level profile (Table IV) attributes ~23% of MSA cycles to
 * the buffering pair and finds copy_to_iter dominating cache misses
 * at one thread. This reader reproduces that structure: real byte
 * movement through a real buffer, with each phase attributed to its
 * well-known FuncId on the optional trace sink, and simulated I/O
 * latency from the page-cache / storage models.
 */

#ifndef AFSB_IO_BUFFERED_READER_HH
#define AFSB_IO_BUFFERED_READER_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "io/pagecache.hh"
#include "io/vfs.hh"
#include "util/memtrace.hh"

namespace afsb::io {

/** Counters for one reader's lifetime. */
struct ReaderStats
{
    uint64_t refills = 0;        ///< addbuf invocations
    uint64_t bytesCopied = 0;    ///< through copy_to_iter
    uint64_t bytesFromDisk = 0;  ///< page-cache misses during refills
    uint64_t linesRead = 0;
    uint64_t seeks = 0;          ///< non-sequential repositions
    uint64_t readErrors = 0;     ///< failed refills (injected faults)
    double ioLatency = 0.0;      ///< simulated seconds waiting on I/O

    /** Accumulate another reader's counters. */
    void
    merge(const ReaderStats &other)
    {
        refills += other.refills;
        bytesCopied += other.bytesCopied;
        bytesFromDisk += other.bytesFromDisk;
        linesRead += other.linesRead;
        seeks += other.seeks;
        readErrors += other.readErrors;
        ioLatency += other.ioLatency;
    }
};

/** Sequential line/byte reader over a VFS file. */
class BufferedReader
{
  public:
    /** Internal window size (256 KiB, HMMER-like). */
    static constexpr size_t kBufferSize = 256 * 1024;

    /**
     * @param vfs File store (not owned).
     * @param cache Page cache in front of storage (not owned).
     * @param id File to read.
     * @param sink Optional memory-trace sink for instrumented runs.
     */
    BufferedReader(const Vfs *vfs, PageCache *cache, FileId id,
                   MemTraceSink *sink = nullptr);

    /** True at end of file with an empty buffer. */
    bool eof() const;

    /**
     * True once a refill hit a storage read error (injected via the
     * device's StorageFaultHook). The reader then behaves as if at
     * EOF — readLine()/copyToIter() stop making progress — so the
     * caller can distinguish a clean EOF from a failed stream and
     * retry or surface the error instead of silently truncating.
     */
    bool failed() const { return failed_; }

    /**
     * Read the next line (newline stripped) at simulated time @p now.
     * @return false at end of file.
     */
    bool readLine(std::string &out, double now);

    /**
     * Copy up to @p len raw bytes into @p dst (the copy_to_iter
     * analog). @return bytes copied.
     */
    size_t copyToIter(char *dst, size_t len, double now);

    /** Peek at upcoming bytes without consuming (seebuf analog). */
    std::string_view seebuf(size_t len, double now);

    /**
     * Reposition the consumption cursor to absolute file @p offset.
     * A no-op when the offset is already buffered; otherwise the
     * window is dropped and the next read refills from @p offset.
     * Lets one reader jump between blocks of a file (the AFBC
     * block reader, io/blockfile.cc) without reopening it.
     */
    void seek(uint64_t offset);

    /** Next unconsumed absolute file offset. */
    uint64_t
    tell() const
    {
        return fileOff_ - (bufLen_ - bufPos_);
    }

    const ReaderStats &stats() const { return stats_; }

  private:
    /** Refill the window from the page cache (addbuf analog). */
    void addbuf(double now);

    /** Emit an instrumented touch at virtual address @p vaddr. */
    void traceTouch(FuncId func, uint64_t vaddr, size_t len,
                    bool write);

    const Vfs *vfs_;
    PageCache *cache_;
    FileId id_;
    MemTraceSink *sink_;

    std::vector<char> buffer_;
    bool failed_ = false;  ///< a refill hit a device read error
    size_t bufPos_ = 0;    ///< consumption cursor within buffer_
    size_t bufLen_ = 0;    ///< valid bytes in buffer_
    uint64_t fileOff_ = 0; ///< next file offset to fetch
    uint64_t fileSize_;

    /**
     * Deterministic virtual base of buffer_ in the trace address
     * space, salted by file id so concurrent readers stay distinct.
     * Tracing the window's real heap address would leak allocator
     * and ASLR state into the cache simulator and make miss counts
     * vary run to run.
     */
    uint64_t bufVirtBase_;
    uint64_t dstVirt_ = 0; ///< cursor for copy-destination stream
    ReaderStats stats_;
};

} // namespace afsb::io

#endif // AFSB_IO_BUFFERED_READER_HH
