#include "msa/nhmmer.hh"

#include <algorithm>

#include "msa/memory_model.hh"
#include "util/logging.hh"

namespace afsb::msa {

bio::Sequence
reverseComplement(const bio::Sequence &seq)
{
    if (seq.type() == bio::MoleculeType::Protein)
        fatal("reverseComplement: nucleotide sequences only");
    // Alphabets are ACGU / ACGT in encoded order 0..3; complement
    // swaps A<->U(T) (0<->3) and C<->G (1<->2).
    std::vector<uint8_t> codes(seq.length());
    for (size_t i = 0; i < seq.length(); ++i)
        codes[seq.length() - 1 - i] =
            static_cast<uint8_t>(3 - seq[i]);
    return bio::Sequence(seq.id() + "_rc", seq.type(),
                         std::move(codes));
}

NhmmerResult
runNhmmer(const bio::Sequence &query, const SequenceDatabase &db,
          io::PageCache &cache, ThreadPool *pool,
          const NhmmerConfig &cfg, double now,
          const std::vector<MemTraceSink *> &sinks)
{
    if (query.type() == bio::MoleculeType::Protein)
        fatal("nhmmer: nucleotide queries only");
    if (!sinks.empty())
        requireTraceConfig(cfg.search.kernel, "nhmmer");

    NhmmerResult out;
    out.modeledPeakMemory = nhmmerPeakMemoryBytes(query.length());

    const ScoreMatrix matrix = ScoreMatrix::nucleotide();
    const ProfileHmm prof = ProfileHmm::fromSequence(query, matrix);

    // Window the database: each long target is cut into overlapping
    // windows that are scanned as independent pseudo-targets. The
    // windowed copies are the nhmmer working set; at paper scale
    // this is what exhausts memory.
    const size_t window = std::max<size_t>(
        32, static_cast<size_t>(cfg.windowFactor *
                                static_cast<double>(query.length())));
    const size_t step = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(window) *
                               (1.0 - cfg.overlap)));

    // Build the windowed target list (ids index back into db).
    std::vector<bio::Sequence> windows;
    std::vector<size_t> windowSource;
    for (size_t i = 0; i < db.size(); ++i) {
        const bio::Sequence &t = db.sequences()[i];
        for (size_t off = 0; off < t.length(); off += step) {
            const size_t end = std::min(t.length(), off + window);
            windows.push_back(t.subsequence(off, end));
            windowSource.push_back(i);
            if (cfg.bothStrands) {
                windows.push_back(
                    reverseComplement(windows.back()));
                windowSource.push_back(i);
            }
            if (end == t.length())
                break;
        }
    }
    out.windowsScanned = windows.size();

    // Scan windows through the same cascade as searchDatabase,
    // partitioned the same way; hits land on the window's source.
    const size_t workers = scanWorkers(cfg.search, pool, "nhmmer");
    if (!sinks.empty() && sinks.size() < workers)
        fatal("nhmmer: fewer sinks than workers");

    constexpr uint64_t kStreamBase = 0x6800'0000'0000ull;
    const double bytesPerWindow =
        windows.empty()
            ? 0.0
            : static_cast<double>(db.info().scaledBytes) /
                  static_cast<double>(windows.size());

    SearchResult combined = scanPartitioned(
        windows.size(), workers, pool, sinks,
        [&](size_t begin, size_t end, MemTraceSink *sink,
            SearchResult &part) {
            KernelConfig kernel = cfg.search.kernel;
            for (size_t i = begin; i < end; ++i) {
                const bio::Sequence &target = windows[i];
                kernel.targetBase =
                    kStreamBase +
                    static_cast<uint64_t>(static_cast<double>(i) *
                                          bytesPerWindow);
                if (sink) {
                    // Reader-thread parse work for this window.
                    const uint64_t bytes = target.length();
                    sink->instructions(wellknown::addbuf(),
                                       bytes * 24);
                    sink->instructions(wellknown::seebuf(),
                                       bytes * 9);
                    sink->instructions(wellknown::copyToIter(),
                                       bytes * 8);
                    sink->branches(wellknown::addbuf(), bytes / 4, 0);
                    sink->access({0x7f70'0000'0000ull +
                                      kernel.targetBase % (4ull << 20),
                                  64, true, wellknown::addbuf()});
                    const uint64_t step =
                        64ull * cfg.search.kernel.traceStride;
                    for (uint64_t off = 0; off < bytes; off += step)
                        sink->access({kernel.targetBase + off, 64,
                                      true, wellknown::copyToIter()});
                }
                pipelineTarget(prof, target, kernel, cfg.search,
                               windowSource[i], sink, part);
            }
        });

    // Stream the database bytes once (nhmmer reads the file
    // sequentially regardless of window results).
    const uint64_t dbBytes = db.info().scaledBytes;
    const auto io = cache.read(db.fileId(), 0,
                               std::max<uint64_t>(1, dbBytes), now);
    combined.stats.bytesStreamed += dbBytes;
    combined.stats.bytesFromDisk += io.bytesFromDisk;
    combined.stats.ioLatency += io.latency;

    // Deduplicate hits per source target (keep the best window).
    std::sort(combined.hits.begin(), combined.hits.end(),
              [](const Hit &a, const Hit &b) {
                  if (a.targetIndex != b.targetIndex)
                      return a.targetIndex < b.targetIndex;
                  return a.forwardLogOdds > b.forwardLogOdds;
              });
    combined.hits.erase(
        std::unique(combined.hits.begin(), combined.hits.end(),
                    [](const Hit &a, const Hit &b) {
                        return a.targetIndex == b.targetIndex;
                    }),
        combined.hits.end());
    std::sort(combined.hits.begin(), combined.hits.end(),
              [](const Hit &a, const Hit &b) {
                  return a.forwardLogOdds > b.forwardLogOdds;
              });
    combined.stats.hits = combined.hits.size();

    out.stats = combined.stats;
    out.msa = buildMsa(query, prof, db, combined, cfg.build);
    out.stats.cellsViterbi += out.msa.alignCells;
    return out;
}

} // namespace afsb::msa
