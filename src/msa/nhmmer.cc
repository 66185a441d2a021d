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

    // Scan windows through the same pipeline (single-threaded over
    // the window list per worker block).
    const size_t workers = scanWorkers(cfg.search, pool, "nhmmer");
    if (!sinks.empty() && sinks.size() < workers)
        fatal("nhmmer: fewer sinks than workers");

    constexpr uint64_t kStreamBase = 0x6800'0000'0000ull;
    const double bytesPerWindow =
        windows.empty()
            ? 0.0
            : static_cast<double>(db.info().scaledBytes) /
                  static_cast<double>(windows.size());

    auto scan = [&](MemTraceSink *sink, SearchStats &stats,
                    std::vector<Hit> &hitsOut, size_t begin,
                    size_t end) {
        KernelConfig kernel = cfg.search.kernel;
        for (size_t i = begin; i < end; ++i) {
            const bio::Sequence &target = windows[i];
            kernel.targetBase =
                kStreamBase +
                static_cast<uint64_t>(static_cast<double>(i) *
                                      bytesPerWindow);
            ++stats.targetsScanned;
            stats.residuesScanned += target.length();
            if (sink) {
                // Reader-thread parse work for this window.
                const uint64_t bytes = target.length();
                sink->instructions(wellknown::addbuf(), bytes * 24);
                sink->instructions(wellknown::seebuf(), bytes * 9);
                sink->instructions(wellknown::copyToIter(),
                                   bytes * 8);
                sink->branches(wellknown::addbuf(), bytes / 4, 0);
                sink->access({0x7f70'0000'0000ull +
                                  kernel.targetBase % (4ull << 20),
                              64, true, wellknown::addbuf()});
                const uint64_t step =
                    64ull * cfg.search.kernel.traceStride;
                for (uint64_t off = 0; off < bytes; off += step)
                    sink->access({kernel.targetBase + off, 64, true,
                                  wellknown::copyToIter()});
            }
            const auto msv = msvFilter(prof, target, kernel, sink);
            stats.cellsMsv += msv.cells;
            const int threshold =
                msvThreshold(prof, target.length(), cfg.search);
            if (msv.score < threshold)
                continue;
            ++stats.msvPassed;
            const auto vit = calcBand9(prof, target, kernel, sink);
            stats.cellsViterbi += vit.cells;
            const auto fwd = calcBand10(prof, target, kernel, sink);
            stats.cellsForward += fwd.cells;
            if (vit.score < threshold + cfg.search.viterbiMargin)
                continue;
            ++stats.viterbiPassed;
            ++stats.domainsScored;
            if (sink)
                sink->instructions(
                    wellknown::calcBand10(),
                    16ull * target.length() * prof.length());
            if (fwd.logOdds < cfg.search.forwardThreshold)
                continue;
            ++stats.hits;
            hitsOut.push_back(
                {windowSource[i], vit.score, fwd.logOdds});
        }
    };

    std::vector<SearchStats> partial;
    std::vector<std::vector<Hit>> partialHits;
    if (workers <= 1 || !pool) {
        partial.resize(1);
        partialHits.resize(1);
        scan(sinks.empty() ? nullptr : sinks[0], partial[0],
             partialHits[0], 0, windows.size());
    } else if (sinks.empty()) {
        // Untraced: blocks finer than the worker count and let the
        // pool balance; block-order merge keeps results
        // deterministic.
        const size_t grain = scanGrain(windows.size(), workers);
        const size_t blocks =
            (windows.size() + grain - 1) / grain;
        partial.resize(blocks);
        partialHits.resize(blocks);
        pool->parallelFor(
            windows.size(), grain, [&](size_t b, size_t e) {
                scan(nullptr, partial[b / grain],
                     partialHits[b / grain], b, e);
            });
    } else {
        // Traced: keep the per-worker equal split — the worker ->
        // sink mapping is part of the trace contract.
        partial.resize(workers);
        partialHits.resize(workers);
        const size_t chunk =
            (windows.size() + workers - 1) / workers;
        pool->parallelBlocks(workers,
                             [&](size_t, size_t wb, size_t we) {
                                 for (size_t w = wb; w < we; ++w) {
                                     const size_t b = w * chunk;
                                     const size_t e = std::min(
                                         windows.size(), b + chunk);
                                     if (b < e)
                                         scan(sinks[w], partial[w],
                                              partialHits[w], b, e);
                                 }
                             });
    }

    SearchResult combined;
    for (size_t w = 0; w < partial.size(); ++w) {
        combined.stats.merge(partial[w]);
        combined.hits.insert(combined.hits.end(),
                             partialHits[w].begin(),
                             partialHits[w].end());
    }

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
