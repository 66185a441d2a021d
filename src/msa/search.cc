#include "msa/search.hh"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "util/grain.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace afsb::msa {

void
SearchStats::merge(const SearchStats &other)
{
    targetsScanned += other.targetsScanned;
    residuesScanned += other.residuesScanned;
    msvPassed += other.msvPassed;
    viterbiPassed += other.viterbiPassed;
    domainsScored += other.domainsScored;
    hits += other.hits;
    cellsMsv += other.cellsMsv;
    cellsViterbi += other.cellsViterbi;
    cellsForward += other.cellsForward;
    bytesStreamed += other.bytesStreamed;
    bytesFromDisk += other.bytesFromDisk;
    ioLatency += other.ioLatency;
}

size_t
scanWorkers(const SearchConfig &cfg, const ThreadPool *pool,
            const char *who)
{
    if (!pool)
        return 1;
    if (cfg.threads > pool->size())
        warn(strformat("%s: threads=%zu exceeds pool size %zu; "
                       "clamping to %zu",
                       who, cfg.threads, pool->size(),
                       pool->size()));
    return std::max<size_t>(1,
                            std::min(cfg.threads, pool->size()));
}

size_t
scanGrain(size_t n, size_t workers)
{
    return grain::forScan(n, workers);
}

int
msvThreshold(const ProfileHmm &prof, size_t target_len,
             const SearchConfig &cfg)
{
    // Karlin-Altschul expectation: the best random ungapped segment
    // grows as ln(M*L)/lambda. BLOSUM62 lambda ~= 0.32 in raw-score
    // units; the nucleotide matrix is steeper.
    const double lambda = prof.alphabet() == 20 ? 0.32 : 0.62;
    const double ml = static_cast<double>(prof.length()) *
                      static_cast<double>(std::max<size_t>(
                          1, target_len));
    return static_cast<int>(
        std::lround(std::log(ml) / lambda + cfg.msvSlack));
}

namespace {

/**
 * Per-epoch virtual stream window base: within a pass the scan
 * streams sequentially (prefetchable, compulsory misses once), and
 * every new pass over the collection is fresh — exactly how
 * re-reading a paper-scale database behaves.
 */
uint64_t
streamEpochBase(const SequenceDatabase &db, const SearchConfig &cfg)
{
    constexpr uint64_t kStreamBase = 0x6000'0000'0000ull;
    return kStreamBase +
           static_cast<uint64_t>(cfg.streamEpoch) *
               (db.info().scaledBytes + (1ull << 20));
}

/**
 * The filter cascade proper for one parsed target: MSV prefilter,
 * banded Viterbi/Forward on survivors, domain accounting. Shared by
 * the static range scan, the delta re-search, and the streaming
 * scan so every path applies bit-identical thresholds.
 */
void
pipelineTarget(const ProfileHmm &prof, const bio::Sequence &target,
               const KernelConfig &kernel, const SearchConfig &cfg,
               size_t i, MemTraceSink *sink, SearchResult &out)
{
    ++out.stats.targetsScanned;
    out.stats.residuesScanned += target.length();

    const auto msv = msvFilter(prof, target, kernel, sink);
    out.stats.cellsMsv += msv.cells;
    const int threshold = msvThreshold(prof, target.length(), cfg);
    if (msv.score < threshold)
        return;
    ++out.stats.msvPassed;
    out.msvSurvivors.push_back(static_cast<uint32_t>(i));

    // MSV survivors run both banded kernels (HMMER rescored
    // every survivor with Forward before domain definition).
    const auto vit = calcBand9(prof, target, kernel, sink);
    out.stats.cellsViterbi += vit.cells;
    const auto fwd = calcBand10(prof, target, kernel, sink);
    out.stats.cellsForward += fwd.cells;
    if (vit.score < threshold + cfg.viterbiMargin)
        return;
    ++out.stats.viterbiPassed;

    // Every surviving candidate goes through domain definition
    // and null2 rescoring — full-width DP over the envelope.
    // This is where low-complexity queries burn their time: the
    // "ambiguous or partial alignments that still must be
    // scored and filtered" (paper Observation 2).
    ++out.stats.domainsScored;
    if (sink)
        sink->instructions(
            wellknown::calcBand10(),
            16ull * target.length() * prof.length());

    if (fwd.logOdds < cfg.forwardThreshold)
        return;

    ++out.stats.hits;
    out.hits.push_back({i, vit.score, fwd.logOdds});
}

/**
 * Run one target through the full filter cascade: page-cache
 * streaming, MSV prefilter, banded Viterbi/Forward on survivors.
 * Shared by the static range scan and the delta re-search so both
 * apply bit-identical thresholds and accounting.
 */
void
scanTarget(const ProfileHmm &prof, const SequenceDatabase &db,
           io::PageCache &cache, std::mutex &cache_mutex,
           const SearchConfig &cfg, uint64_t epoch_base, double now,
           size_t i, MemTraceSink *sink, SearchResult &out)
{
    const bio::Sequence &target = db.sequences()[i];
    const auto extent = db.byteExtent(i);
    KernelConfig kernel = cfg.kernel;
    kernel.targetBase = epoch_base + extent.offset;

    // Stream the target's bytes through the page-cache model;
    // the cache is shared state, so guard it. (Real HMMER also
    // funnels reads through one esl_buffer.)
    {
        std::lock_guard lock(cache_mutex);
        const auto io =
            cache.read(db.fileId(), extent.offset, extent.length,
                       now + out.stats.ioLatency);
        out.stats.bytesStreamed += extent.length;
        out.stats.bytesFromDisk += io.bytesFromDisk;
        out.stats.ioLatency += io.latency;
    }

    // Reader-thread work: the master thread parses and buffers
    // this target before any worker can align it. Instruction
    // densities per input byte are HMMER-calibrated (Table IV
    // puts addbuf+seebuf at ~23% of MSA cycles); copy_to_iter
    // first-touches the target's stream lines, which is where
    // its cache misses come from.
    if (sink) {
        const uint64_t bytes = extent.length;
        sink->instructions(wellknown::addbuf(), bytes * 24);
        sink->instructions(wellknown::seebuf(), bytes * 9);
        sink->instructions(wellknown::copyToIter(), bytes * 8);
        sink->branches(wellknown::addbuf(), bytes / 4, 0);
        // Per-target header allocation from the recycled
        // malloc pool (hot after warm-up).
        sink->access({0x7f70'0000'0000ull +
                          kernel.targetBase % (4ull << 20),
                      64, true, wellknown::addbuf()});
        const uint64_t step =
            64ull * cfg.kernel.traceStride;
        for (uint64_t off = 0; off < bytes; off += step) {
            sink->access({kernel.targetBase + off, 64, true,
                          wellknown::copyToIter()});
            // Cyclic parse buffer touches (addbuf/seebuf).
            constexpr uint64_t kParseBuf = 0x7f40'0000'0000ull;
            sink->access({kParseBuf + off % (256 * 1024), 64,
                          false, wellknown::addbuf()});
            if (off % (2 * step) == 0)
                sink->access({kParseBuf + off % (256 * 1024),
                              32, false, wellknown::seebuf()});
        }
    }

    pipelineTarget(prof, target, kernel, cfg, i, sink, out);
}

/** Per-worker scan over an index range. */
void
scanRange(const ProfileHmm &prof, const SequenceDatabase &db,
          io::PageCache &cache, std::mutex &cache_mutex,
          const SearchConfig &cfg, double now, size_t begin,
          size_t end, MemTraceSink *sink, SearchResult &out)
{
    const uint64_t epochBase = streamEpochBase(db, cfg);
    for (size_t i = begin; i < end; ++i)
        scanTarget(prof, db, cache, cache_mutex, cfg, epochBase, now,
                   i, sink, out);
}

/** Append @p parts to @p out in order (counters merge, hits and
 *  survivors concatenate; the caller sorts them canonically). */
void
mergePartials(const std::vector<SearchResult> &parts, SearchResult &out)
{
    for (const auto &p : parts) {
        out.stats.merge(p.stats);
        out.hits.insert(out.hits.end(), p.hits.begin(), p.hits.end());
        out.msvSurvivors.insert(out.msvSurvivors.end(),
                                p.msvSurvivors.begin(),
                                p.msvSurvivors.end());
    }
}

} // namespace

SearchResult
searchDatabase(const ProfileHmm &prof, const SequenceDatabase &db,
               io::PageCache &cache, ThreadPool *pool,
               const SearchConfig &cfg, double now,
               const std::vector<MemTraceSink *> &sinks)
{
    const size_t n = db.size();
    const size_t workers = scanWorkers(cfg, pool, "searchDatabase");
    if (!sinks.empty() && sinks.size() < workers)
        fatal("searchDatabase: fewer sinks than workers");
    if (!sinks.empty())
        requireTraceConfig(cfg.kernel, "searchDatabase");

    SearchResult result;
    // Shard subrange [b, e): the default config covers the whole
    // database; a shard's slice partitions only its own targets.
    const size_t b = std::min(cfg.targetBegin, n);
    const size_t e = std::min(cfg.targetEnd, n);
    if (b >= e)
        return result;
    const size_t count = e - b;

    std::mutex cacheMutex;
    if (workers <= 1 || !pool) {
        scanRange(prof, db, cache, cacheMutex, cfg, now, b, e,
                  sinks.empty() ? nullptr : sinks[0], result);
    } else if (sinks.empty()) {
        // Untraced wall-clock scan: targets cost wildly different
        // amounts (MSV survivors run two more kernels), so carve the
        // range into blocks much finer than the worker count and let
        // the pool balance them. Partials are merged in block order,
        // so results are deterministic for a given worker count.
        const size_t grain = scanGrain(count, workers);
        const size_t blocks = (count + grain - 1) / grain;
        std::vector<SearchResult> partial(blocks);
        pool->parallelFor(count, grain,
                          [&](size_t begin, size_t end) {
                              scanRange(prof, db, cache, cacheMutex,
                                        cfg, now, b + begin, b + end,
                                        nullptr,
                                        partial[begin / grain]);
                          });
        mergePartials(partial, result);
    } else {
        // Traced scan: the worker -> sink -> target partition is
        // part of the simulated trace contract; keep the original
        // equal-count split so the streams stay byte-identical.
        std::vector<SearchResult> partial(workers);
        const size_t chunk = (count + workers - 1) / workers;
        pool->parallelBlocks(
            workers, [&](size_t, size_t wb, size_t we) {
                for (size_t w = wb; w < we; ++w) {
                    const size_t begin = b + w * chunk;
                    const size_t end = std::min(e, begin + chunk);
                    if (begin >= end)
                        continue;
                    scanRange(prof, db, cache, cacheMutex, cfg, now,
                              begin, end, sinks[w], partial[w]);
                }
            });
        mergePartials(partial, result);
    }

    // Canonical ordering regardless of which path (and which worker
    // interleaving) produced the results: hits by descending Forward
    // score with the target index as a total-order tie break,
    // survivors ascending.
    std::sort(result.hits.begin(), result.hits.end(),
              [](const Hit &a, const Hit &b) {
                  if (a.forwardLogOdds != b.forwardLogOdds)
                      return a.forwardLogOdds > b.forwardLogOdds;
                  return a.targetIndex < b.targetIndex;
              });
    std::sort(result.msvSurvivors.begin(),
              result.msvSurvivors.end());
    return result;
}

DeltaSearchResult
deltaSearch(const ProfileHmm &prof, const SequenceDatabase &db,
            io::PageCache &cache, const SearchConfig &cfg,
            const std::vector<uint32_t> &survivors, double now,
            double min_retention)
{
    DeltaSearchResult delta;
    const size_t n = db.size();
    const uint64_t epochBase = streamEpochBase(db, cfg);
    std::mutex cacheMutex;

    // The survivor set is a small fraction of the database (the MSV
    // pass rate is ~20-30%), so the delta runs single-threaded; its
    // whole point is doing orders of magnitude less work than the
    // full scan, not parallelizing what's left.
    for (const uint32_t idx : survivors) {
        if (idx >= n)
            continue; // stale survivor beyond this database's range
        ++delta.survivorsRescored;
        scanTarget(prof, db, cache, cacheMutex, cfg, epochBase, now,
                   idx, nullptr, delta.result);
    }
    delta.survivorsRetained = delta.result.stats.msvPassed;

    // Acceptance: if the mutated query drops too many of the cached
    // survivors at the prefilter, the cached set likely also misses
    // targets a full scan would now admit — reject and let the
    // caller fall back to the full sharded scan.
    delta.accepted = delta.survivorsRescored > 0 &&
                     delta.retention() >= min_retention;

    std::sort(delta.result.hits.begin(), delta.result.hits.end(),
              [](const Hit &a, const Hit &b) {
                  if (a.forwardLogOdds != b.forwardLogOdds)
                      return a.forwardLogOdds > b.forwardLogOdds;
                  return a.targetIndex < b.targetIndex;
              });
    std::sort(delta.result.msvSurvivors.begin(),
              delta.result.msvSurvivors.end());
    return delta;
}

SearchResult
searchDatabaseStreaming(const ProfileHmm &prof,
                        const StreamingSequenceDatabase &db,
                        const SearchConfig &cfg, double now)
{
    SearchResult result;
    const size_t n = db.size();
    const size_t b = std::min(cfg.targetBegin, n);
    const size_t e = std::min(cfg.targetEnd, n);

    // Same per-epoch virtual window as the in-RAM scan so the
    // kernels' trace-address config matches (no sink is ever
    // attached here, but identical configs keep the equivalence
    // unconditional).
    constexpr uint64_t kStreamBase = 0x6000'0000'0000ull;
    const uint64_t epochBase =
        kStreamBase + static_cast<uint64_t>(cfg.streamEpoch) *
                          (db.info().scaledBytes + (1ull << 20));

    const uint64_t disk0 = db.readerStats().bytesFromDisk;
    const double lat0 = db.readerStats().ioLatency;
    for (size_t i = b; i < e; ++i) {
        // Decode through the bounded block LRU; sequential scans
        // keep at most the decode budget resident, so the loop
        // never materializes the collection.
        const bio::Sequence target = db.materialize(i, now);
        const auto extent = db.byteExtent(i);
        KernelConfig kernel = cfg.kernel;
        kernel.targetBase = epochBase + extent.offset;
        result.stats.bytesStreamed += extent.length;
        pipelineTarget(prof, target, kernel, cfg, i, nullptr,
                       result);
    }
    result.stats.bytesFromDisk +=
        db.readerStats().bytesFromDisk - disk0;
    result.stats.ioLatency += db.readerStats().ioLatency - lat0;

    std::sort(result.hits.begin(), result.hits.end(),
              [](const Hit &a, const Hit &b) {
                  if (a.forwardLogOdds != b.forwardLogOdds)
                      return a.forwardLogOdds > b.forwardLogOdds;
                  return a.targetIndex < b.targetIndex;
              });
    std::sort(result.msvSurvivors.begin(),
              result.msvSurvivors.end());
    return result;
}

} // namespace afsb::msa
