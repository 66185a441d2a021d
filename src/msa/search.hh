/**
 * @file
 * The database-scan engine: HMMER-style accelerated pipeline.
 *
 * Every target flows through MSV prefilter -> banded Viterbi
 * (calc_band_9) -> banded Forward rescore (calc_band_10); only
 * prefilter survivors reach the expensive kernels. Low-complexity
 * queries (poly-Q) push many spurious targets past the prefilter,
 * inflating calc_band work — the paper's Observation 2 mechanism.
 *
 * The scan streams the database file through the page-cache model
 * (so the Desktop's 64 GiB configuration shows disk traffic where
 * the Server's 512 GiB does not) and partitions targets across a
 * thread pool with per-thread trace sinks for the cache simulator.
 */

#ifndef AFSB_MSA_SEARCH_HH
#define AFSB_MSA_SEARCH_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "msa/database.hh"
#include "msa/dp_kernels.hh"
#include "msa/profile_hmm.hh"
#include "util/threadpool.hh"

namespace afsb::msa {

/** Scan configuration. */
struct SearchConfig
{
    KernelConfig kernel;

    /** Worker threads scanning the database. */
    size_t threads = 1;

    /** Bits of headroom added to the random-expectation prefilter
     *  threshold; lower admits more targets to the DP kernels.
     *  HMMER's filter cascade is deliberately permissive (~20-30%
     *  of targets reach the banded kernels here). */
    double msvSlack = 6.0;

    /** Viterbi score margin (above the MSV threshold) for a target
     *  to proceed to Forward rescoring. */
    int viterbiMargin = 12;

    /** Forward log-odds threshold for final hit acceptance. */
    double forwardThreshold = 18.0;

    /**
     * Stream epoch: distinct database passes (jackhmmer rounds) get
     * distinct virtual address windows so a re-scan misses the
     * caches the way re-reading a 60 GiB collection would.
     */
    uint32_t streamEpoch = 0;
};

/** One accepted hit. */
struct Hit
{
    size_t targetIndex = 0;
    int viterbiScore = 0;
    double forwardLogOdds = 0.0;
};

/**
 * Always zero. These counters belonged to the staged scan, which is
 * gone; the struct stays only because perfbench/src/native_fold.cc
 * reads these four members for its msa.stage.* metrics, and perfbench
 * changes only in a `[benchmark]` change. That change should drop
 * the metrics, then this struct.
 */
struct ScanStageStats
{
    uint64_t chunkWaits = 0;
    uint64_t producerWaits = 0;
    uint64_t survivorsInline = 0;

    double occupancy() const { return 0.0; }
};

/** Aggregated counters for one scan. */
struct SearchStats
{
    uint64_t targetsScanned = 0;
    uint64_t residuesScanned = 0;
    uint64_t msvPassed = 0;       ///< survived the prefilter
    uint64_t viterbiPassed = 0;   ///< candidate alignments
    uint64_t domainsScored = 0;   ///< post-pipeline domain passes
    uint64_t hits = 0;

    uint64_t cellsMsv = 0;
    uint64_t cellsViterbi = 0;
    uint64_t cellsForward = 0;

    uint64_t bytesStreamed = 0;   ///< through the page-cache model
    uint64_t bytesFromDisk = 0;
    double ioLatency = 0.0;       ///< simulated seconds

    /** Always zero; see ScanStageStats. */
    ScanStageStats stages;

    void merge(const SearchStats &other);

    /** Prefilter pass rate. */
    double
    msvPassRate() const
    {
        return targetsScanned
                   ? static_cast<double>(msvPassed) /
                         static_cast<double>(targetsScanned)
                   : 0.0;
    }
};

/** Result of one database scan. */
struct SearchResult
{
    std::vector<Hit> hits;  ///< sorted by descending Forward score
    SearchStats stats;

    /**
     * Target indices that passed the MSV prefilter, ascending. The
     * serving similarity tier caches them per query, and its delta
     * re-search (deltaSearch) rescores only this set.
     */
    std::vector<uint32_t> msvSurvivors;
};

/**
 * Scan @p db with @p prof.
 *
 * @param prof Query profile.
 * @param db Parsed database (shared, read-only).
 * @param cache Page-cache model for streaming simulation.
 * @param pool Thread pool; the scan uses min(cfg.threads, pool size)
 *        workers. Pass nullptr for single-threaded scanning.
 * @param cfg Pipeline thresholds and kernel knobs.
 * @param now Simulated start time (for I/O modeling).
 * @param sinks Optional per-worker trace sinks (size >= threads) for
 *        the cache simulator; empty disables tracing.
 */
SearchResult searchDatabase(
    const ProfileHmm &prof, const SequenceDatabase &db,
    io::PageCache &cache, ThreadPool *pool, const SearchConfig &cfg,
    double now = 0.0,
    const std::vector<MemTraceSink *> &sinks = {});

/** Outcome of a delta re-search against a cached survivor set. */
struct DeltaSearchResult
{
    /**
     * True when the delta's acceptance check held: the rescored
     * survivor set retained at least `minRetention` of its members
     * past the MSV prefilter. A rejected delta means the cached
     * survivor set no longer covers this query — the caller must
     * fall back to a full database scan.
     */
    bool accepted = false;

    /** Hits/stats over the survivor subset only (canonical order). */
    SearchResult result;

    uint64_t survivorsRescored = 0; ///< cached survivors re-run
    uint64_t survivorsRetained = 0; ///< still past the MSV filter

    double
    retention() const
    {
        return survivorsRescored
                   ? static_cast<double>(survivorsRetained) /
                         static_cast<double>(survivorsRescored)
                   : 0.0;
    }
};

/**
 * Delta re-search: rescore only @p survivors (a cached query's MSV
 * survivor set, ascending target indices) against @p prof instead of
 * scanning the whole database — the similarity-cache fast path for a
 * near-identical query. Runs the identical MSV -> Viterbi -> Forward
 * pipeline per target (same thresholds, same page-cache streaming),
 * so for the *same* query the delta's hit set equals the full scan's
 * (full-scan hits are always a subset of its MSV survivors).
 *
 * Acceptance: the fraction of survivors still passing the MSV
 * prefilter must be >= @p min_retention (and the set non-empty);
 * otherwise `accepted` is false and `result` must be discarded in
 * favor of a full scan.
 */
DeltaSearchResult deltaSearch(const ProfileHmm &prof,
                              const SequenceDatabase &db,
                              io::PageCache &cache,
                              const SearchConfig &cfg,
                              const std::vector<uint32_t> &survivors,
                              double now = 0.0,
                              double min_retention = 0.5);

/**
 * Scan a block-compressed streaming database: targets are decoded
 * on demand through the container's bounded LRU (see
 * msa/database.hh), so peak residency is the decode budget — not
 * the collection size. Single-threaded sequential pass; runs the
 * identical per-target filter cascade as searchDatabase, so the hit
 * set over the same FASTA bytes is bit-identical to the in-RAM
 * scan's. I/O (compressed-side reads through the page cache /
 * storage models) is accounted in the returned stats.
 */
SearchResult searchDatabaseStreaming(
    const ProfileHmm &prof, const StreamingSequenceDatabase &db,
    const SearchConfig &cfg, double now = 0.0);

/**
 * Prefilter threshold for a profile: the expected best random
 * ungapped segment score against a target of length @p target_len
 * plus cfg.msvSlack bits (Karlin-Altschul-style log expectation).
 */
int msvThreshold(const ProfileHmm &prof, size_t target_len,
                 const SearchConfig &cfg);

/**
 * Worker count for a scan: min(cfg.threads, pool size), at least 1.
 * Warns (once per call) when cfg.threads exceeds the pool — the
 * request cannot be honored and used to clamp silently.
 * @param who Caller name for the warning ("searchDatabase", ...).
 */
size_t scanWorkers(const SearchConfig &cfg, const ThreadPool *pool,
                   const char *who);

/**
 * Shared block-size policy for scan parallelism: ~8 blocks per
 * worker so skewed per-target cost load-balances, with a floor of
 * one target per block.
 */
size_t scanGrain(size_t n, size_t workers);

/** Scans targets [begin, end) into @p out, traced into @p sink
 *  when it is non-null. */
using ScanRange = std::function<void(size_t begin, size_t end,
                                     MemTraceSink *sink,
                                     SearchResult &out)>;

/**
 * The partition routine of every database scan (searchDatabase,
 * runNhmmer): runs @p scan over targets [0, @p n) and merges the
 * partial results in block order (counters add, hits and survivors
 * concatenate; the caller sorts them). Three legs:
 * - serial on the calling thread when @p workers <= 1 or there is
 *   no pool, traced into sinks[0] if @p sinks is non-empty;
 * - untraced: blocks of scanGrain(n, workers) targets on at most
 *   @p workers threads, the calling thread included, so skewed
 *   per-target cost load-balances;
 * - traced: one equal slice per worker, slice w traced into
 *   sinks[w] (the worker -> sink -> target split is part of the
 *   trace contract).
 */
SearchResult scanPartitioned(size_t n, size_t workers,
                             ThreadPool *pool,
                             const std::vector<MemTraceSink *> &sinks,
                             const ScanRange &scan);

/**
 * The filter cascade for one parsed target, shared by every scan so
 * all apply bit-identical thresholds: MSV prefilter, banded
 * Viterbi/Forward on survivors, domain accounting. Survivors and
 * hits are recorded under target index @p i.
 */
void pipelineTarget(const ProfileHmm &prof, const bio::Sequence &target,
                    const KernelConfig &kernel, const SearchConfig &cfg,
                    size_t i, MemTraceSink *sink, SearchResult &out);

} // namespace afsb::msa

#endif // AFSB_MSA_SEARCH_HH
