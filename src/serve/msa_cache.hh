/**
 * @file
 * Content-addressed MSA result cache with LRU eviction under a byte
 * budget — the AF_Cache optimization — plus an optional similarity
 * tier: an LSH-banded MinHash sketch index that finds the cached
 * entry of a *near-identical* query when the exact key misses.
 *
 * The MSA phase dominates end-to-end AF3 latency (70-94% in the
 * paper) yet its output depends only on the query sequences, so a
 * cluster serving overlapping query populations can skip the phase
 * entirely for repeated queries. Keys are 64-bit digests of the
 * query content (serve::queryContentHash); values are the byte
 * footprint of the stored alignment, which drives eviction against
 * the configured budget. Entries inserted with a sketch additionally
 * register in per-band hash tables; approxLookup() probes those
 * bands and returns the best Jaccard-estimated candidate, which the
 * serving path turns into a delta re-search (msa::deltaSearch)
 * instead of a full database scan.
 */

#ifndef AFSB_SERVE_MSA_CACHE_HH
#define AFSB_SERVE_MSA_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "msa/sketch.hh"

namespace afsb::serve {

/** Byte-budgeted LRU cache of MSA results, keyed by content hash. */
class MsaResultCache
{
  public:
    /** Result of one lookup. */
    enum class Lookup {
        Miss,    ///< key absent
        Hit,     ///< key present, checksum verified
        Corrupt, ///< key present but failed its checksum; dropped
    };

    /** Outcome of one similarity probe. */
    struct ApproxResult
    {
        /** A banded candidate existed (regardless of threshold). */
        bool candidate = false;

        /** Candidate met the Jaccard threshold; `key` is usable. */
        bool accepted = false;

        uint64_t key = 0;     ///< best candidate's exact cache key
        double jaccard = 0.0; ///< its estimated Jaccard similarity
    };

    /** Hit/miss/eviction counters. */
    struct Stats
    {
        uint64_t lookups = 0;
        uint64_t hits = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
        uint64_t rejected = 0;  ///< entries larger than the budget
        uint64_t corrupted = 0; ///< checksum mismatches on lookup

        uint64_t approxLookups = 0; ///< similarity probes
        uint64_t approxHits = 0;    ///< probes accepted at threshold

        uint64_t misses() const { return lookups - hits; }

        /** Counter-wise sum (whole-cluster aggregate over shards). */
        Stats &
        operator+=(const Stats &o)
        {
            lookups += o.lookups;
            hits += o.hits;
            insertions += o.insertions;
            evictions += o.evictions;
            rejected += o.rejected;
            corrupted += o.corrupted;
            approxLookups += o.approxLookups;
            approxHits += o.approxHits;
            return *this;
        }

        double
        hitRate() const
        {
            return lookups
                       ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
        }

        double
        approxHitRate() const
        {
            return approxLookups
                       ? static_cast<double>(approxHits) /
                             static_cast<double>(approxLookups)
                       : 0.0;
        }
    };

    /** @param budget_bytes 0 disables the cache entirely. */
    explicit MsaResultCache(uint64_t budget_bytes)
        : budgetBytes_(budget_bytes)
    {}

    /**
     * Look up @p key; a verified hit refreshes its LRU position.
     * Every stored entry carries a checksum of (key, bytes) taken
     * at insertion; a mismatch on lookup (bit rot, or fault
     * injection via corrupt()) drops the entry — and its sketch
     * bands — and reports Lookup::Corrupt; the caller re-derives
     * the result through the MSA stage, exactly as a production
     * cache would on a failed integrity check. Counted in stats().
     */
    Lookup lookup(uint64_t key);

    /**
     * Insert (or refresh) @p key at @p bytes, evicting least-
     * recently-used entries until the budget holds it. Entries
     * larger than the whole budget are rejected (counted, not
     * stored).
     */
    void insert(uint64_t key, uint64_t bytes);

    /**
     * Insert with a query sketch: additionally registers the entry
     * in the LSH band tables so later approxLookup() probes can find
     * it. An empty sketch degrades to the exact-only insert.
     */
    void insert(uint64_t key, uint64_t bytes,
                const msa::QuerySketch &sketch);

    /**
     * Similarity probe: hash @p probe into each LSH band, collect
     * the cached entries colliding in any band, and return the one
     * with the highest estimated Jaccard (ties to the smaller key,
     * so the result is deterministic regardless of hash-table
     * iteration order). `accepted` requires jaccard >= @p threshold;
     * an accepted probe refreshes the candidate's LRU position (the
     * delta re-search is about to reuse its survivor set). Does not
     * count toward exact lookup/hit stats.
     */
    ApproxResult approxLookup(const msa::QuerySketch &probe,
                              double threshold);

    /**
     * Flip a bit in @p key's stored checksum (fault injection: the
     * entry decayed in storage). Returns false (no-op) when the key
     * is absent; the corruption is discovered — and the entry
     * dropped — only on the next lookup.
     */
    bool corrupt(uint64_t key);

    const Stats &stats() const { return stats_; }
    uint64_t budgetBytes() const { return budgetBytes_; }
    uint64_t bytesInUse() const { return bytesInUse_; }
    size_t entries() const { return index_.size(); }

    /** Entries carrying a sketch (== keys registered in bands). */
    size_t sketchedEntries() const { return sketches_.size(); }

    /** LSH shape shared by sketching and banding. */
    const msa::SketchConfig &sketchConfig() const { return lsh_; }

  private:
    struct Entry
    {
        uint64_t key;
        uint64_t bytes;
        uint64_t checksum;
    };

    /** Content digest stored with each entry and re-derived on
     *  lookup. */
    static uint64_t checksumOf(uint64_t key, uint64_t bytes);

    void evictOne();

    /** Drop @p key from the band tables and sketch store (no-op
     *  when the entry never carried a sketch). */
    void dropSketch(uint64_t key);

    uint64_t budgetBytes_;
    uint64_t bytesInUse_ = 0;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;

    msa::SketchConfig lsh_;
    /** key -> its sketch (kept for Jaccard scoring on probes). */
    std::unordered_map<uint64_t, msa::QuerySketch> sketches_;
    /** band hash -> keys whose sketch collides in that band. */
    std::unordered_map<uint64_t, std::vector<uint64_t>> bands_;

    Stats stats_;
};

} // namespace afsb::serve

#endif // AFSB_SERVE_MSA_CACHE_HH
