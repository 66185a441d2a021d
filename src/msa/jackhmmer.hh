/**
 * @file
 * JackHMMER analog: iterative profile search for protein chains.
 *
 * Round 1 searches with a single-sequence profile; each later round
 * rebuilds the profile from the alignment accumulated so far and
 * searches again, converging on a deeper MSA. The iteration count,
 * like HMMER's -N, is configurable (AF3 uses shallow iteration).
 */

#ifndef AFSB_MSA_JACKHMMER_HH
#define AFSB_MSA_JACKHMMER_HH

#include <vector>

#include "msa/msa_builder.hh"
#include "msa/search.hh"

namespace afsb::msa {

/** Iterative-search configuration. */
struct JackhmmerConfig
{
    SearchConfig search;
    MsaBuildConfig build;

    /** Search rounds (HMMER default 5; AF3 pipelines use fewer). */
    size_t iterations = 2;
};

/** Result of a full jackhmmer run for one chain. */
struct JackhmmerResult
{
    MsaResult msa;
    SearchStats stats;            ///< totals across rounds
    std::vector<SearchStats> perRound;
    size_t rounds = 0;
};

/**
 * Run iterative search of @p query against @p db.
 * @param pool Optional thread pool (threads from cfg.search).
 * @param sinks Optional per-worker trace sinks.
 */
JackhmmerResult runJackhmmer(
    const bio::Sequence &query, const SequenceDatabase &db,
    io::PageCache &cache, ThreadPool *pool,
    const JackhmmerConfig &cfg, double now = 0.0,
    const std::vector<MemTraceSink *> &sinks = {});

} // namespace afsb::msa

#endif // AFSB_MSA_JACKHMMER_HH
