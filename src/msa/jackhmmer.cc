#include "msa/jackhmmer.hh"

#include "util/logging.hh"

namespace afsb::msa {

JackhmmerResult
runJackhmmer(const bio::Sequence &query, const SequenceDatabase &db,
             io::PageCache &cache, ThreadPool *pool,
             const JackhmmerConfig &cfg, double now,
             const std::vector<MemTraceSink *> &sinks)
{
    if (query.type() != bio::MoleculeType::Protein)
        fatal("jackhmmer: protein queries only");

    JackhmmerResult out;
    const ScoreMatrix &matrix = ScoreMatrix::blosum62();
    ProfileHmm prof = ProfileHmm::fromSequence(query, matrix);

    SearchResult last;
    for (size_t round = 0; round < cfg.iterations; ++round) {
        SearchConfig roundCfg = cfg.search;
        roundCfg.streamEpoch =
            cfg.search.streamEpoch + static_cast<uint32_t>(round);
        last = searchDatabase(prof, db, cache, pool, roundCfg,
                              now + out.stats.ioLatency, sinks);
        out.perRound.push_back(last.stats);
        out.stats.merge(last.stats);
        ++out.rounds;

        if (round + 1 == cfg.iterations || last.hits.empty())
            break;

        // Rebuild the profile from the current alignment. Gap
        // positions take the query residue (consensus carry-over),
        // so rows stay fixed-length for the column model.
        const MsaResult msa =
            buildMsa(query, prof, db, last, cfg.build);
        std::vector<bio::Sequence> rowSeqs;
        rowSeqs.reserve(msa.rows.size());
        for (const auto &row : msa.rows) {
            std::string filled = row;
            for (size_t i = 0; i < filled.size(); ++i)
                if (filled[i] == kGapChar)
                    filled[i] = msa.rows.front()[i];
            rowSeqs.emplace_back("row", query.type(), filled);
        }
        std::vector<const bio::Sequence *> ptrs;
        ptrs.reserve(rowSeqs.size());
        for (const auto &s : rowSeqs)
            ptrs.push_back(&s);
        prof = ProfileHmm::fromAlignment(ptrs, matrix);
    }

    out.msa = buildMsa(query, prof, db, last, cfg.build);
    out.stats.cellsViterbi += out.msa.alignCells;
    // Hit re-alignment ("scoring and filtering" of candidate
    // alignments) is real DP work; low-complexity queries inflate
    // it through their flood of spurious hits (Observation 2).
    if (!sinks.empty() && out.msa.alignCells > 0)
        sinks[0]->instructions(wellknown::calcBand9(),
                               out.msa.alignCells * 2);
    return out;
}

} // namespace afsb::msa
