#include "msa/profile_hmm.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace afsb::msa {

ProfileHmm
ProfileHmm::fromSequence(const bio::Sequence &query,
                         const ScoreMatrix &matrix, GapModel gaps)
{
    if (query.empty())
        fatal("ProfileHmm: empty query");
    ProfileHmm p;
    p.length_ = query.length();
    p.alphabet_ = matrix.size();
    p.gaps_ = gaps;
    p.emissions_.resize(p.length_ * p.alphabet_);
    for (size_t pos = 0; pos < p.length_; ++pos) {
        const uint8_t q = query[pos];
        for (size_t r = 0; r < p.alphabet_; ++r) {
            const int s = matrix.score(q, static_cast<uint8_t>(r));
            p.emissions_[pos * p.alphabet_ + r] =
                static_cast<int16_t>(s);
            p.maxEmission_ = std::max(p.maxEmission_, s);
        }
    }
    return p;
}

ProfileHmm
ProfileHmm::fromAlignment(
    const std::vector<const bio::Sequence *> &aligned,
    const ScoreMatrix &matrix, GapModel gaps)
{
    if (aligned.empty())
        fatal("ProfileHmm: empty alignment");
    const size_t len = aligned.front()->length();
    for (const auto *s : aligned)
        if (s->length() != len)
            fatal("ProfileHmm: alignment rows differ in length");

    ProfileHmm p;
    p.length_ = len;
    p.alphabet_ = matrix.size();
    p.gaps_ = gaps;
    p.emissions_.resize(p.length_ * p.alphabet_);

    // Column residue counts with +1 pseudocounts become half-bit
    // log-odds emissions against the background model — the same
    // scale BLOSUM62 is expressed in, so scan thresholds carry over
    // across jackhmmer rounds.
    const auto type = aligned.front()->type();
    std::vector<double> counts(p.alphabet_);
    for (size_t pos = 0; pos < len; ++pos) {
        std::fill(counts.begin(), counts.end(), 1.0);
        for (const auto *s : aligned)
            counts[(*s)[pos]] += 1.0;
        double total = 0.0;
        for (double c : counts)
            total += c;
        for (size_t r = 0; r < p.alphabet_; ++r) {
            const double freq = counts[r] / total;
            const double bg = bio::backgroundFrequency(
                type, static_cast<uint8_t>(r));
            const int s = static_cast<int>(
                std::lround(2.0 * std::log2(freq / bg)));
            p.emissions_[pos * p.alphabet_ + r] =
                static_cast<int16_t>(s);
            p.maxEmission_ = std::max(p.maxEmission_, s);
        }
    }
    return p;
}

} // namespace afsb::msa
