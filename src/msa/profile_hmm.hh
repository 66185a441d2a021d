/**
 * @file
 * Plan7-style profile hidden Markov model.
 *
 * JackHMMER builds a profile from the query (round 1) or from the
 * accumulated alignment (later rounds) and scans the database with
 * it. The profile here follows the HMMER structure in miniature:
 * per-position match emission scores (query residue + BLOSUM-derived
 * pseudocounts, converted to integer log-odds), affine
 * insert/delete transitions, and local (Smith-Waterman-like) entry
 * and exit so alignments may start and end anywhere.
 */

#ifndef AFSB_MSA_PROFILE_HMM_HH
#define AFSB_MSA_PROFILE_HMM_HH

#include <cstdint>
#include <vector>

#include "bio/sequence.hh"
#include "msa/score_matrix.hh"

namespace afsb::msa {

/** Transition penalties (positive costs subtracted from scores). */
struct GapModel
{
    int open = 11;     ///< gap-open cost (BLOSUM62 default)
    int extend = 1;    ///< gap-extend cost
};

/** Position-specific scoring profile. */
class ProfileHmm
{
  public:
    /**
     * Single-sequence profile: emissions are the substitution-matrix
     * column of the query residue at each position.
     */
    static ProfileHmm fromSequence(const bio::Sequence &query,
                                   const ScoreMatrix &matrix,
                                   GapModel gaps = {});

    /**
     * Profile from a set of aligned same-length sequences (a trivial
     * alignment column model with +1 pseudocounts), used by
     * jackhmmer iterations after hits are included.
     */
    static ProfileHmm fromAlignment(
        const std::vector<const bio::Sequence *> &aligned,
        const ScoreMatrix &matrix, GapModel gaps = {});

    /** Number of match states (query length). */
    size_t length() const { return length_; }

    /** Alphabet size (20 protein, 4 nucleotide). */
    size_t alphabet() const { return alphabet_; }

    /** Match emission score at position @p pos for residue @p res. */
    int
    matchScore(size_t pos, uint8_t res) const
    {
        return emissions_[pos * alphabet_ + res];
    }

    /** Raw emission row pointer for the inner DP loops. */
    const int16_t *
    row(size_t pos) const
    {
        return emissions_.data() + pos * alphabet_;
    }

    const GapModel &gaps() const { return gaps_; }

    /** Maximum attainable per-position score. */
    int maxEmission() const { return maxEmission_; }

    /** Bytes used by the emission table (memory accounting). */
    size_t footprintBytes() const
    {
        return emissions_.size() * sizeof(int16_t);
    }

  private:
    size_t length_ = 0;
    size_t alphabet_ = 0;
    GapModel gaps_;
    int maxEmission_ = 0;
    std::vector<int16_t> emissions_;  ///< length_ x alphabet_
};

} // namespace afsb::msa

#endif // AFSB_MSA_PROFILE_HMM_HH
