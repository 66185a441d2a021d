/**
 * @file
 * Test-only scalar reference for the traced MSA kernels.
 *
 * Cell-by-cell DP loops with the per-SIMD-block trace emission
 * interleaved into the recurrence — the form the trace goldens were
 * captured from. The library kernels compute the same results
 * without emitting and emit from a separate sampled-cell walk;
 * these loops are the oracle they are checked against: results
 * (scores, endpoints, cell counts, Forward log-odds bits) and, with
 * a sink attached, the full event stream (every access, instruction
 * batch, and branch batch, in order) must match exactly.
 *
 * A null sink runs the same loops without emission.
 *
 * alignToProfile is kept here too, as the full-matrix aligner the
 * rolling-row library version is checked against (score, cells, and
 * the profile-to-target map).
 */

#ifndef AFSB_TESTS_MSA_DP_REFERENCE_HH
#define AFSB_TESTS_MSA_DP_REFERENCE_HH

#include "msa/dp_kernels.hh"

namespace afsb::msa::reference {

/** Scalar ungapped max-segment prefilter. */
MsvResult msvFilter(const ProfileHmm &prof, const bio::Sequence &target,
                    const KernelConfig &cfg = {},
                    MemTraceSink *sink = nullptr);

/** Scalar banded affine-gap local Viterbi. */
ViterbiResult calcBand9(const ProfileHmm &prof,
                        const bio::Sequence &target,
                        const KernelConfig &cfg = {},
                        MemTraceSink *sink = nullptr);

/** Scalar banded Forward rescore. */
ForwardResult calcBand10(const ProfileHmm &prof,
                         const bio::Sequence &target,
                         const KernelConfig &cfg = {},
                         MemTraceSink *sink = nullptr);

/** Full-matrix local affine DP with traceback (three score and three
 *  backpointer matrices). */
AlignmentResult alignToProfile(const ProfileHmm &prof,
                               const bio::Sequence &target,
                               const KernelConfig &cfg = {});

} // namespace afsb::msa::reference

#endif // AFSB_TESTS_MSA_DP_REFERENCE_HH
