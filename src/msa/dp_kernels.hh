/**
 * @file
 * The MSA alignment compute kernels.
 *
 * These are the analogs of the hot functions the paper's perf
 * profile attributes most MSA cycles to (Table IV):
 *
 *  - msvFilter    — ungapped max-segment prefilter (HMMER MSV/SSV
 *                   stage); runs over every database target.
 *  - calcBand9    — banded affine-gap Viterbi over the profile; runs
 *                   on targets passing the prefilter. The paper's
 *                   calc_band_9 symbol.
 *  - calcBand10   — banded Forward rescore in probability space with
 *                   per-row rescaling; the calc_band_10 symbol.
 *  - alignToProfile — unbanded local affine-gap DP with traceback,
 *                   used to place accepted hits into MSA rows; the
 *                   score rows roll, and one backpointer byte per
 *                   cell is kept for the traceback.
 *
 * All kernels do real arithmetic over real sequences; with a
 * MemTraceSink attached they additionally emit a (sampled) memory
 * reference stream plus instruction/branch counts so the cache
 * simulator can reproduce the paper's per-platform counters.
 *
 * One arithmetic path, a separate trace walk
 * ------------------------------------------
 * The scores come from the same loops whether or not a sink is
 * attached. msvFilter and calcBand9 run branch-light striped loops
 * over transposed per-residue emission rows, written so the compiler
 * autovectorizes the previous-row-only recurrences (M/I states; the
 * loop-carried D state runs as a short scalar pass), and return
 * bit-identical results to the cell-by-cell scalar recurrence.
 * calcBand10 keeps the scalar cell order (same expressions, same
 * ascending-k accumulation) over a per-residue exp2 table, so its
 * log-odds bits equal the scalar recurrence's too.
 *
 * With a sink attached, the trace comes from a separate walk over
 * only the sampled cells (one 16-cell SIMD block in traceStride).
 * No emitted address depends on a DP value, and the arithmetic never
 * calls the sink, so the sink sees the same accesses, instruction
 * batches and branch batches, in the same order, as the original
 * interleaved scalar loops. That stream is the stability contract
 * for the cache simulator: tests/msa/test_traced_determinism.cc pins
 * golden hashes of it, and tests/msa/dp_reference.cc keeps the
 * original emitting scalar loops as a test-only oracle the kernels
 * are checked against event for event.
 */

#ifndef AFSB_MSA_DP_KERNELS_HH
#define AFSB_MSA_DP_KERNELS_HH

#include <cstdint>
#include <vector>

#include "bio/sequence.hh"
#include "msa/profile_hmm.hh"
#include "util/memtrace.hh"

namespace afsb::msa {

/** Shared kernel knobs. */
struct KernelConfig
{
    /** Half-width of the DP band around the main diagonal. */
    size_t band = 96;

    /**
     * Trace sampling stride in SIMD blocks: with a sink attached,
     * one 16-cell SIMD block in @p traceStride emits its memory
     * references (the consumer weights misses back by the same
     * stride). 1 = every block; 0 is rejected with a FatalError
     * when a sink is attached (requireTraceConfig).
     */
    uint32_t traceStride = 1;

    /**
     * Paper-scale virtual base address of the target residues.
     * The scan engine spreads targets across the full reference-
     * collection address space so the simulated hierarchy sees the
     * real streaming footprint (60+ GiB), not the scaled-down file.
     * 0 disables the stream reference.
     */
    uint64_t targetBase = 0;

    /**
     * Sparse-rescue heap arena (HMMER's per-target allocation
     * churn). Two access classes are emitted into it:
     *
     *  - metadata references (one per SIMD block): one line at the
     *    head of a pseudo-random arena page — page-diverse but
     *    line-light, so they thrash AMD's 4 KiB-page dTLB (the
     *    paper's 20-37% rates) while staying L2-resident, and
     *    Intel's THP-backed dTLB covers them (~0.01%);
     *  - capacity references (one per kArenaCells cells): random
     *    lines across the whole arena, whose ~13 MiB working set
     *    exceeds Intel's effective LLC share at every thread count
     *    but fits AMD's 64 MiB until thread slicing shrinks the
     *    share — the Table III LLC-miss contrast.
     *
     * A traced call needs at least one arena page (kArenaPageBytes).
     */
    uint64_t arenaBase = 0x7f50'0000'0000ull;
    uint64_t arenaBytes = 13ull << 20;
};

/** Cells between successive arena capacity references. */
constexpr uint64_t kArenaCells = 32768;

/** Page size of the sparse-rescue arena's metadata references. */
constexpr uint64_t kArenaPageBytes = 4096;

/**
 * Throw a FatalError naming @p who unless @p cfg can drive a traced
 * call: traceStride at least 1 and arenaBytes at least one arena
 * page. Every kernel checks this when a sink is attached; the scans
 * check it once before dispatching workers, so the error surfaces on
 * the calling thread.
 */
void requireTraceConfig(const KernelConfig &cfg, const char *who);

/** SIMD width the instruction/trace accounting assumes (HMMER's
 *  16-lane int8/float vector kernels). */
constexpr uint32_t kSimdWidth = 16;

/** Result of the ungapped prefilter. */
struct MsvResult
{
    int score = 0;        ///< best ungapped segment score
    uint64_t cells = 0;   ///< DP cells computed
};

/** Result of the banded Viterbi kernel. */
struct ViterbiResult
{
    int score = 0;        ///< best local alignment score
    size_t endTarget = 0; ///< target index of the best cell
    size_t endProfile = 0;///< profile position of the best cell
    uint64_t cells = 0;
};

/** Result of the banded Forward kernel. */
struct ForwardResult
{
    double logOdds = 0.0; ///< log2 odds vs the null model
    uint64_t cells = 0;
};

/** Result of traceback alignment. */
struct AlignmentResult
{
    int score = 0;
    uint64_t cells = 0;

    /**
     * For each profile position, the aligned target index, or -1
     * when the position is deleted in the target.
     */
    std::vector<int32_t> profileToTarget;
};

/** Ungapped max-segment prefilter over the full target. */
MsvResult msvFilter(const ProfileHmm &prof,
                    const bio::Sequence &target,
                    const KernelConfig &cfg = {},
                    MemTraceSink *sink = nullptr);

/** Banded affine-gap local Viterbi (calc_band_9 analog). */
ViterbiResult calcBand9(const ProfileHmm &prof,
                        const bio::Sequence &target,
                        const KernelConfig &cfg = {},
                        MemTraceSink *sink = nullptr);

/** Banded Forward rescore (calc_band_10 analog). */
ForwardResult calcBand10(const ProfileHmm &prof,
                         const bio::Sequence &target,
                         const KernelConfig &cfg = {},
                         MemTraceSink *sink = nullptr);

/**
 * Unbanded local affine-gap alignment with traceback, for MSA row
 * construction. Untraced; @p cfg is not read (the DP is unbanded).
 */
AlignmentResult alignToProfile(const ProfileHmm &prof,
                               const bio::Sequence &target,
                               const KernelConfig &cfg = {});

} // namespace afsb::msa

#endif // AFSB_MSA_DP_KERNELS_HH
