/**
 * @file
 * Unit-granular bodies of the GEMM-shaped model kernels.
 *
 * PR 3 restructured triangle/single/token attention and the triangle
 * einsum into self-contained work units (one (line, head) pair, one
 * head, one 16-row tile).  This header factors each unit body into a
 * named function so two dispatchers can share them verbatim:
 *
 *  - the fork-join path (layers.cc / diffusion.cc) sweeps units with
 *    ThreadPool::parallelFor, and
 *  - the task-graph path (block_graph.cc) spawns one TaskGroup task
 *    per unit with explicit dependency gates.
 *
 * Sharing the compiled body is what keeps the two paths bit-identical
 * by construction: every output element is produced by the same
 * instruction sequence regardless of scheduler, worker count, or
 * execution order.  Each unit writes a disjoint, pre-assigned slice
 * of its output tensor (slot indexed by unit id, never by completion
 * order) and reads only finished inputs, so any schedule that
 * respects the declared dependencies yields the same bytes.
 */

#ifndef AFSB_MODEL_UNIT_KERNELS_HH
#define AFSB_MODEL_UNIT_KERNELS_HH

#include <cstddef>
#include <vector>

namespace afsb::model::unitk {

/** Row tile of the register-tiled triangle einsum (16 output lines
 *  per unit). */
inline constexpr size_t kMultRowTile = 16;

/** Units in the triangle einsum over n output lines. */
inline size_t
multUnits(size_t n)
{
    return (n + kMultRowTile - 1) / kMultRowTile;
}

/** Per-worker scratch vectors for the attention units (thread-local:
 *  units run on pool workers and the arena is single-threaded by
 *  contract, so unit scratch can never come from the arena). */
std::vector<float> &tlsScratchA();
std::vector<float> &tlsScratchB();

/**
 * Softmax each n-wide row of m in place with the branch-free
 * fastExpf (the fast paths' only deliberate numeric departure from
 * the reference kernels).
 *
 * The row max is an integer max over floatOrderKey keys, which the
 * compiler vectorizes (8 lanes in the AVX2 clone) where a float
 * std::max chain stays one dependent compare per element. On every
 * NaN-free row the output is bit-identical to that float chain: the
 * only value the two maxima can disagree on is the sign of a zero
 * maximum (the keys rank +0 above -0), and then every logit minus
 * either zero is the same value up to the sign of a zero, while
 * fastExpf(+0) and fastExpf(-0) are both exactly 1.0f. A row that
 * contains a NaN may differ.
 */
void softmaxRowsFast(float *m, size_t rows, size_t n);

/**
 * Triangle-attention bias pre-pack, rows r in [r0, r1) of the
 * (heads, n, n) pack with r = h * n + x: pack_h(x, y) is the bias
 * added to logits[x][y].  Reads row x (starting) or column x
 * (ending) of the (n, n, heads) bias tensor.
 */
void packTriBiasRows(float *pack, const float *bias, size_t n,
                     size_t heads, bool starting, size_t r0,
                     size_t r1);

/**
 * One triangle-attention unit u = line * heads + h: K^T slab gather,
 * logits = biasPack_h + Qs_line K_line^T, fastExpf softmax, then
 * ctx_line += P V_line.  qs is pre-scaled by 1/sqrt(dh); ctx rows
 * for the line must start zeroed.  Scratch vectors are resized as
 * needed.
 */
void triAttnUnit(float *ctx, const float *qs, const float *k,
                 const float *v, const float *biasPack, size_t n,
                 size_t heads, size_t dh, bool starting, size_t u,
                 std::vector<float> &ktpScratch,
                 std::vector<float> &logitScratch);

/**
 * One register-tiled triangle-einsum unit: output lines
 * [u*kMultRowTile, min(n, ...+kMultRowTile)) of
 * out[i,j,ch] = sum_k A(i,k)[ch] * B(j,k)[ch], with A/B already in
 * outgoing layout (incoming callers pass line-transposed copies).
 */
void triMultTile(float *out, const float *ap, const float *bp,
                 size_t n, size_t c, size_t u);

/** dst(i, k, :) = src(k, i, :) for lines i in [i0, i1) of an
 *  (n, n, c) tensor. */
void transposeLinesRange(float *dst, const float *src, size_t n,
                         size_t c, size_t i0, size_t i1);

/**
 * One single-attention head unit: the triangle-attention unit
 * without the line loop, bias pack P_h(i, j) = bias[(i*n+j)*heads+h]
 * gathered inline.  Writes the head's dh-wide column slice of every
 * ctx row; ctx must start zeroed.
 */
void singleAttnHead(float *ctx, const float *qs, const float *k,
                    const float *v, const float *bias, size_t n,
                    size_t heads, size_t dh, size_t h,
                    std::vector<float> &ktpScratch,
                    std::vector<float> &logitScratch);

/** Gather K's head-h column slice into a contiguous dh x n
 *  transposed slab (token attention). */
void tokenAttnSlab(float *ktp, const float *k, size_t n,
                   size_t heads, size_t dh, size_t h);

/**
 * Token-attention context rows [r0, r1) for head h against a
 * pre-gathered K^T slab: global (@p window 0) runs the row-block
 * logit GEMM + softmax + context GEMM, local runs one windowed row
 * GEMM per token.  r0 must be even (GEMM pairing).  ctx rows must
 * start zeroed; qs is pre-scaled.
 */
void tokenAttnRows(float *ctx, const float *qs, const float *ktp,
                   const float *v, size_t n, size_t heads, size_t dh,
                   size_t h, size_t window, size_t r0, size_t r1,
                   std::vector<float> &logitScratch);

} // namespace afsb::model::unitk

#endif // AFSB_MODEL_UNIT_KERNELS_HH
