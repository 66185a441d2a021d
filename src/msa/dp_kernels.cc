#include "msa/dp_kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "util/logging.hh"
#include "util/simd.hh"

namespace afsb::msa {

namespace {

constexpr int kNeg = -1 << 20;  ///< "minus infinity" for int DP

/**
 * Instruction cost per DP cell after 16-lane SIMD amortization,
 * expressed as a rational (num/den) so accounting stays integral.
 * HMMER's vector kernels retire well under one instruction per
 * cell on the MSV filter and slightly more on the float pipeline.
 */
constexpr uint64_t kMsvInstrNum = 3, kMsvInstrDen = 5;       // 0.6
constexpr uint64_t kViterbiInstrNum = 6, kViterbiInstrDen = 5; // 1.2
constexpr uint64_t kForwardInstrNum = 8, kForwardInstrDen = 5; // 1.6

/** Cheap deterministic hash for arena addresses. */
inline uint64_t
arenaHash(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 29;
    return x;
}

/**
 * Deterministic virtual windows for the profile emission table and
 * the rolling DP rows. Tracing the buffers' real heap addresses
 * would leak allocator layout and ASLR state into the cache
 * simulator's set indexing, making miss counts (and therefore
 * simulated seconds) vary run to run. Fixed bases preserve the
 * locality structure that matters — profile rows shared across
 * targets, DP rows alternating in place — while keeping every
 * simulated run bit-identical for a given input.
 */
constexpr uint64_t kProfileBase = 0x7f10'0000'0000ull;
constexpr uint64_t kDpBase = 0x7f20'0000'0000ull;

/** Virtual address of the profile emission entry (pos, res). */
inline uint64_t
profAddr(const ProfileHmm &prof, size_t pos, uint8_t res)
{
    return kProfileBase +
           (pos * prof.alphabet() + res) * sizeof(int16_t);
}

/** 64-byte-aligned slot size for a DP row of @p bytes (mirrors the
 *  allocator placing the rows back to back). */
inline uint64_t
dpSlot(uint64_t bytes)
{
    return (bytes + 63) & ~63ull;
}

/**
 * Trace references on their way to the sink, handed over in
 * fixed-size batches in emission order. The owner flushes before
 * any non-access sink call, so the sink sees the same sequence as
 * one access() call per reference.
 */
class TraceBatch
{
  public:
    explicit TraceBatch(MemTraceSink *sink) : sink_(sink) {}

    void
    push(const MemAccess &a)
    {
        buf_[n_++] = a;
        if (n_ == kSize)
            flush();
    }

    void
    flush()
    {
        if (n_ > 0)
            sink_->accesses(buf_, n_);
        n_ = 0;
    }

  private:
    static constexpr size_t kSize = 256;

    MemTraceSink *sink_;
    size_t n_ = 0;
    MemAccess buf_[kSize];
};

/** Emit the per-SIMD-block reference bundle. */
inline void
emitBlock(TraceBatch &out, const KernelConfig &cfg, FuncId func,
          uint64_t profile_addr, uint64_t dp_read_addr,
          uint64_t dp_write_addr, size_t row, uint64_t cell)
{
    out.push({profile_addr, 32, false, func});
    out.push({dp_read_addr, 64, false, func});
    out.push({dp_write_addr, 64, true, func});
    if (cfg.targetBase) {
        // Align to the sampled-trace line grid so stream lines are
        // always ones the reader (copy_to_iter) touched first —
        // compulsory misses belong to the copy, re-reads to us.
        const uint64_t grid = 64ull * cfg.traceStride;
        out.push({cfg.targetBase + (row / grid) * grid, 16, false,
                  func});
    }
    // Metadata reference: head line of a pseudo-random arena page
    // every other block (page-diverse, line-light). The period is
    // 64-bit: 32 * traceStride wraps to 0 in 32 bits at 2^27.
    if (cell % (2 * 16 * uint64_t{cfg.traceStride}) == 0) {
        const uint64_t h = arenaHash(cell + cfg.targetBase * 3);
        const uint64_t page = h % (cfg.arenaBytes / kArenaPageBytes);
        // One fixed line per page (the allocator's chunk header),
        // at a hashed page-dependent offset so the line population
        // is spread over all cache sets (page-aligned or otherwise
        // correlated offsets conflict-thrash a subset of sets).
        const uint64_t lineOff = (arenaHash(page) % 64) * 64;
        out.push({cfg.arenaBase + page * kArenaPageBytes + lineOff, 8,
                  false, func});
    }
    // Capacity reference: random line across the whole arena
    // (sampled like everything else, so the stride weight cancels).
    if (cell % (kArenaCells * cfg.traceStride) == 0) {
        const uint64_t slot =
            arenaHash(cell * 0x9e3779b97f4a7c15ull +
                      cfg.targetBase) %
            (cfg.arenaBytes / 64);
        out.push({cfg.arenaBase + slot * 64, 8, false, func});
    }
}

/** Batched end-of-kernel accounting. */
inline void
finishKernel(MemTraceSink *sink, FuncId func, uint64_t cells,
             uint64_t instr_num, uint64_t instr_den,
             uint64_t data_branch_div)
{
    sink->instructions(func, cells * instr_num / instr_den);
    // SIMD leaves one loop branch per ~8 cells and one
    // data-dependent guard per data_branch_div cells.
    sink->branches(func, cells / 8, cells / data_branch_div);
}

/** Band bounds for target row j (1-based), center following the
 *  main diagonal. */
inline void
bandBounds(size_t j, size_t target_len, size_t profile_len,
           size_t band, size_t &k_lo, size_t &k_hi)
{
    const size_t center =
        (j * profile_len + target_len / 2) / target_len;
    k_lo = center > band ? center - band : 1;
    k_lo = std::max<size_t>(k_lo, 1);
    k_hi = std::min(profile_len, center + band);
    if (k_hi < k_lo)
        k_hi = k_lo;
}

/*
 * Striped kernels
 * ---------------
 * The arithmetic every caller runs, traced or not: per-residue
 * emission rows are transposed into contiguous int/double arrays once
 * per target, and each DP row of MSV and Viterbi is computed in
 * stripes the compiler autovectorizes — the M and I states depend
 * only on the previous row, the loop-carried D state runs as a short
 * scalar second pass. Their integer results (scores, endpoints, cell
 * counts) are bit-identical to the cell-by-cell scalar recurrence.
 * Forward keeps the scalar cell order (calcBand10Ordered).
 */

/** Transposed per-residue int emission rows, filled lazily so short
 *  targets never pay for unused alphabet letters. */
class IntEmissions
{
  public:
    explicit IntEmissions(const ProfileHmm &prof)
        : prof_(prof), m_(prof.length()),
          data_(prof.alphabet() * prof.length()),
          built_(prof.alphabet(), 0)
    {}

    const int *row(uint8_t res)
    {
        int *r = data_.data() + static_cast<size_t>(res) * m_;
        if (!built_[res]) {
            for (size_t k = 0; k < m_; ++k)
                r[k] = prof_.matchScore(k, res);
            built_[res] = 1;
        }
        return r;
    }

  private:
    const ProfileHmm &prof_;
    size_t m_;
    std::vector<int> data_;
    std::vector<uint8_t> built_;
};

/** Transposed per-residue Forward emission probabilities,
 *  exp2(score/2), computed once per residue instead of per cell.
 *  Same exp2 call per (pos, res) as the scalar loop, so values are
 *  bit-identical. */
class DoubleEmissions
{
  public:
    explicit DoubleEmissions(const ProfileHmm &prof)
        : prof_(prof), m_(prof.length()),
          data_(prof.alphabet() * prof.length()),
          built_(prof.alphabet(), 0)
    {}

    const double *row(uint8_t res)
    {
        double *r = data_.data() + static_cast<size_t>(res) * m_;
        if (!built_[res]) {
            for (size_t k = 0; k < m_; ++k)
                r[k] = std::exp2(0.5 * prof_.matchScore(k, res));
            built_[res] = 1;
        }
        return r;
    }

  private:
    const ProfileHmm &prof_;
    size_t m_;
    std::vector<double> data_;
    std::vector<uint8_t> built_;
};

AFSB_SIMD_CLONES
MsvResult
msvFilterFast(const ProfileHmm &prof, const bio::Sequence &target)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    MsvResult result;

    IntEmissions emit(prof);
    std::vector<int> rowA(M + 1, 0), rowB(M + 1, 0);
    int *prev = rowA.data();
    int *cur = rowB.data();
    int best = 0;
    for (size_t j = 1; j <= L; ++j) {
        const int *AFSB_RESTRICT e = emit.row(target[j - 1]);
        const int *AFSB_RESTRICT p = prev;
        int *AFSB_RESTRICT c = cur;
        c[0] = 0;
        int rowBest = 0;
        AFSB_VECTORIZE_LOOP
        for (size_t k = 0; k < M; ++k) {
            const int s = std::max(0, p[k] + e[k]);
            c[k + 1] = s;
            rowBest = std::max(rowBest, s);
        }
        best = std::max(best, rowBest);
        std::swap(prev, cur);
    }
    result.score = best;
    result.cells = static_cast<uint64_t>(L) * M;
    return result;
}

AFSB_SIMD_CLONES
ViterbiResult
calcBand9Fast(const ProfileHmm &prof, const bio::Sequence &target,
              const KernelConfig &cfg)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    ViterbiResult result;

    const int open = prof.gaps().open;
    const int extend = prof.gaps().extend;
    IntEmissions emit(prof);

    std::vector<int> bufs[6];
    for (auto &b : bufs)
        b.assign(M + 1, kNeg);
    int *pM = bufs[0].data(), *pI = bufs[1].data(),
        *pD = bufs[2].data();
    int *cM = bufs[3].data(), *cI = bufs[4].data(),
        *cD = bufs[5].data();

    int best = 0;
    uint64_t cells = 0;
    for (size_t j = 1; j <= L; ++j) {
        const int *AFSB_RESTRICT e = emit.row(target[j - 1]);
        size_t kLo, kHi;
        bandBounds(j, L, M, cfg.band, kLo, kHi);
        std::fill(cM, cM + M + 1, kNeg);
        std::fill(cI, cI + M + 1, kNeg);
        std::fill(cD, cD + M + 1, kNeg);

        {
            // M and I read the previous row only: no carried
            // dependence, a straight-line vector stripe.
            const int *AFSB_RESTRICT prevM = pM;
            const int *AFSB_RESTRICT prevI = pI;
            const int *AFSB_RESTRICT prevD = pD;
            int *AFSB_RESTRICT curM = cM;
            int *AFSB_RESTRICT curI = cI;
            AFSB_VECTORIZE_LOOP
            for (size_t k = kLo; k <= kHi; ++k) {
                const int diag = std::max(
                    std::max(0, prevM[k - 1]),
                    std::max(prevI[k - 1], prevD[k - 1]));
                curM[k] = diag + e[k - 1];
                curI[k] = std::max(prevM[k] - open,
                                   prevI[k] - extend);
            }
        }
        // D carries along the row: short scalar chain.
        for (size_t k = kLo; k <= kHi; ++k)
            cD[k] = std::max(cM[k - 1] - open, cD[k - 1] - extend);

        // The scalar loop records the first cell whose score beats
        // every earlier cell; that is the first occurrence of the
        // row max whenever the row max improves on `best`.
        int rowMax = kNeg;
        {
            const int *AFSB_RESTRICT curM = cM;
            AFSB_VECTORIZE_LOOP
            for (size_t k = kLo; k <= kHi; ++k)
                rowMax = std::max(rowMax, curM[k]);
        }
        if (rowMax > best) {
            best = rowMax;
            result.endTarget = j - 1;
            for (size_t k = kLo; k <= kHi; ++k) {
                if (cM[k] == rowMax) {
                    result.endProfile = k - 1;
                    break;
                }
            }
        }
        cells += kHi - kLo + 1;
        std::swap(pM, cM);
        std::swap(pI, cI);
        std::swap(pD, cD);
    }
    result.score = best;
    result.cells = cells;
    return result;
}

/**
 * Forward in the cell-by-cell scalar order: the same expressions,
 * evaluated and accumulated one cell at a time in ascending k, with
 * the emission probability read from the per-residue table (the same
 * exp2 call per (pos, res), so the values are bit-identical). Traced
 * and untraced calls share it. It is not striped: the serial D chain
 * (a multiply and an add per cell) bounds the row either way, and a
 * striped version's extra passes over each row cost about what its
 * vector M/I pass saves.
 */
ForwardResult
calcBand10Ordered(const ProfileHmm &prof, const bio::Sequence &target,
                  const KernelConfig &cfg)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    ForwardResult result;

    // Probability-space Forward with per-row rescaling (the HMMER3
    // approach). Emission probabilities come from half-bit scores:
    // p = 2^(score/2), normalized by entry mass 1/M.
    constexpr double tMM = 0.90, tIM = 0.40, tDM = 0.40;
    constexpr double tMI = 0.05, tII = 0.60;
    constexpr double tMD = 0.05, tDD = 0.60;
    const double entry = 1.0 / static_cast<double>(M);
    DoubleEmissions emit(prof);

    std::vector<double> prevM(M + 1, 0.0), prevI(M + 1, 0.0),
        prevD(M + 1, 0.0);
    std::vector<double> curM(M + 1, 0.0), curI(M + 1, 0.0),
        curD(M + 1, 0.0);

    double total = 0.0;
    double logScale = 0.0;
    uint64_t cells = 0;
    for (size_t j = 1; j <= L; ++j) {
        const double *e = emit.row(target[j - 1]);
        size_t kLo, kHi;
        bandBounds(j, L, M, cfg.band, kLo, kHi);
        std::fill(curM.begin(), curM.end(), 0.0);
        std::fill(curI.begin(), curI.end(), 0.0);
        std::fill(curD.begin(), curD.end(), 0.0);

        double rowMax = 0.0;
        for (size_t k = kLo; k <= kHi; ++k) {
            const double m =
                e[k - 1] * (prevM[k - 1] * tMM + prevI[k - 1] * tIM +
                            prevD[k - 1] * tDM + entry);
            curM[k] = m;
            curI[k] = prevM[k] * tMI + prevI[k] * tII;
            curD[k] = curM[k - 1] * tMD + curD[k - 1] * tDD;
            total += m * 0.05;  // exit mass
            rowMax = std::max(rowMax, m);
        }

        // Rescale to avoid overflow on long, similar targets.
        if (rowMax > 1e100) {
            const double inv = 1e-100;
            for (size_t k = kLo; k <= kHi; ++k) {
                curM[k] *= inv;
                curI[k] *= inv;
                curD[k] *= inv;
            }
            total *= inv;
            logScale += 100.0 * std::log2(10.0);
        }
        cells += kHi - kLo + 1;
        prevM.swap(curM);
        prevI.swap(curI);
        prevD.swap(curD);
    }
    result.logOdds =
        total > 0.0 ? std::log2(total) + logScale : -1e9;
    result.cells = cells;
    return result;
}

/*
 * Backpointer byte of one alignment cell: bits 0-1 say where the match
 * state came from (kFromStart, or M, I, D of the diagonal cell), bit 2
 * that the insert state extended an insert, bit 3 that the delete state
 * extended a delete.
 */
constexpr uint8_t kFromStart = 0;
constexpr uint8_t kInsertExtends = 1 << 2;
constexpr uint8_t kDeleteExtends = 1 << 3;

/**
 * Unbanded local affine alignment with traceback. The score rows roll
 * (previous and current M/I/D, as in calcBand9Fast); only one packed
 * backpointer byte per cell is kept for the traceback. Bit-identical to
 * the full-matrix recurrence: a cell's match state takes the first of
 * M, I, D (in that order) whose score strictly beats the running
 * maximum from 0, the insert and delete states prefer opening on ties,
 * and the traceback starts at the first cell, in row-major order, of
 * the best match score.
 */
AFSB_SIMD_CLONES
AlignmentResult
alignToProfileFast(const ProfileHmm &prof, const bio::Sequence &target)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    AlignmentResult result;
    result.profileToTarget.assign(M, -1);

    const int open = prof.gaps().open;
    const int extend = prof.gaps().extend;
    IntEmissions emit(prof);

    std::vector<int> bufs[6];
    for (auto &b : bufs)
        b.assign(M + 1, kNeg);
    int *pM = bufs[0].data(), *pI = bufs[1].data(),
        *pD = bufs[2].data();
    int *cM = bufs[3].data(), *cI = bufs[4].data(),
        *cD = bufs[5].data();
    // Row j-1 of the L x M backpointer bytes is target position j.
    std::vector<uint8_t> back(L * M);

    int best = 0;
    size_t bestJ = 0, bestK = 0;
    for (size_t j = 1; j <= L; ++j) {
        const int *AFSB_RESTRICT e = emit.row(target[j - 1]);
        uint8_t *AFSB_RESTRICT bp = back.data() + (j - 1) * M;
        {
            // M and I read the previous row only.
            const int *AFSB_RESTRICT prevM = pM;
            const int *AFSB_RESTRICT prevI = pI;
            const int *AFSB_RESTRICT prevD = pD;
            int *AFSB_RESTRICT curM = cM;
            int *AFSB_RESTRICT curI = cI;
            AFSB_VECTORIZE_LOOP
            for (size_t k = 1; k <= M; ++k) {
                // Running strict maximum from 0 over M, I, D.
                const int fromM = prevM[k - 1], fromI = prevI[k - 1],
                          fromD = prevD[k - 1];
                const bool takeM = fromM > 0;
                int d = takeM ? fromM : 0;
                uint8_t b = takeM ? 1 : kFromStart;
                const bool takeI = fromI > d;
                d = takeI ? fromI : d;
                b = takeI ? 2 : b;
                const bool takeD = fromD > d;
                d = takeD ? fromD : d;
                b = takeD ? 3 : b;
                curM[k] = d + e[k - 1];
                const int openI = prevM[k] - open;
                const int extendI = prevI[k] - extend;
                const bool extI = openI < extendI;
                curI[k] = extI ? extendI : openI;
                bp[k - 1] = extI ? b | kInsertExtends : b;
            }
        }
        // D carries along the row: a short scalar chain.
        for (size_t k = 1; k <= M; ++k) {
            const int openD = cM[k - 1] - open;
            const int extendD = cD[k - 1] - extend;
            const bool extD = openD < extendD;
            cD[k] = extD ? extendD : openD;
            bp[k - 1] |= extD ? kDeleteExtends : 0;
        }

        // The first cell that beats every earlier cell is the first
        // occurrence of the row max whenever that max beats `best`.
        int rowMax = kNeg;
        {
            const int *AFSB_RESTRICT curM = cM;
            AFSB_VECTORIZE_LOOP
            for (size_t k = 1; k <= M; ++k)
                rowMax = std::max(rowMax, curM[k]);
        }
        if (rowMax > best) {
            best = rowMax;
            bestJ = j;
            bestK = static_cast<size_t>(
                std::find(cM + 1, cM + M + 1, rowMax) - cM);
        }
        std::swap(pM, cM);
        std::swap(pI, cI);
        std::swap(pD, cD);
    }
    result.score = best;
    result.cells = static_cast<uint64_t>(L) * M;
    if (best <= 0)
        return result;

    // Traceback from the best match cell.
    size_t j = bestJ, k = bestK;
    int state = 0;  // 0=M, 1=I, 2=D
    while (j > 0 && k > 0) {
        const uint8_t b = back[(j - 1) * M + (k - 1)];
        if (state == 0) {
            result.profileToTarget[k - 1] =
                static_cast<int32_t>(j - 1);
            const uint8_t from = b & 3;
            if (from == kFromStart)
                break;  // local alignment start
            state = from - 1;  // 1->M, 2->I, 3->D
            --j;
            --k;
        } else if (state == 1) {
            state = b & kInsertExtends ? 1 : 0;
            --j;
        } else {
            state = b & kDeleteExtends ? 2 : 0;
            --k;
        }
    }
    return result;
}

/**
 * Emit the reference bundles of a kernel's sampled cells — cell
 * index ≡ 0 mod kSimdWidth·traceStride in row-major cell order — in
 * TraceBatch batches, all flushed before it returns; the caller adds
 * finishKernel. Every emitted address depends only on
 * (row, column, residue, cell index), never on a DP value, so this
 * walk visits the sampled cells alone and the sink sees exactly the
 * calls a cell-by-cell loop would make between its arithmetic. Row j
 * covers columns [kLo, kHi] from bandBounds (all M columns when
 * @p banded is false); the virtual DP read and write rows of
 * @p elem_bytes-wide entries alternate as the kernel swaps them.
 */
void
traceSampledCells(const ProfileHmm &prof, const bio::Sequence &target,
                  const KernelConfig &cfg, MemTraceSink *sink,
                  FuncId func, bool banded, uint64_t elem_bytes)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    const uint64_t blockStride =
        static_cast<uint64_t>(kSimdWidth) * cfg.traceStride;
    // MSV keeps two rows (prev, cur); the banded kernels keep six,
    // allocated back to back: prevM/I/D then curM/I/D.
    const uint64_t slot = dpSlot((M + 1) * elem_bytes);
    uint64_t vPrev = kDpBase;
    uint64_t vCur = kDpBase + (banded ? 3 : 1) * slot;
    uint64_t first = 0;   // cell index of the row's first cell
    uint64_t sampled = 0; // next sampled cell index
    TraceBatch out(sink);
    for (size_t j = 1; j <= L; ++j) {
        size_t kLo = 1, kHi = M;
        if (banded)
            bandBounds(j, L, M, cfg.band, kLo, kHi);
        const uint64_t end = first + (kHi - kLo + 1);
        const uint8_t res = target[j - 1];
        for (; sampled < end; sampled += blockStride) {
            const size_t k = kLo + (sampled - first);
            emitBlock(out, cfg, func, profAddr(prof, k - 1, res),
                      vPrev + (k - 1) * elem_bytes,
                      vCur + k * elem_bytes, j - 1, sampled);
        }
        first = end;
        std::swap(vPrev, vCur);
    }
    out.flush();
}

} // namespace

void
requireTraceConfig(const KernelConfig &cfg, const char *who)
{
    // A zero stride would divide by zero in emitBlock and never
    // advance the sampled-cell walk; an arena below one page leaves
    // emitBlock no page (or line) to pick.
    if (cfg.traceStride == 0)
        fatal(std::string(who) +
              ": KernelConfig::traceStride must be at least 1 for a "
              "traced call");
    if (cfg.arenaBytes < kArenaPageBytes)
        fatal(std::string(who) +
              ": KernelConfig::arenaBytes must be at least " +
              std::to_string(kArenaPageBytes) +
              " for a traced call (got " +
              std::to_string(cfg.arenaBytes) + ")");
}

MsvResult
msvFilter(const ProfileHmm &prof, const bio::Sequence &target,
          const KernelConfig &cfg, MemTraceSink *sink)
{
    if (sink)
        requireTraceConfig(cfg, "msvFilter");
    if (target.length() == 0 || prof.length() == 0)
        return {};
    const MsvResult result = msvFilterFast(prof, target);
    if (sink == nullptr)
        return result;
    // The integer filter pipeline (SSV/MSV + Viterbi) is what the
    // paper's calc_band_9 symbol covers; attribute it there.
    const FuncId func = wellknown::calcBand9();
    traceSampledCells(prof, target, cfg, sink, func, false, sizeof(int));
    finishKernel(sink, func, result.cells, kMsvInstrNum, kMsvInstrDen,
                 16);
    return result;
}

ViterbiResult
calcBand9(const ProfileHmm &prof, const bio::Sequence &target,
          const KernelConfig &cfg, MemTraceSink *sink)
{
    if (sink)
        requireTraceConfig(cfg, "calcBand9");
    if (target.length() == 0 || prof.length() == 0)
        return {};
    const ViterbiResult result = calcBand9Fast(prof, target, cfg);
    if (sink == nullptr)
        return result;
    const FuncId func = wellknown::calcBand9();
    traceSampledCells(prof, target, cfg, sink, func, true, sizeof(int));
    finishKernel(sink, func, result.cells, kViterbiInstrNum,
                 kViterbiInstrDen, 8);
    return result;
}

ForwardResult
calcBand10(const ProfileHmm &prof, const bio::Sequence &target,
           const KernelConfig &cfg, MemTraceSink *sink)
{
    if (sink)
        requireTraceConfig(cfg, "calcBand10");
    if (target.length() == 0 || prof.length() == 0)
        return {};
    const ForwardResult result = calcBand10Ordered(prof, target, cfg);
    if (sink == nullptr)
        return result;
    const FuncId func = wellknown::calcBand10();
    traceSampledCells(prof, target, cfg, sink, func, true,
                      sizeof(double));
    finishKernel(sink, func, result.cells, kForwardInstrNum,
                 kForwardInstrDen, 16);
    return result;
}

AlignmentResult
alignToProfile(const ProfileHmm &prof, const bio::Sequence &target,
               const KernelConfig &cfg)
{
    (void)cfg;
    if (target.length() == 0 || prof.length() == 0) {
        AlignmentResult result;
        result.profileToTarget.assign(prof.length(), -1);
        return result;
    }
    return alignToProfileFast(prof, target);
}

} // namespace afsb::msa
