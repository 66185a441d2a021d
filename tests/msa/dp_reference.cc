#include "dp_reference.hh"

#include <algorithm>
#include <cmath>

namespace afsb::msa::reference {

namespace {

constexpr int kNeg = -1 << 20;  ///< "minus infinity" for int DP

/** Instruction cost per DP cell (num/den), as in the library. */
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

/** Virtual windows of the profile emission table and the DP rows. */
constexpr uint64_t kProfileBase = 0x7f10'0000'0000ull;
constexpr uint64_t kDpBase = 0x7f20'0000'0000ull;

/** Virtual address of the profile emission entry (pos, res). */
inline uint64_t
profAddr(const ProfileHmm &prof, size_t pos, uint8_t res)
{
    return kProfileBase +
           (pos * prof.alphabet() + res) * sizeof(int16_t);
}

/** 64-byte-aligned slot size for a DP row of @p bytes. */
inline uint64_t
dpSlot(uint64_t bytes)
{
    return (bytes + 63) & ~63ull;
}

/** Emit the per-SIMD-block reference bundle. */
inline void
emitBlock(MemTraceSink *sink, const KernelConfig &cfg, FuncId func,
          uint64_t profile_addr, uint64_t dp_read_addr,
          uint64_t dp_write_addr, size_t row, uint64_t cell)
{
    sink->access({profile_addr, 32, false, func});
    sink->access({dp_read_addr, 64, false, func});
    sink->access({dp_write_addr, 64, true, func});
    if (cfg.targetBase) {
        const uint64_t grid = 64ull * cfg.traceStride;
        sink->access({cfg.targetBase + (row / grid) * grid, 16,
                      false, func});
    }
    if (cell % (2 * 16 * cfg.traceStride) == 0) {
        const uint64_t h = arenaHash(cell + cfg.targetBase * 3);
        const uint64_t page = h % (cfg.arenaBytes / 4096);
        const uint64_t lineOff = (arenaHash(page) % 64) * 64;
        sink->access({cfg.arenaBase + page * 4096 + lineOff, 8,
                      false, func});
    }
    if (cell % (kArenaCells * cfg.traceStride) == 0) {
        const uint64_t slot =
            arenaHash(cell * 0x9e3779b97f4a7c15ull +
                      cfg.targetBase) %
            (cfg.arenaBytes / 64);
        sink->access({cfg.arenaBase + slot * 64, 8, false, func});
    }
}

/** Batched end-of-kernel accounting. */
inline void
finishKernel(MemTraceSink *sink, FuncId func, uint64_t cells,
             uint64_t instr_num, uint64_t instr_den,
             uint64_t data_branch_div)
{
    sink->instructions(func, cells * instr_num / instr_den);
    sink->branches(func, cells / 8, cells / data_branch_div);
}

/** Band bounds for target row j (1-based). */
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

} // namespace

MsvResult
msvFilter(const ProfileHmm &prof, const bio::Sequence &target,
          const KernelConfig &cfg, MemTraceSink *sink)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    MsvResult result;
    if (L == 0 || M == 0)
        return result;

    std::vector<int> prev(M + 1, 0);
    std::vector<int> cur(M + 1, 0);

    const uint64_t blockStride =
        static_cast<uint64_t>(kSimdWidth) * cfg.traceStride;
    const uint64_t slot = dpSlot((M + 1) * sizeof(int));
    uint64_t vPrev = kDpBase;
    uint64_t vCur = kDpBase + slot;
    int best = 0;
    uint64_t cell = 0;
    const FuncId func = wellknown::calcBand9();
    for (size_t j = 1; j <= L; ++j) {
        const uint8_t res = target[j - 1];
        cur[0] = 0;
        for (size_t k = 1; k <= M; ++k) {
            const int emit = prof.matchScore(k - 1, res);
            const int s = std::max(0, prev[k - 1] + emit);
            cur[k] = s;
            best = std::max(best, s);
            if (sink && (cell % blockStride) == 0)
                emitBlock(sink, cfg, func,
                          profAddr(prof, k - 1, res),
                          vPrev + (k - 1) * sizeof(int),
                          vCur + k * sizeof(int), j - 1, cell);
            ++cell;
        }
        prev.swap(cur);
        std::swap(vPrev, vCur);
    }
    result.score = best;
    result.cells = cell;
    if (sink)
        finishKernel(sink, func, cell, kMsvInstrNum, kMsvInstrDen,
                     16);
    return result;
}

ViterbiResult
calcBand9(const ProfileHmm &prof, const bio::Sequence &target,
          const KernelConfig &cfg, MemTraceSink *sink)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    ViterbiResult result;
    if (L == 0 || M == 0)
        return result;

    const int open = prof.gaps().open;
    const int extend = prof.gaps().extend;

    std::vector<int> prevM(M + 1, kNeg), prevI(M + 1, kNeg),
        prevD(M + 1, kNeg);
    std::vector<int> curM(M + 1, kNeg), curI(M + 1, kNeg),
        curD(M + 1, kNeg);

    const uint64_t blockStride =
        static_cast<uint64_t>(kSimdWidth) * cfg.traceStride;
    const uint64_t slot = dpSlot((M + 1) * sizeof(int));
    uint64_t vPrevM = kDpBase;
    uint64_t vCurM = kDpBase + 3 * slot;
    int best = 0;
    uint64_t cell = 0;
    const FuncId func = wellknown::calcBand9();

    for (size_t j = 1; j <= L; ++j) {
        const uint8_t res = target[j - 1];
        size_t kLo, kHi;
        bandBounds(j, L, M, cfg.band, kLo, kHi);
        std::fill(curM.begin(), curM.end(), kNeg);
        std::fill(curI.begin(), curI.end(), kNeg);
        std::fill(curD.begin(), curD.end(), kNeg);

        for (size_t k = kLo; k <= kHi; ++k) {
            const int emit = prof.matchScore(k - 1, res);
            const int diag = std::max(
                {0, prevM[k - 1], prevI[k - 1], prevD[k - 1]});
            const int m = diag + emit;
            curM[k] = m;
            curI[k] = std::max(prevM[k] - open, prevI[k] - extend);
            curD[k] =
                std::max(curM[k - 1] - open, curD[k - 1] - extend);
            if (m > best) {
                best = m;
                result.endTarget = j - 1;
                result.endProfile = k - 1;
            }
            if (sink && (cell % blockStride) == 0)
                emitBlock(sink, cfg, func,
                          profAddr(prof, k - 1, res),
                          vPrevM + (k - 1) * sizeof(int),
                          vCurM + k * sizeof(int), j - 1, cell);
            ++cell;
        }
        prevM.swap(curM);
        prevI.swap(curI);
        prevD.swap(curD);
        std::swap(vPrevM, vCurM);
    }
    result.score = best;
    result.cells = cell;
    if (sink)
        finishKernel(sink, func, cell, kViterbiInstrNum,
                     kViterbiInstrDen, 8);
    return result;
}

ForwardResult
calcBand10(const ProfileHmm &prof, const bio::Sequence &target,
           const KernelConfig &cfg, MemTraceSink *sink)
{
    const size_t M = prof.length();
    const size_t L = target.length();
    ForwardResult result;
    if (L == 0 || M == 0)
        return result;

    constexpr double tMM = 0.90, tIM = 0.40, tDM = 0.40;
    constexpr double tMI = 0.05, tII = 0.60;
    constexpr double tMD = 0.05, tDD = 0.60;
    const double entry = 1.0 / static_cast<double>(M);

    std::vector<double> prevM(M + 1, 0.0), prevI(M + 1, 0.0),
        prevD(M + 1, 0.0);
    std::vector<double> curM(M + 1, 0.0), curI(M + 1, 0.0),
        curD(M + 1, 0.0);

    const uint64_t blockStride =
        static_cast<uint64_t>(kSimdWidth) * cfg.traceStride;
    const uint64_t slot = dpSlot((M + 1) * sizeof(double));
    uint64_t vPrevM = kDpBase;
    uint64_t vCurM = kDpBase + 3 * slot;
    double total = 0.0;
    double logScale = 0.0;
    uint64_t cell = 0;
    const FuncId func = wellknown::calcBand10();

    for (size_t j = 1; j <= L; ++j) {
        const uint8_t res = target[j - 1];
        size_t kLo, kHi;
        bandBounds(j, L, M, cfg.band, kLo, kHi);
        std::fill(curM.begin(), curM.end(), 0.0);
        std::fill(curI.begin(), curI.end(), 0.0);
        std::fill(curD.begin(), curD.end(), 0.0);

        double rowMax = 0.0;
        for (size_t k = kLo; k <= kHi; ++k) {
            const double emit = std::exp2(
                0.5 * prof.matchScore(k - 1, res));
            const double m =
                emit * (prevM[k - 1] * tMM + prevI[k - 1] * tIM +
                        prevD[k - 1] * tDM + entry);
            curM[k] = m;
            curI[k] = prevM[k] * tMI + prevI[k] * tII;
            curD[k] = curM[k - 1] * tMD + curD[k - 1] * tDD;
            total += m * 0.05;  // exit mass
            rowMax = std::max(rowMax, m);
            if (sink && (cell % blockStride) == 0)
                emitBlock(sink, cfg, func,
                          profAddr(prof, k - 1, res),
                          vPrevM + (k - 1) * sizeof(double),
                          vCurM + k * sizeof(double), j - 1, cell);
            ++cell;
        }

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
        prevM.swap(curM);
        prevI.swap(curI);
        prevD.swap(curD);
        std::swap(vPrevM, vCurM);
    }
    result.logOdds =
        total > 0.0 ? std::log2(total) + logScale : -1e9;
    result.cells = cell;
    if (sink)
        finishKernel(sink, func, cell, kForwardInstrNum,
                     kForwardInstrDen, 16);
    return result;
}

AlignmentResult
alignToProfile(const ProfileHmm &prof, const bio::Sequence &target,
               const KernelConfig &cfg)
{
    (void)cfg;
    const size_t M = prof.length();
    const size_t L = target.length();
    AlignmentResult result;
    result.profileToTarget.assign(M, -1);
    if (L == 0 || M == 0)
        return result;

    const int open = prof.gaps().open;
    const int extend = prof.gaps().extend;

    // Full (unbanded) local affine DP with backpointers; only run on
    // the handful of accepted hits, so the O(L*M) footprint is fine.
    const size_t W = M + 1;
    std::vector<int> sM((L + 1) * W, kNeg), sI((L + 1) * W, kNeg),
        sD((L + 1) * W, kNeg);
    // Backpointers: bM 0=start 1=M 2=I 3=D; bI 0=M 1=I; bD 0=M 1=D.
    std::vector<uint8_t> bM((L + 1) * W, 0), bI((L + 1) * W, 0),
        bD((L + 1) * W, 0);

    for (size_t k = 0; k < W; ++k)
        sM[k] = kNeg;

    int best = 0;
    size_t bestJ = 0, bestK = 0;
    for (size_t j = 1; j <= L; ++j) {
        const uint8_t res = target[j - 1];
        const size_t row = j * W;
        const size_t prow = (j - 1) * W;
        sM[row] = kNeg;
        for (size_t k = 1; k <= M; ++k) {
            const int emit = prof.matchScore(k - 1, res);
            // Match state.
            int d = 0;
            uint8_t bp = 0;
            if (sM[prow + k - 1] > d) {
                d = sM[prow + k - 1];
                bp = 1;
            }
            if (sI[prow + k - 1] > d) {
                d = sI[prow + k - 1];
                bp = 2;
            }
            if (sD[prow + k - 1] > d) {
                d = sD[prow + k - 1];
                bp = 3;
            }
            const int m = d + emit;
            sM[row + k] = m;
            bM[row + k] = bp;
            if (m > best) {
                best = m;
                bestJ = j;
                bestK = k;
            }
            // Insert (consume target, keep profile position).
            const int iFromM = sM[prow + k] - open;
            const int iFromI = sI[prow + k] - extend;
            if (iFromM >= iFromI) {
                sI[row + k] = iFromM;
                bI[row + k] = 0;
            } else {
                sI[row + k] = iFromI;
                bI[row + k] = 1;
            }
            // Delete (consume profile, keep target position).
            const int dFromM = sM[row + k - 1] - open;
            const int dFromD = sD[row + k - 1] - extend;
            if (dFromM >= dFromD) {
                sD[row + k] = dFromM;
                bD[row + k] = 0;
            } else {
                sD[row + k] = dFromD;
                bD[row + k] = 1;
            }
            ++result.cells;
        }
    }
    result.score = best;
    if (best <= 0)
        return result;

    // Traceback from the best match cell.
    size_t j = bestJ, k = bestK;
    int state = 0;  // 0=M, 1=I, 2=D
    while (j > 0 && k > 0) {
        const size_t idx = j * W + k;
        if (state == 0) {
            result.profileToTarget[k - 1] =
                static_cast<int32_t>(j - 1);
            const uint8_t bp = bM[idx];
            if (bp == 0)
                break;  // local alignment start
            state = bp - 1;  // 1->M, 2->I, 3->D
            --j;
            --k;
        } else if (state == 1) {
            state = bI[idx] == 0 ? 0 : 1;
            --j;
        } else {
            state = bD[idx] == 0 ? 0 : 2;
            --k;
        }
    }
    return result;
}

} // namespace afsb::msa::reference
