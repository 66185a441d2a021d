/**
 * @file
 * Portability shims for the vectorized native kernels.
 *
 * The fast (untraced) DP filters and the blocked tensor kernels are
 * written as plain fixed-stride loops over contiguous arrays — no
 * intrinsics — and rely on the compiler's autovectorizer. These
 * macros give the vectorizer what it needs: no-alias guarantees on
 * the hot pointers, an explicit no-loop-carried-dependence hint on
 * the striped loops, and a second, AVX2-wide copy of the hottest
 * kernels picked at load time (AFSB_SIMD_CLONES).
 */

#ifndef AFSB_UTIL_SIMD_HH
#define AFSB_UTIL_SIMD_HH

#include <bit>
#include <cstdint>

#if defined(__GNUC__) || defined(__clang__)
#define AFSB_RESTRICT __restrict__
#else
#define AFSB_RESTRICT
#endif

/** Marks the following loop free of loop-carried dependences. */
#if defined(__clang__)
#define AFSB_VECTORIZE_LOOP \
    _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define AFSB_VECTORIZE_LOOP _Pragma("GCC ivdep")
#else
#define AFSB_VECTORIZE_LOOP
#endif

/**
 * Compiles the following function twice — once for the build's
 * baseline ISA and once for AVX2 — and binds the caller to the AVX2
 * copy at load time when the CPU has it (a glibc ifunc resolver), so
 * a default build runs its hot loops 256 bits wide without a -march
 * flag. Expands to nothing where ifuncs are unavailable (non-x86-64,
 * non-ELF, or not glibc), leaving the one baseline copy, and under
 * ThreadSanitizer, whose instrumented ifunc resolver would run before
 * the TSan runtime starts and crash the process at load.
 *
 * The clone list is exactly {"avx2", "default"} and stays that way:
 * the avx2 target enables no fused multiply-add, so both copies run
 * the same IEEE operations in the same order and their results are
 * bit-identical (an "fma", "arch=..." or AVX-512 target would let
 * GCC's default -ffp-contract=fast fuse a*b+c and change bits).
 * Lane width only regroups independent elementwise operations: float
 * reductions keep the order the source spells out, and integer ones
 * are associative. Clones cannot be inlined, so put the macro on a
 * kernel that loops long enough to hide an indirect call, and make
 * sure the helpers its hot loop calls are inlined into it (a helper
 * left out of line runs the baseline copy). Define the kernel before
 * its first use in its file: clang will not multiversion a function
 * that has already been used.
 */
#if defined(__SANITIZE_THREAD__)
#define AFSB_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AFSB_TSAN_BUILD 1
#endif
#endif
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && \
    defined(__has_attribute) && !defined(AFSB_TSAN_BUILD)
#if __has_attribute(target_clones)
#define AFSB_HAVE_SIMD_CLONES 1
#endif
#endif
#ifdef AFSB_HAVE_SIMD_CLONES
#define AFSB_SIMD_CLONES \
    __attribute__((target_clones("avx2", "default")))
#else
#define AFSB_SIMD_CLONES
#endif

namespace afsb {

/** The AFSB_SIMD_CLONES copy this process runs: "avx2" or
 *  "default". */
inline const char *
simdCloneTarget()
{
#ifdef AFSB_HAVE_SIMD_CLONES
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "default";
}

/** Maps a float's bits to an integer whose two's-complement order
 *  matches the float order (flips the magnitude bits of negatives).
 *  Self-inverse; lets comparisons against float constants run as
 *  integer compares. */
constexpr int32_t
floatOrderKey(float f)
{
    const int32_t i = std::bit_cast<int32_t>(f);
    return i ^ ((i >> 31) & 0x7fffffff);
}

/** Inverse of floatOrderKey. */
constexpr float
floatFromOrderKey(int32_t key)
{
    return std::bit_cast<float>(key ^ ((key >> 31) & 0x7fffffff));
}

/**
 * Branch-free polynomial expf for the optimized softmax paths.
 *
 * Cephes-style range reduction: split x into n*ln2 + r with
 * |r| <= ln2/2 (nearest-n split), evaluate a degree-5 minimax
 * polynomial for e^r, and scale by 2^n through the float exponent
 * bits. Written without float compares or std::floor: GCC treats
 * those as potentially trapping and refuses to if-convert them
 * unless -fno-trapping-math is on, which would keep a softmax row
 * sweep scalar. The clamp instead runs on order-preserving integer
 * keys and the nearest-integer split uses the 1.5*2^23 magic-number
 * trick (exact under round-to-nearest, |x*log2e| < 2^22). ~8e-8 max
 * relative error over the clamped domain, far inside the 1e-4
 * equivalence budget the optimized kernels are held to.
 */
inline float
fastExpf(float x)
{
    // Below/above these, expf saturates to 0 / +inf in float anyway.
    constexpr int32_t kLoKey = floatOrderKey(-87.0f);
    constexpr int32_t kHiKey = floatOrderKey(88.0f);
    int32_t key = floatOrderKey(x);
    key = key < kLoKey ? kLoKey : key;
    key = key > kHiKey ? kHiKey : key;
    x = floatFromOrderKey(key);

    constexpr float kLog2e = 1.44269504088896341f;
    constexpr float kLn2Hi = 0.693359375f;
    constexpr float kLn2Lo = -2.12194440e-4f;
    constexpr float kMagic = 12582912.0f;  // 1.5 * 2^23

    const float fn = (x * kLog2e + kMagic) - kMagic;
    const int32_t n = static_cast<int32_t>(fn);
    // Two-step Cody-Waite reduction keeps r accurate near |x| ~ 87.
    const float r = (x - fn * kLn2Hi) - fn * kLn2Lo;

    // Degree-5 minimax polynomial for e^r on [-ln2/2, ln2/2].
    float p = 1.9875691500e-4f;
    p = p * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    p = p * r * r + r + 1.0f;

    // Scale by 2^n through the exponent field (n is in [-126, 127]
    // after the clamp, so no denormal/overflow handling needed).
    return p * std::bit_cast<float>((n + 127) << 23);
}

} // namespace afsb

#endif // AFSB_UTIL_SIMD_HH
