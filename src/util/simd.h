/**
 * @file
 * Portable SIMD kernels for the optimizer's integer hot loops.
 *
 * Both kernels are pure int64 scans over contiguous arrays — the
 * exact shapes of the MemoryOptimizer batched probe passes. Integer
 * math means the vector and scalar paths are bit-identical by
 * construction; no floating point ever enters a kernel.
 *
 * The vector path uses GCC/Clang vector extensions (selected at
 * compile time; no runtime CPU dispatch) and falls back to the scalar
 * twins when the compiler lacks them or when -DMCLP_NO_SIMD is set.
 * The scalar twins are compiled unconditionally and exposed under
 * scalar::, so tests fuzz vector vs scalar in one binary; the
 * setForceScalar() hook routes the public entry points through the
 * twins at runtime for whole-pipeline parity tests (set it only from
 * single-threaded test setup).
 *
 * Loads go through std::memcpy: int64 arrays are only 8-byte aligned,
 * and memcpy is the UB-free unaligned access idiom — compilers lower
 * it to plain vector load instructions.
 */

#ifndef MCLP_UTIL_SIMD_H
#define MCLP_UTIL_SIMD_H

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>

#if !defined(MCLP_NO_SIMD) && (defined(__GNUC__) || defined(__clang__))
#define MCLP_SIMD_VECTOR_EXT 1
#endif

namespace mclp {
namespace util {
namespace simd {

/** Lanes per vector op; tests cover every tail length 0..kLanes. */
constexpr size_t kLanes = 4;

namespace scalar {

/**
 * One fused probe pass: min of levels[i] over gates[i] <= gate_cap
 * (INT64_MAX when no gate admits), and max of levels[i] strictly
 * below cap (INT64_MIN when none is below).
 */
inline void
capScanI64(const int64_t *levels, const int64_t *gates,
           int64_t gate_cap, int64_t cap, size_t n,
           int64_t &min_gated, int64_t &max_below)
{
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
    for (size_t i = 0; i < n; ++i) {
        if (gates[i] <= gate_cap && levels[i] < lo)
            lo = levels[i];
        if (levels[i] < cap && levels[i] > hi)
            hi = levels[i];
    }
    min_gated = lo;
    max_below = hi;
}

/** First index with a[i] <= cap_a && b[i] <= cap_b, or n. */
inline size_t
firstWithinCapsI64(const int64_t *a, const int64_t *b, int64_t cap_a,
                   int64_t cap_b, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        if (a[i] <= cap_a && b[i] <= cap_b)
            return i;
    }
    return n;
}

} // namespace scalar

namespace detail {

inline std::atomic<bool> g_forceScalar{false};

#if MCLP_SIMD_VECTOR_EXT
typedef int64_t V4 __attribute__((vector_size(4 * sizeof(int64_t))));

// V4 values never cross a function boundary by value: without AVX
// enabled, GCC warns (-Wpsabi) that passing or returning a 32-byte
// vector changes the ABI. Results land in out-parameters instead.

inline void
load(V4 &out, const int64_t *p)
{
    std::memcpy(&out, p, sizeof(out));
}

inline void
splat(V4 &out, int64_t x)
{
    out = V4{x, x, x, x};
}

/** Lane-wise select: mask lanes are all-ones / all-zeros. */
inline void
select(V4 &out, const V4 &mask, const V4 &a, const V4 &b)
{
    out = (a & mask) | (b & ~mask);
}
#endif

} // namespace detail

/**
 * Route the public kernels through the scalar twins at runtime (for
 * in-binary SIMD-vs-scalar parity tests). Not for concurrent use:
 * flip it only while no optimizer threads run.
 */
inline void
setForceScalar(bool on)
{
    detail::g_forceScalar.store(on, std::memory_order_relaxed);
}

inline bool
forceScalar()
{
    return detail::g_forceScalar.load(std::memory_order_relaxed);
}

inline void
capScanI64(const int64_t *levels, const int64_t *gates, int64_t gate_cap,
           int64_t cap, size_t n, int64_t &min_gated, int64_t &max_below)
{
#if MCLP_SIMD_VECTOR_EXT
    if (!forceScalar()) {
        using detail::V4;
        V4 vgate_cap, vcap, vlo, vhi, lv, gt, gated, below;
        detail::splat(vgate_cap, gate_cap);
        detail::splat(vcap, cap);
        detail::splat(vlo, std::numeric_limits<int64_t>::max());
        detail::splat(vhi, std::numeric_limits<int64_t>::min());
        size_t i = 0;
        for (; i + kLanes <= n; i += kLanes) {
            detail::load(lv, levels + i);
            detail::load(gt, gates + i);
            detail::select(gated, gt <= vgate_cap, lv, vlo);
            detail::select(vlo, gated < vlo, gated, vlo);
            detail::select(below, lv < vcap, lv, vhi);
            detail::select(vhi, below > vhi, below, vhi);
        }
        int64_t lo = std::numeric_limits<int64_t>::max();
        int64_t hi = std::numeric_limits<int64_t>::min();
        for (size_t l = 0; l < kLanes; ++l) {
            lo = vlo[l] < lo ? vlo[l] : lo;
            hi = vhi[l] > hi ? vhi[l] : hi;
        }
        int64_t tlo, thi;
        scalar::capScanI64(levels + i, gates + i, gate_cap, cap, n - i,
                           tlo, thi);
        min_gated = tlo < lo ? tlo : lo;
        max_below = thi > hi ? thi : hi;
        return;
    }
#endif
    scalar::capScanI64(levels, gates, gate_cap, cap, n, min_gated,
                       max_below);
}

inline size_t
firstWithinCapsI64(const int64_t *a, const int64_t *b, int64_t cap_a,
                   int64_t cap_b, size_t n)
{
#if MCLP_SIMD_VECTOR_EXT
    if (!forceScalar()) {
        using detail::V4;
        V4 vcap_a, vcap_b, va, vb;
        detail::splat(vcap_a, cap_a);
        detail::splat(vcap_b, cap_b);
        size_t i = 0;
        for (; i + kLanes <= n; i += kLanes) {
            detail::load(va, a + i);
            detail::load(vb, b + i);
            V4 ok = (va <= vcap_a) & (vb <= vcap_b);
            if (ok[0] | ok[1] | ok[2] | ok[3]) {
                for (size_t l = 0; l < kLanes; ++l) {
                    if (a[i + l] <= cap_a && b[i + l] <= cap_b)
                        return i + l;
                }
            }
        }
        size_t tail =
            scalar::firstWithinCapsI64(a + i, b + i, cap_a, cap_b, n - i);
        return tail == n - i ? n : i + tail;
    }
#endif
    return scalar::firstWithinCapsI64(a, b, cap_a, cap_b, n);
}

} // namespace simd
} // namespace util
} // namespace mclp

#endif // MCLP_UTIL_SIMD_H
