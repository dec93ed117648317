#include "engine/simd.h"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LQO_SIMD_X86 1
#else
#define LQO_SIMD_X86 0
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define LQO_SIMD_NEON 1
#else
#define LQO_SIMD_NEON 0
#endif

// This translation unit is the only one allowed to touch raw intrinsics
// (lqo-lint rule `raw-intrinsics`); everything else goes through the
// KernelTable. Per-function `target` attributes let one GCC invocation emit
// AVX2 bodies without raising the global -m baseline; the runtime
// dispatcher guarantees a body only runs on a CPU that has its ISA.

namespace lqo::simd {
namespace {

// ===========================================================================
// Scalar reference kernels — the definitional semantics every SIMD level
// must reproduce bit-for-bit. Loop bodies are the branch-free forms from
// engine/filter_kernels.cc: write the candidate row id unconditionally,
// advance the cursor by the 0/1 outcome.
// ===========================================================================

// Branchless membership test against a sorted-unique IN list: a lower-bound
// descent whose step is selected by comparison, not control flow. Agrees
// with std::binary_search (Predicate::Matches) on every input because the
// list is sorted and duplicate-free.
inline bool InListContains(const int64_t* base, size_t n, int64_t v) {
  while (n > 1) {
    size_t half = n / 2;
    base += (base[half - 1] < v) ? half : 0;
    n -= half;
  }
  return *base == v;
}

size_t FilterEqDenseScalar(const int64_t* col, uint32_t row_begin,
                           uint32_t row_end, int64_t value, uint32_t* out_sel) {
  size_t k = 0;
  for (uint32_t r = row_begin; r < row_end; ++r) {
    out_sel[k] = r;
    k += static_cast<size_t>(col[r] == value);
  }
  return k;
}

size_t FilterEqSelScalar(const int64_t* col, const uint32_t* sel, size_t count,
                         int64_t value, uint32_t* out_sel) {
  size_t k = 0;
  for (size_t i = 0; i < count; ++i) {
    uint32_t r = sel[i];
    out_sel[k] = r;
    k += static_cast<size_t>(col[r] == value);
  }
  return k;
}

size_t FilterRangeDenseScalar(const int64_t* col, uint32_t row_begin,
                              uint32_t row_end, int64_t lo, int64_t hi,
                              uint32_t* out_sel) {
  size_t k = 0;
  for (uint32_t r = row_begin; r < row_end; ++r) {
    int64_t v = col[r];
    out_sel[k] = r;
    // Bitwise & of the two bool outcomes: no short-circuit branch.
    k += static_cast<size_t>((v >= lo) & (v <= hi));
  }
  return k;
}

size_t FilterRangeSelScalar(const int64_t* col, const uint32_t* sel,
                            size_t count, int64_t lo, int64_t hi,
                            uint32_t* out_sel) {
  size_t k = 0;
  for (size_t i = 0; i < count; ++i) {
    uint32_t r = sel[i];
    int64_t v = col[r];
    out_sel[k] = r;
    k += static_cast<size_t>((v >= lo) & (v <= hi));
  }
  return k;
}

size_t FilterInDenseScalar(const int64_t* col, uint32_t row_begin,
                           uint32_t row_end, const int64_t* sorted_values,
                           size_t num_values, uint32_t* out_sel) {
  size_t k = 0;
  for (uint32_t r = row_begin; r < row_end; ++r) {
    out_sel[k] = r;
    k += static_cast<size_t>(InListContains(sorted_values, num_values, col[r]));
  }
  return k;
}

size_t FilterInSelScalar(const int64_t* col, const uint32_t* sel, size_t count,
                         const int64_t* sorted_values, size_t num_values,
                         uint32_t* out_sel) {
  size_t k = 0;
  for (size_t i = 0; i < count; ++i) {
    uint32_t r = sel[i];
    out_sel[k] = r;
    k += static_cast<size_t>(InListContains(sorted_values, num_values, col[r]));
  }
  return k;
}

void HashCombineColumnScalar(uint64_t* hashes, const int64_t* col,
                             size_t begin, size_t end) {
  for (size_t r = begin; r < end; ++r) {
    hashes[r] = HashCombine(hashes[r], col[r]);
  }
}

void HashFinalizeScalar(uint64_t* hashes, size_t begin, size_t end) {
  for (size_t r = begin; r < end; ++r) hashes[r] = FinalizeHash(hashes[r]);
}

constexpr KernelTable kScalarTable = {
    FilterEqDenseScalar,    FilterEqSelScalar,   FilterRangeDenseScalar,
    FilterRangeSelScalar,   FilterInDenseScalar, FilterInSelScalar,
    HashCombineColumnScalar, HashFinalizeScalar,
};

// A SIMD membership test compares against every list element, so it only
// pays for short lists; longer lists keep the scalar descent. Both produce
// the same 0/1 outcome per row, so the cutoff cannot change results.
constexpr size_t kInListSimdMax = 16;

#if LQO_SIMD_X86

// ===========================================================================
// x86-64: AVX2 (4 × int64 lanes, emitted 8 rows per group). A CPU without
// AVX2 runs the scalar table.
//
// The AVX2 filter kernels are compare → movemask → compressed-store: two
// 4-lane compares produce one 8-bit survivor mask, the mask indexes a
// 256-entry permutation table that left-packs the surviving 32-bit row ids
// with vpermd, one unaligned 32-byte store writes them at the output
// cursor, and the cursor advances by popcount(mask). Survivors therefore
// land in lane (= row) order — the same ascending order as the scalar
// cursor loop. Emitting 8 rows per group (rather than 4) halves the trips
// through the serial cursor-update chain, which is what bounds throughput
// at typical selectivities.
// ===========================================================================

// kCompress8.p[mask] is the _mm256_permutevar8x32_epi32 control that
// left-packs the 32-bit lanes whose mask bits are set; unused output lanes
// replicate lane 0, which the next store group overwrites (stores stay
// within the output capacity — see the KernelTable contract).
struct Compress8Table {
  alignas(32) uint32_t p[256][8];
};

constexpr Compress8Table MakeCompress8Table() {
  Compress8Table t{};
  for (int mask = 0; mask < 256; ++mask) {
    int out = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if ((mask >> lane) & 1) t.p[mask][out++] = static_cast<uint32_t>(lane);
    }
    for (; out < 8; ++out) t.p[mask][out] = 0;
  }
  return t;
}

constexpr Compress8Table kCompress8 = MakeCompress8Table();

// ---- AVX2: two 4-lane compares per group, vpermd compressed stores. ----

// Left-packs the row ids whose mask bits are set and stores them at
// out_sel + k; returns the advanced cursor.
__attribute__((target("avx2"))) inline size_t EmitCompressed8(
    __m256i row_ids, int mask, uint32_t* out_sel, size_t k) {
  __m256i perm = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kCompress8.p[mask]));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_sel + k),
                      _mm256_permutevar8x32_epi32(row_ids, perm));
  return k +
         static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
}

__attribute__((target("avx2"))) size_t FilterEqDenseAvx2(
    const int64_t* col, uint32_t row_begin, uint32_t row_end, int64_t value,
    uint32_t* out_sel) {
  size_t k = 0;
  uint32_t r = row_begin;
  const __m256i needle = _mm256_set1_epi64x(value);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (; r + 8 <= row_end; r += 8) {
    __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r));
    __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r + 4));
    int m0 = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v0, needle)));
    int m1 = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v1, needle)));
    __m256i rows =
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(r)), lane);
    k = EmitCompressed8(rows, m0 | (m1 << 4), out_sel, k);
  }
  for (; r < row_end; ++r) {
    out_sel[k] = r;
    k += static_cast<size_t>(col[r] == value);
  }
  return k;
}

// Sel variants gather through the selection vector. _mm256_i32gather_epi64
// consumes *signed* 32-bit indices, so row ids at or above 2^31 take the
// scalar path (sel vectors are ascending: checking the last id suffices).
__attribute__((target("avx2"))) size_t FilterEqSelAvx2(
    const int64_t* col, const uint32_t* sel, size_t count, int64_t value,
    uint32_t* out_sel) {
  if (count > 0 && sel[count - 1] >= 0x80000000u) {
    return FilterEqSelScalar(col, sel, count, value, out_sel);
  }
  size_t k = 0;
  size_t i = 0;
  const __m256i needle = _mm256_set1_epi64x(value);
  for (; i + 8 <= count; i += 8) {
    __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sel + i));
    __m256i v0 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(col),
        _mm256_castsi256_si128(idx), 8);
    __m256i v1 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(col),
        _mm256_extracti128_si256(idx, 1), 8);
    int m0 = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v0, needle)));
    int m1 = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v1, needle)));
    k = EmitCompressed8(idx, m0 | (m1 << 4), out_sel, k);
  }
  for (; i < count; ++i) {
    uint32_t r = sel[i];
    out_sel[k] = r;
    k += static_cast<size_t>(col[r] == value);
  }
  return k;
}

// In-range as NOT(v < lo OR v > hi): two signed greater-thans cover both
// inclusive bounds, matching the scalar (v >= lo) & (v <= hi).
__attribute__((target("avx2"))) size_t FilterRangeDenseAvx2(
    const int64_t* col, uint32_t row_begin, uint32_t row_end, int64_t lo,
    int64_t hi, uint32_t* out_sel) {
  size_t k = 0;
  uint32_t r = row_begin;
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (; r + 8 <= row_end; r += 8) {
    __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r));
    __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r + 4));
    __m256i bad0 = _mm256_or_si256(_mm256_cmpgt_epi64(vlo, v0),
                                   _mm256_cmpgt_epi64(v0, vhi));
    __m256i bad1 = _mm256_or_si256(_mm256_cmpgt_epi64(vlo, v1),
                                   _mm256_cmpgt_epi64(v1, vhi));
    int m0 = _mm256_movemask_pd(_mm256_castsi256_pd(bad0));
    int m1 = _mm256_movemask_pd(_mm256_castsi256_pd(bad1));
    int mask = ~(m0 | (m1 << 4)) & 0xFF;
    __m256i rows =
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(r)), lane);
    k = EmitCompressed8(rows, mask, out_sel, k);
  }
  for (; r < row_end; ++r) {
    int64_t v = col[r];
    out_sel[k] = r;
    k += static_cast<size_t>((v >= lo) & (v <= hi));
  }
  return k;
}

__attribute__((target("avx2"))) size_t FilterRangeSelAvx2(
    const int64_t* col, const uint32_t* sel, size_t count, int64_t lo,
    int64_t hi, uint32_t* out_sel) {
  if (count > 0 && sel[count - 1] >= 0x80000000u) {
    return FilterRangeSelScalar(col, sel, count, lo, hi, out_sel);
  }
  size_t k = 0;
  size_t i = 0;
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  for (; i + 8 <= count; i += 8) {
    __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sel + i));
    __m256i v0 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(col),
        _mm256_castsi256_si128(idx), 8);
    __m256i v1 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(col),
        _mm256_extracti128_si256(idx, 1), 8);
    __m256i bad0 = _mm256_or_si256(_mm256_cmpgt_epi64(vlo, v0),
                                   _mm256_cmpgt_epi64(v0, vhi));
    __m256i bad1 = _mm256_or_si256(_mm256_cmpgt_epi64(vlo, v1),
                                   _mm256_cmpgt_epi64(v1, vhi));
    int m0 = _mm256_movemask_pd(_mm256_castsi256_pd(bad0));
    int m1 = _mm256_movemask_pd(_mm256_castsi256_pd(bad1));
    int mask = ~(m0 | (m1 << 4)) & 0xFF;
    k = EmitCompressed8(idx, mask, out_sel, k);
  }
  for (; i < count; ++i) {
    uint32_t r = sel[i];
    int64_t v = col[r];
    out_sel[k] = r;
    k += static_cast<size_t>((v >= lo) & (v <= hi));
  }
  return k;
}

// IN as an OR of equality compares against pre-broadcast needles.
__attribute__((target("avx2"))) size_t FilterInDenseAvx2(
    const int64_t* col, uint32_t row_begin, uint32_t row_end,
    const int64_t* sorted_values, size_t num_values, uint32_t* out_sel) {
  if (num_values == 0 || num_values > kInListSimdMax) {
    return FilterInDenseScalar(col, row_begin, row_end, sorted_values,
                               num_values, out_sel);
  }
  __m256i needles[kInListSimdMax];
  for (size_t i = 0; i < num_values; ++i) {
    needles[i] = _mm256_set1_epi64x(sorted_values[i]);
  }
  size_t k = 0;
  uint32_t r = row_begin;
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (; r + 8 <= row_end; r += 8) {
    __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r));
    __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r + 4));
    __m256i any0 = _mm256_cmpeq_epi64(v0, needles[0]);
    __m256i any1 = _mm256_cmpeq_epi64(v1, needles[0]);
    for (size_t i = 1; i < num_values; ++i) {
      any0 = _mm256_or_si256(any0, _mm256_cmpeq_epi64(v0, needles[i]));
      any1 = _mm256_or_si256(any1, _mm256_cmpeq_epi64(v1, needles[i]));
    }
    int m0 = _mm256_movemask_pd(_mm256_castsi256_pd(any0));
    int m1 = _mm256_movemask_pd(_mm256_castsi256_pd(any1));
    __m256i rows =
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(r)), lane);
    k = EmitCompressed8(rows, m0 | (m1 << 4), out_sel, k);
  }
  for (; r < row_end; ++r) {
    out_sel[k] = r;
    k += static_cast<size_t>(InListContains(sorted_values, num_values, col[r]));
  }
  return k;
}

__attribute__((target("avx2"))) size_t FilterInSelAvx2(
    const int64_t* col, const uint32_t* sel, size_t count,
    const int64_t* sorted_values, size_t num_values, uint32_t* out_sel) {
  if (num_values == 0 || num_values > kInListSimdMax ||
      (count > 0 && sel[count - 1] >= 0x80000000u)) {
    return FilterInSelScalar(col, sel, count, sorted_values, num_values,
                             out_sel);
  }
  __m256i needles[kInListSimdMax];
  for (size_t i = 0; i < num_values; ++i) {
    needles[i] = _mm256_set1_epi64x(sorted_values[i]);
  }
  size_t k = 0;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sel + i));
    __m256i v0 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(col),
        _mm256_castsi256_si128(idx), 8);
    __m256i v1 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(col),
        _mm256_extracti128_si256(idx, 1), 8);
    __m256i any0 = _mm256_cmpeq_epi64(v0, needles[0]);
    __m256i any1 = _mm256_cmpeq_epi64(v1, needles[0]);
    for (size_t j = 1; j < num_values; ++j) {
      any0 = _mm256_or_si256(any0, _mm256_cmpeq_epi64(v0, needles[j]));
      any1 = _mm256_or_si256(any1, _mm256_cmpeq_epi64(v1, needles[j]));
    }
    int m0 = _mm256_movemask_pd(_mm256_castsi256_pd(any0));
    int m1 = _mm256_movemask_pd(_mm256_castsi256_pd(any1));
    k = EmitCompressed8(idx, m0 | (m1 << 4), out_sel, k);
  }
  for (; i < count; ++i) {
    uint32_t r = sel[i];
    out_sel[k] = r;
    k += static_cast<size_t>(InListContains(sorted_values, num_values, col[r]));
  }
  return k;
}

// 64-bit low-half multiply from 32-bit cross products (AVX2's _mm256_mullo
// covers 32-bit lanes only; the 64-bit form is AVX-512):
// a*b mod 2^64 = lo(a)lo(b) + ((hi(a)lo(b) + lo(a)hi(b)) << 32).
__attribute__((target("avx2"))) inline __m256i MulLo64Avx2(__m256i a,
                                                           __m256i b) {
  __m256i lo = _mm256_mul_epu32(a, b);
  __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) void HashCombineColumnAvx2(
    uint64_t* hashes, const int64_t* col, size_t begin, size_t end) {
  const __m256i golden = _mm256_set1_epi64x(
      static_cast<long long>(0x9e3779b97f4a7c15ULL));
  size_t r = begin;
  for (; r + 4 <= end; r += 4) {
    __m256i h =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hashes + r));
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r));
    __m256i mix = _mm256_add_epi64(v, golden);
    mix = _mm256_add_epi64(mix, _mm256_slli_epi64(h, 6));
    mix = _mm256_add_epi64(mix, _mm256_srli_epi64(h, 2));
    h = _mm256_xor_si256(h, mix);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hashes + r), h);
  }
  for (; r < end; ++r) hashes[r] = HashCombine(hashes[r], col[r]);
}

__attribute__((target("avx2"))) void HashFinalizeAvx2(uint64_t* hashes,
                                                      size_t begin,
                                                      size_t end) {
  const __m256i m1 = _mm256_set1_epi64x(
      static_cast<long long>(0xff51afd7ed558ccdULL));
  const __m256i m2 = _mm256_set1_epi64x(
      static_cast<long long>(0xc4ceb9fe1a85ec53ULL));
  size_t r = begin;
  for (; r + 4 <= end; r += 4) {
    __m256i h =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hashes + r));
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
    h = MulLo64Avx2(h, m1);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
    h = MulLo64Avx2(h, m2);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hashes + r), h);
  }
  for (; r < end; ++r) hashes[r] = FinalizeHash(hashes[r]);
}

constexpr KernelTable kAvx2Table = {
    FilterEqDenseAvx2,    FilterEqSelAvx2,   FilterRangeDenseAvx2,
    FilterRangeSelAvx2,   FilterInDenseAvx2, FilterInSelAvx2,
    HashCombineColumnAvx2, HashFinalizeAvx2,
};

#endif  // LQO_SIMD_X86

#if LQO_SIMD_NEON

// ===========================================================================
// AArch64 NEON: 2 × int64 lanes for the dense filter compares (the paths
// the scan spends its time in); sel/in/hash entries delegate to scalar —
// bit-identical by construction, just not yet accelerated.
// ===========================================================================

size_t FilterEqDenseNeon(const int64_t* col, uint32_t row_begin,
                         uint32_t row_end, int64_t value, uint32_t* out_sel) {
  size_t k = 0;
  uint32_t r = row_begin;
  const int64x2_t needle = vdupq_n_s64(value);
  for (; r + 2 <= row_end; r += 2) {
    uint64x2_t eq = vceqq_s64(vld1q_s64(col + r), needle);
    out_sel[k] = r;
    k += static_cast<size_t>(vgetq_lane_u64(eq, 0) & 1);
    out_sel[k] = r + 1;
    k += static_cast<size_t>(vgetq_lane_u64(eq, 1) & 1);
  }
  for (; r < row_end; ++r) {
    out_sel[k] = r;
    k += static_cast<size_t>(col[r] == value);
  }
  return k;
}

size_t FilterRangeDenseNeon(const int64_t* col, uint32_t row_begin,
                            uint32_t row_end, int64_t lo, int64_t hi,
                            uint32_t* out_sel) {
  size_t k = 0;
  uint32_t r = row_begin;
  const int64x2_t vlo = vdupq_n_s64(lo);
  const int64x2_t vhi = vdupq_n_s64(hi);
  for (; r + 2 <= row_end; r += 2) {
    int64x2_t v = vld1q_s64(col + r);
    uint64x2_t ok = vandq_u64(vcgeq_s64(v, vlo), vcleq_s64(v, vhi));
    out_sel[k] = r;
    k += static_cast<size_t>(vgetq_lane_u64(ok, 0) & 1);
    out_sel[k] = r + 1;
    k += static_cast<size_t>(vgetq_lane_u64(ok, 1) & 1);
  }
  for (; r < row_end; ++r) {
    int64_t v = col[r];
    out_sel[k] = r;
    k += static_cast<size_t>((v >= lo) & (v <= hi));
  }
  return k;
}

constexpr KernelTable kNeonTable = {
    FilterEqDenseNeon,    FilterEqSelScalar,   FilterRangeDenseNeon,
    FilterRangeSelScalar, FilterInDenseScalar, FilterInSelScalar,
    HashCombineColumnScalar, HashFinalizeScalar,
};

#endif  // LQO_SIMD_NEON

// ===========================================================================
// Dispatch state.
// ===========================================================================

// Cached resolved Level as int; -1 = unresolved. Protocol: release-store
// after resolution, acquire-load on read. Concurrent first calls may both
// resolve, but Resolve() is a pure function of the CPU and environment, so
// they store the same value — the race is benign and deterministic.
std::atomic<int> g_active_level{-1};

Level Resolve() {
  Level parsed;
  const char* env = std::getenv("LQO_SIMD");
  if (env != nullptr && ParseLevel(env, &parsed) && LevelSupported(parsed)) {
    return parsed;
  }
  return BestSupportedLevel();
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
    case Level::kNeon: return "neon";
  }
  return "scalar";
}

bool ParseLevel(const char* name, Level* out) {
  if (name == nullptr) return false;
  for (int i = 0; i < kNumLevels; ++i) {
    Level level = static_cast<Level>(i);
    const char* spelled = LevelName(level);
    size_t j = 0;
    while (spelled[j] != '\0' && name[j] == spelled[j]) ++j;
    if (spelled[j] == '\0' && name[j] == '\0') {
      *out = level;
      return true;
    }
  }
  return false;
}

bool LevelSupported(Level level) {
  if (level == Level::kScalar) return true;
#if LQO_SIMD_X86
  if (level == Level::kAvx2) return __builtin_cpu_supports("avx2") != 0;
#endif
#if LQO_SIMD_NEON
  if (level == Level::kNeon) return true;
#endif
  return false;
}

Level BestSupportedLevel() {
  if (LevelSupported(Level::kAvx2)) return Level::kAvx2;
  if (LevelSupported(Level::kNeon)) return Level::kNeon;
  return Level::kScalar;
}

std::vector<Level> SupportedLevels() {
  std::vector<Level> levels;
  for (int i = 0; i < kNumLevels; ++i) {
    Level level = static_cast<Level>(i);
    if (LevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

Level ActiveLevel() {
  int v = g_active_level.load(std::memory_order_acquire);
  if (v < 0) {
    v = static_cast<int>(Resolve());
    g_active_level.store(v, std::memory_order_release);
  }
  return static_cast<Level>(v);
}

Level SetLevelForTest(Level level) {
  Level previous = ActiveLevel();
  if (!LevelSupported(level)) level = Level::kScalar;
  g_active_level.store(static_cast<int>(level), std::memory_order_release);
  return previous;
}

Level ReinitFromEnv() {
  g_active_level.store(static_cast<int>(Resolve()), std::memory_order_release);
  return ActiveLevel();
}

const KernelTable& KernelsFor(Level level) {
  if (!LevelSupported(level)) return kScalarTable;
  switch (level) {
    case Level::kScalar:
      return kScalarTable;
#if LQO_SIMD_X86
    case Level::kAvx2:
      return kAvx2Table;
#endif
#if LQO_SIMD_NEON
    case Level::kNeon:
      return kNeonTable;
#endif
    default:
      return kScalarTable;
  }
}

const KernelTable& Kernels() { return KernelsFor(ActiveLevel()); }

}  // namespace lqo::simd
