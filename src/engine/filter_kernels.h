#ifndef LQO_ENGINE_FILTER_KERNELS_H_
#define LQO_ENGINE_FILTER_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "query/predicate.h"

namespace lqo {

/// Branch-free predicate kernels over contiguous int64 column spans — the
/// selection-vector stage of the vectorized executor (DESIGN.md "Vectorized
/// execution").
///
/// Survivors always come out in ascending row order, which is what makes
/// vectorized output bit-identical to the tuple-at-a-time loop. `Dense`
/// scans the contiguous row range [row_begin, row_end); `Sel` refines an
/// existing selection vector. Both return the number of surviving rows
/// written to `out_sel`, whose capacity must cover the input count.
/// Selection semantics match Predicate::Matches exactly (inclusive ranges,
/// sorted-unique IN lists).
///
/// Each call switches once on the predicate kind (per batch, never per row)
/// and runs the matching kernel of the active engine/simd.h kernel table:
/// compare→movemask→compressed-store on AVX2 (or under an `LQO_SIMD`
/// override), the scalar reference loops otherwise; every level is
/// bit-identical. Callers with a fixed comparison call the table's typed
/// entries directly.

size_t FilterDense(const Predicate& p, const int64_t* col, uint32_t row_begin,
                   uint32_t row_end, uint32_t* out_sel);
size_t FilterSel(const Predicate& p, const int64_t* col, const uint32_t* sel,
                 size_t count, uint32_t* out_sel);

}  // namespace lqo

#endif  // LQO_ENGINE_FILTER_KERNELS_H_
