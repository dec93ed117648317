#include "engine/filter_kernels.h"

#include "engine/simd.h"

namespace lqo {

size_t FilterDense(const Predicate& p, const int64_t* col, uint32_t row_begin,
                   uint32_t row_end, uint32_t* out_sel) {
  const simd::KernelTable& kt = simd::Kernels();
  switch (p.kind) {
    case PredicateKind::kEquals:
      return kt.filter_eq_dense(col, row_begin, row_end, p.value, out_sel);
    case PredicateKind::kRange:
      return kt.filter_range_dense(col, row_begin, row_end, p.lo, p.hi,
                                   out_sel);
    case PredicateKind::kIn:
      return kt.filter_in_dense(col, row_begin, row_end, p.in_values.data(),
                                p.in_values.size(), out_sel);
  }
  return 0;
}

size_t FilterSel(const Predicate& p, const int64_t* col, const uint32_t* sel,
                 size_t count, uint32_t* out_sel) {
  const simd::KernelTable& kt = simd::Kernels();
  switch (p.kind) {
    case PredicateKind::kEquals:
      return kt.filter_eq_sel(col, sel, count, p.value, out_sel);
    case PredicateKind::kRange:
      return kt.filter_range_sel(col, sel, count, p.lo, p.hi, out_sel);
    case PredicateKind::kIn:
      return kt.filter_in_sel(col, sel, count, p.in_values.data(),
                              p.in_values.size(), out_sel);
  }
  return 0;
}

}  // namespace lqo
