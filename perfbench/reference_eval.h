#ifndef LQO_PERFBENCH_REFERENCE_EVAL_H_
#define LQO_PERFBENCH_REFERENCE_EVAL_H_

// Correctness oracle of the benchmark, written apart from the program under
// test: it reads Catalog columns directly and evaluates predicates, joins
// and the output stage with plain loops and hash maps. It shares no code
// with lqo::Executor, the engine kernels or TrueCardinalityService, so a
// fault in any of them shows up as a disagreement instead of being copied
// into the expected answer.

#include <cstdint>
#include <string>

#include "common/status.h"
#include "engine/executor.h"
#include "query/query.h"
#include "storage/catalog.h"

namespace lqo::perfbench {

/// The answer of one query in engine-independent form. Output rows are kept
/// as an order-independent digest (see RowsDigest), so checking a
/// million-row projection costs no memory beyond the join's hash indexes.
struct ReferenceResult {
  /// Qualifying rows entering the output stage (the COUNT(*) answer).
  uint64_t row_count = 0;
  /// Number of output rows (0 for a query without a select list).
  uint64_t output_row_count = 0;
  /// Multiset digest of the output rows.
  uint64_t rows_digest = 0;
};

/// Evaluates `query` over `catalog`. Semantics follow the query model:
/// inclusive ranges, equality, IN lists; equi-joins (cyclic edges are extra
/// filters); COUNT/SUM/MIN/MAX/AVG with SUM in wrapping uint64, AVG the
/// truncated quotient of that sum, and every aggregate 0 over an empty
/// input. The join is enumerated depth-first, so no intermediate result is
/// materialized. Fails on a query that names an unknown table or column, or
/// that mixes bare columns and aggregates without GROUP BY.
StatusOr<ReferenceResult> EvaluateReference(const Catalog& catalog,
                                            const Query& query);

/// Hash of one output row; a sum of row hashes is the multiset digest.
uint64_t RowHash(const int64_t* values, size_t width);

/// Multiset digest of an engine result's output rows.
uint64_t RowsDigest(const ExecutionResult& result);

/// Compares an engine result with the reference: row_count, the number of
/// output rows and the multiset of output rows must match. Returns an empty
/// string on agreement, otherwise a one-line description of the difference.
std::string CompareWithReference(const ExecutionResult& engine,
                                 const ReferenceResult& reference);

/// Digest of a whole engine result (row_count plus output rows), used to
/// compare repeated executions and different plans of one query.
uint64_t ResultDigest(const ExecutionResult& result);

}  // namespace lqo::perfbench

#endif  // LQO_PERFBENCH_REFERENCE_EVAL_H_
