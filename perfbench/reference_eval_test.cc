// Checks the benchmark's reference evaluator against answers worked out by
// hand on a tiny catalog. Run: perfbench_test (built next to lqo_perfbench);
// exits 1 and names the failing case on any disagreement.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "reference_eval.h"
#include "storage/table.h"

namespace lqo::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

Table MakeTable(const std::string& name, const std::vector<std::string>& cols,
                const std::vector<std::vector<int64_t>>& rows) {
  TableBuilder b(name);
  for (const std::string& c : cols) b.AddInt64Column(c);
  for (const std::vector<int64_t>& r : rows) b.AppendRow(r);
  return b.Build();
}

// a(id, val), b(a_id, x), c(a_id, y), w(v): joins a.id = b.a_id = c.a_id.
Catalog MakeCatalog() {
  Catalog catalog;
  Expect(catalog.AddTable(MakeTable("a", {"id", "val"},
                                    {{1, 10}, {2, 20}, {3, 30}, {4, 40}}))
             .ok(),
         "add a");
  Expect(catalog.AddTable(MakeTable("b", {"a_id", "x"},
                                    {{1, 5}, {1, 7}, {2, 9}, {4, -3}, {5, 100}}))
             .ok(),
         "add b");
  Expect(catalog.AddTable(MakeTable("c", {"a_id", "y"}, {{1, 0}, {2, 0}, {2, 1}}))
             .ok(),
         "add c");
  const int64_t big = std::numeric_limits<int64_t>::max();
  Expect(catalog.AddTable(MakeTable("w", {"v"}, {{big}, {2}})).ok(), "add w");
  return catalog;
}

Query AB() {
  Query q;
  q.AddTable("a", "a");
  q.AddTable("b", "b");
  q.AddJoin(0, "id", 1, "a_id");
  return q;
}

ReferenceResult Eval(const Catalog& catalog, const Query& q,
                     const std::string& name) {
  auto r = EvaluateReference(catalog, q);
  Expect(r.ok(), name + ": " + (r.ok() ? "" : r.status().ToString()));
  return r.ok() ? *r : ReferenceResult{};
}

void ExpectRows(const ReferenceResult& r, uint64_t count,
                std::vector<std::vector<int64_t>> rows,
                const std::string& name) {
  Expect(r.row_count == count, name + ": row_count " +
                                   std::to_string(r.row_count) + " != " +
                                   std::to_string(count));
  ExecutionResult as_engine;
  as_engine.row_count = count;
  as_engine.output_row_count = rows.size();
  if (!rows.empty()) as_engine.output_cols.resize(rows[0].size());
  for (const std::vector<int64_t>& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) as_engine.output_cols[c].push_back(row[c]);
  }
  const std::string diff = CompareWithReference(as_engine, r);
  Expect(diff.empty(), name + ": " + diff);
}

void Run() {
  const Catalog catalog = MakeCatalog();

  // Join a-b: (1,5) (1,7) (2,9) (4,-3); b row a_id=5 and a row id=3 drop.
  ExpectRows(Eval(catalog, AB(), "join count"), 4, {}, "join count");

  Query ranged = AB();
  ranged.AddPredicate(Predicate::Range(0, "val", 15, 40));  // a2, a3, a4
  ExpectRows(Eval(catalog, ranged, "range"), 2, {}, "range");

  // SUM(b.x) = 5+7+9-3 = 18, MIN(b.x) = -3, MAX(a.val) = 40,
  // AVG(b.x) = 18/4 truncated = 4, COUNT(*) = 4.
  Query agg = AB();
  agg.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 1, "x"));
  agg.AddOutput(OutputExpr::Aggregate(AggFunc::kMin, 1, "x"));
  agg.AddOutput(OutputExpr::Aggregate(AggFunc::kMax, 0, "val"));
  agg.AddOutput(OutputExpr::Aggregate(AggFunc::kAvg, 1, "x"));
  agg.AddOutput(OutputExpr::CountStar());
  ExpectRows(Eval(catalog, agg, "global aggregates"), 4, {{18, -3, 40, 4, 4}},
             "global aggregates");

  // Empty input: every aggregate is 0.
  Query empty = agg;
  empty.AddPredicate(Predicate::Equals(0, "val", 99));
  ExpectRows(Eval(catalog, empty, "empty aggregates"), 0, {{0, 0, 0, 0, 0}},
             "empty aggregates");

  // GROUP BY a.id: 1 -> (2 rows, 12), 2 -> (1, 9), 4 -> (1, -3).
  Query grouped = AB();
  grouped.AddOutput(OutputExpr::Column(0, "id"));
  grouped.AddOutput(OutputExpr::CountStar());
  grouped.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 1, "x"));
  grouped.SetGroupBy(0, "id");
  ExpectRows(Eval(catalog, grouped, "group by"), 4,
             {{4, 1, -3}, {1, 2, 12}, {2, 1, 9}}, "group by");

  // Projection with an IN list: b.x in (7, 9) -> (10, 7), (20, 9).
  Query projected = AB();
  projected.AddPredicate(Predicate::In(1, "x", {7, 9}));
  projected.AddOutput(OutputExpr::Column(0, "val"));
  projected.AddOutput(OutputExpr::Column(1, "x"));
  ExpectRows(Eval(catalog, projected, "projection"), 2, {{20, 9}, {10, 7}},
             "projection");

  // Cycle a-b-c-a: a1 pairs with c(1,0) for both of its b rows, a2 with
  // c(2,0) and c(2,1) for its one b row, a4 has no c row: 4 rows.
  Query cyclic = AB();
  cyclic.AddTable("c", "c");
  cyclic.AddJoin(1, "a_id", 2, "a_id");
  cyclic.AddJoin(0, "id", 2, "a_id");
  ExpectRows(Eval(catalog, cyclic, "cycle"), 4, {}, "cycle");

  // SUM wraps in uint64: INT64_MAX + 2 = INT64_MIN + 1; AVG divides the
  // wrapped sum by the count, truncating toward zero.
  Query wrap;
  wrap.AddTable("w", "w");
  wrap.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 0, "v"));
  wrap.AddOutput(OutputExpr::Aggregate(AggFunc::kAvg, 0, "v"));
  const int64_t wrapped = std::numeric_limits<int64_t>::min() + 1;
  ExpectRows(Eval(catalog, wrap, "wrapping sum"), 2, {{wrapped, wrapped / 2}},
             "wrapping sum");

  // The comparison itself: a changed value or count must be reported.
  ReferenceResult want = Eval(catalog, projected, "projection");
  ExecutionResult wrong;
  wrong.row_count = 2;
  wrong.output_row_count = 2;
  wrong.output_cols = {{10, 20}, {7, 8}};
  Expect(!CompareWithReference(wrong, want).empty(), "changed value detected");
  wrong.output_cols = {{20, 10}, {9, 7}};
  Expect(CompareWithReference(wrong, want).empty(), "row order ignored");
  ExecutionResult reordered = wrong;
  reordered.output_cols = {{10, 20}, {7, 9}};
  Expect(ResultDigest(wrong) == ResultDigest(reordered),
         "digest ignores row order");
  reordered.row_count = 3;
  Expect(!CompareWithReference(reordered, want).empty(),
         "changed row_count detected");
  Expect(ResultDigest(wrong) != ResultDigest(reordered),
         "digest covers row_count");

  // Mixed bare column and aggregate without GROUP BY is refused.
  Query mixed = AB();
  mixed.AddOutput(OutputExpr::Column(0, "val"));
  mixed.AddOutput(OutputExpr::CountStar());
  Expect(!EvaluateReference(catalog, mixed).ok(), "mixed outputs refused");
}

}  // namespace
}  // namespace lqo::perfbench

int main() {
  lqo::perfbench::Run();
  if (lqo::perfbench::failures > 0) return 1;
  std::fprintf(stderr, "perfbench_test: reference evaluator ok\n");
  return 0;
}
