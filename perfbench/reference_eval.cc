#include "reference_eval.h"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lqo::perfbench {
namespace {

// Join results past this many rows are refused rather than enumerated.
constexpr uint64_t kMaxJoinRows = uint64_t{1} << 30;

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

using ColumnRef = const std::vector<int64_t>*;

StatusOr<ColumnRef> ColumnData(const Catalog& catalog, const Query& query,
                               int table_index, const std::string& column) {
  if (table_index < 0 || table_index >= query.num_tables()) {
    return Status::InvalidArgument("table index out of range");
  }
  const std::string& name =
      query.tables()[static_cast<size_t>(table_index)].table_name;
  auto table = catalog.GetTable(name);
  if (!table.ok()) return table.status();
  for (const Column& c : (*table)->columns()) {
    if (c.name == column) return &c.data;
  }
  return Status::NotFound("no column " + name + "." + column);
}

bool Satisfies(const Predicate& p, int64_t v) {
  switch (p.kind) {
    case PredicateKind::kEquals:
      return v == p.value;
    case PredicateKind::kRange:
      return p.lo <= v && v <= p.hi;
    case PredicateKind::kIn:
      return std::find(p.in_values.begin(), p.in_values.end(), v) !=
             p.in_values.end();
  }
  return false;
}

// Row ids of query table `t` that pass its predicates and self-joins.
StatusOr<std::vector<uint32_t>> QualifyingRows(const Catalog& catalog,
                                               const Query& query, int t) {
  auto table =
      catalog.GetTable(query.tables()[static_cast<size_t>(t)].table_name);
  if (!table.ok()) return table.status();
  std::vector<std::pair<const Predicate*, ColumnRef>> preds;
  for (const Predicate& p : query.predicates()) {
    if (p.table_index != t) continue;
    auto data = ColumnData(catalog, query, t, p.column);
    if (!data.ok()) return data.status();
    preds.emplace_back(&p, *data);
  }
  std::vector<std::pair<ColumnRef, ColumnRef>> self_joins;
  for (const QueryJoin& j : query.joins()) {
    if (j.left_table != t || j.right_table != t) continue;
    auto l = ColumnData(catalog, query, t, j.left_column);
    auto r = ColumnData(catalog, query, t, j.right_column);
    if (!l.ok()) return l.status();
    if (!r.ok()) return r.status();
    self_joins.emplace_back(*l, *r);
  }
  std::vector<uint32_t> rows;
  for (size_t row = 0; row < (*table)->num_rows(); ++row) {
    bool keep = true;
    for (const auto& [p, data] : preds) keep = keep && Satisfies(*p, (*data)[row]);
    for (const auto& [l, r] : self_joins) keep = keep && (*l)[row] == (*r)[row];
    if (keep) rows.push_back(static_cast<uint32_t>(row));
  }
  return rows;
}

// An equi-join conjunct between the table a step adds and an earlier step.
struct Edge {
  ColumnRef new_col = nullptr;
  ColumnRef old_col = nullptr;
  size_t old_step = 0;
};

// One table of the join order. Step 0 scans its qualifying rows; every
// later step probes a hash index of its qualifying rows with the first
// edge's key and checks the remaining edges.
struct Step {
  std::vector<uint32_t> rows;
  std::vector<Edge> edges;
  std::unordered_map<int64_t, std::vector<uint32_t>> index;
};

struct Acc {
  uint64_t sum = 0;
  int64_t mn = std::numeric_limits<int64_t>::max();
  int64_t mx = std::numeric_limits<int64_t>::min();

  void Fold(int64_t v) {
    sum += static_cast<uint64_t>(v);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
};

int64_t Finalize(AggFunc func, const Acc& acc, uint64_t count) {
  switch (func) {
    case AggFunc::kCount:
      return static_cast<int64_t>(count);
    case AggFunc::kSum:
      return static_cast<int64_t>(acc.sum);
    case AggFunc::kAvg:
      return count == 0 ? 0
                        : static_cast<int64_t>(acc.sum) /
                              static_cast<int64_t>(count);
    case AggFunc::kMin:
      return count == 0 ? 0 : acc.mn;
    case AggFunc::kMax:
      return count == 0 ? 0 : acc.mx;
  }
  return 0;
}

// Enumerates every joined row depth-first and hands the current row id of
// each step to `emit`.
template <typename Emit>
bool Enumerate(std::vector<Step>& steps, size_t step, std::vector<uint32_t>& at,
               uint64_t* count, Emit& emit) {
  if (step == steps.size()) {
    if (++*count > kMaxJoinRows) return false;
    emit(at);
    return true;
  }
  Step& s = steps[step];
  const std::vector<uint32_t>* candidates = &s.rows;
  if (step > 0) {
    const Edge& key = s.edges[0];
    auto it = s.index.find((*key.old_col)[at[key.old_step]]);
    if (it == s.index.end()) return true;
    candidates = &it->second;
  }
  for (uint32_t row : *candidates) {
    bool match = true;
    for (size_t e = 1; e < s.edges.size(); ++e) {
      const Edge& edge = s.edges[e];
      match = match && (*edge.new_col)[row] == (*edge.old_col)[at[edge.old_step]];
    }
    if (!match) continue;
    at[step] = row;
    if (!Enumerate(steps, step + 1, at, count, emit)) return false;
  }
  return true;
}

}  // namespace

uint64_t RowHash(const int64_t* values, size_t width) {
  uint64_t h = 0x5bd1e995u;
  for (size_t i = 0; i < width; ++i) h = Mix(h ^ static_cast<uint64_t>(values[i]));
  return h;
}

StatusOr<ReferenceResult> EvaluateReference(const Catalog& catalog,
                                            const Query& query) {
  const int n = query.num_tables();
  if (n == 0) return Status::InvalidArgument("query has no tables");
  std::vector<std::vector<uint32_t>> qualifying(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    auto rows = QualifyingRows(catalog, query, t);
    if (!rows.ok()) return rows.status();
    qualifying[static_cast<size_t>(t)] = std::move(*rows);
  }

  // Join order: the smallest filtered table first, then repeatedly the
  // smallest table adjacent to what is already joined.
  std::vector<int> step_of(static_cast<size_t>(n), -1);
  std::vector<Step> steps;
  for (int step = 0; step < n; ++step) {
    int next = -1;
    for (int t = 0; t < n; ++t) {
      if (step_of[static_cast<size_t>(t)] >= 0) continue;
      bool adjacent = step == 0;
      for (const QueryJoin& j : query.joins()) {
        adjacent = adjacent ||
                   (j.left_table == t && j.right_table != t &&
                    step_of[static_cast<size_t>(j.right_table)] >= 0) ||
                   (j.right_table == t && j.left_table != t &&
                    step_of[static_cast<size_t>(j.left_table)] >= 0);
      }
      if (adjacent &&
          (next < 0 || qualifying[static_cast<size_t>(t)].size() <
                           qualifying[static_cast<size_t>(next)].size())) {
        next = t;
      }
    }
    if (next < 0) return Status::InvalidArgument("join graph is disconnected");
    Step s;
    s.rows = std::move(qualifying[static_cast<size_t>(next)]);
    for (const QueryJoin& j : query.joins()) {
      int other = -1;
      const std::string* new_col = nullptr;
      const std::string* old_col = nullptr;
      if (j.left_table == next && j.right_table != next) {
        other = j.right_table;
        new_col = &j.left_column;
        old_col = &j.right_column;
      } else if (j.right_table == next && j.left_table != next) {
        other = j.left_table;
        new_col = &j.right_column;
        old_col = &j.left_column;
      }
      if (other < 0 || step_of[static_cast<size_t>(other)] < 0) continue;
      auto nc = ColumnData(catalog, query, next, *new_col);
      auto oc = ColumnData(catalog, query, other, *old_col);
      if (!nc.ok()) return nc.status();
      if (!oc.ok()) return oc.status();
      s.edges.push_back(
          {*nc, *oc, static_cast<size_t>(step_of[static_cast<size_t>(other)])});
    }
    if (step > 0) {
      for (uint32_t row : s.rows) s.index[(*s.edges[0].new_col)[row]].push_back(row);
    }
    step_of[static_cast<size_t>(next)] = step;
    steps.push_back(std::move(s));
  }

  // Resolve the output stage: per item the column and the step of its table.
  const std::vector<OutputExpr>& outputs = query.outputs();
  std::vector<std::pair<ColumnRef, size_t>> refs(outputs.size(), {nullptr, 0});
  bool any_column = false;
  bool any_aggregate = false;
  for (size_t o = 0; o < outputs.size(); ++o) {
    const OutputExpr& e = outputs[o];
    any_column |= e.kind == OutputExpr::Kind::kColumn;
    any_aggregate |= e.kind == OutputExpr::Kind::kAggregate;
    if (!e.ReferencesColumn()) continue;
    auto data = ColumnData(catalog, query, e.table_index, e.column);
    if (!data.ok()) return data.status();
    refs[o] = {*data, static_cast<size_t>(step_of[static_cast<size_t>(e.table_index)])};
  }
  std::pair<ColumnRef, size_t> key_ref{nullptr, 0};
  if (query.has_group_by()) {
    auto data = ColumnData(catalog, query, query.group_by_table(),
                           query.group_by_column());
    if (!data.ok()) return data.status();
    key_ref = {*data, static_cast<size_t>(
                          step_of[static_cast<size_t>(query.group_by_table())])};
    for (const OutputExpr& e : outputs) {
      if (e.kind == OutputExpr::Kind::kColumn &&
          (e.table_index != query.group_by_table() ||
           e.column != query.group_by_column())) {
        return Status::InvalidArgument("bare column is not the GROUP BY key");
      }
    }
  } else if (any_column && any_aggregate) {
    return Status::InvalidArgument(
        "mixing bare columns and aggregates requires GROUP BY");
  }

  ReferenceResult result;
  struct Group {
    uint64_t count = 0;
    std::vector<Acc> accs;
  };
  std::map<int64_t, Group> groups;
  Group global;
  global.accs.resize(outputs.size());
  std::vector<int64_t> row(outputs.size());
  auto value = [&](size_t o, const std::vector<uint32_t>& at) {
    return (*refs[o].first)[at[refs[o].second]];
  };
  auto emit = [&](const std::vector<uint32_t>& at) {
    if (outputs.empty()) return;
    Group* g = &global;
    if (key_ref.first != nullptr) {
      g = &groups[(*key_ref.first)[at[key_ref.second]]];
      if (g->accs.empty()) g->accs.resize(outputs.size());
    } else if (any_column) {  // projection: one output row per joined row
      for (size_t o = 0; o < outputs.size(); ++o) row[o] = value(o, at);
      result.rows_digest += RowHash(row.data(), row.size());
      ++result.output_row_count;
      return;
    }
    ++g->count;
    for (size_t o = 0; o < outputs.size(); ++o) {
      if (refs[o].first != nullptr) g->accs[o].Fold(value(o, at));
    }
  };
  std::vector<uint32_t> at(steps.size(), 0);
  if (!Enumerate(steps, 0, at, &result.row_count, emit)) {
    return Status::FailedPrecondition("reference join result is too large");
  }

  auto add_group = [&](const Group& g, int64_t key) {
    for (size_t o = 0; o < outputs.size(); ++o) {
      row[o] = outputs[o].kind == OutputExpr::Kind::kColumn
                   ? key
                   : Finalize(outputs[o].func, g.accs[o], g.count);
    }
    result.rows_digest += RowHash(row.data(), row.size());
    ++result.output_row_count;
  };
  if (key_ref.first != nullptr) {
    for (const auto& [key, g] : groups) add_group(g, key);
  } else if (any_aggregate) {
    add_group(global, 0);
  }
  return result;
}

uint64_t RowsDigest(const ExecutionResult& result) {
  uint64_t digest = 0;  // a sum is order-independent: rows form a multiset
  std::vector<int64_t> row(result.output_cols.size());
  for (uint64_t i = 0; i < result.output_row_count; ++i) {
    for (size_t c = 0; c < row.size(); ++c) {
      const std::vector<int64_t>& col = result.output_cols[c];
      row[c] = i < col.size() ? col[i] : 0;
    }
    digest += RowHash(row.data(), row.size());
  }
  return digest;
}

std::string CompareWithReference(const ExecutionResult& engine,
                                 const ReferenceResult& reference) {
  if (engine.row_count != reference.row_count) {
    return "row_count " + std::to_string(engine.row_count) + " != reference " +
           std::to_string(reference.row_count);
  }
  if (engine.output_row_count != reference.output_row_count) {
    return "output rows " + std::to_string(engine.output_row_count) +
           " != reference " + std::to_string(reference.output_row_count);
  }
  for (const std::vector<int64_t>& col : engine.output_cols) {
    if (col.size() != engine.output_row_count) {
      return "output column length differs from output_row_count";
    }
  }
  if (RowsDigest(engine) != reference.rows_digest) {
    return "output rows differ from the reference as a multiset";
  }
  return "";
}

uint64_t ResultDigest(const ExecutionResult& result) {
  return Mix(result.row_count) ^ Mix(RowsDigest(result) + result.output_row_count);
}

}  // namespace lqo::perfbench
