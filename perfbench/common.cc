#include <algorithm>
#include <cstdio>

#include "query/workload.h"
#include "workloads.h"

namespace lqo::perfbench {
namespace {

// Keeps only the predicates on the first two query tables (see
// ChainTemplates).
Query TrimPredicates(const Query& query) {
  Query trimmed;
  for (const QueryTable& t : query.tables()) trimmed.AddTable(t.table_name, t.alias);
  for (const QueryJoin& j : query.joins()) {
    trimmed.AddJoin(j.left_table, j.left_column, j.right_table, j.right_column);
  }
  for (const Predicate& p : query.predicates()) {
    if (p.table_index < 2) trimmed.AddPredicate(p);
  }
  return trimmed;
}

// The value stored under `name`, or null.
template <typename V>
const V* Find(const std::vector<std::pair<std::string, V>>& pairs,
              const std::string& name) {
  for (const auto& [key, value] : pairs) {
    if (key == name) return &value;
  }
  return nullptr;
}

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

std::vector<Query> ChainTemplates(const Catalog& catalog) {
  WorkloadOptions options;
  options.num_queries = 16;
  options.min_tables = 10;
  options.max_tables = 12;
  // Range-only: equality on a Zipf column swings selectivity binding to
  // binding far enough to read as drift to the plan cache.
  options.equality_prob = 0.0;
  options.in_prob = 0.0;
  options.seed = 77;
  std::vector<Query> templates = GenerateWorkload(catalog, options).queries;
  for (Query& q : templates) q = TrimPredicates(q);
  return templates;
}

const ReferenceResult* ReferenceBook::Get(size_t binding) {
  if (refused_[binding]) return nullptr;
  if (!answers_[binding].has_value()) {
    auto answer = EvaluateReference(*catalog_, (*queries_)[binding]);
    if (!answer.ok()) {
      std::fprintf(stderr, "reference evaluator refused binding %zu: %s\n",
                   binding, answer.status().ToString().c_str());
      refused_[binding] = true;
      return nullptr;
    }
    answers_[binding] = std::move(*answer);
  }
  return &*answers_[binding];
}

std::vector<std::string> FamilyNames() {
  std::vector<std::string> names = {"native"};
  for (const std::string& e : EstimatorNames()) names.push_back("ce_" + e);
  for (const std::string& o : OptimizerNames()) names.push_back(o);
  return names;
}

void LayerReport::AddTo(const Tracer& tracer, MetricSet* metrics) const {
  const std::map<std::string, std::vector<double>> self = tracer.SelfMicros();
  // Median self time of the spans named `name`, or of every span whose
  // name starts with `name.` when pooled.
  auto span_us = [&](const std::string& name, bool pooled) {
    std::vector<double> values;
    for (const auto& [span, micros] : self) {
      if (span == name || (pooled && span.rfind(name + ".", 0) == 0)) {
        values.insert(values.end(), micros.begin(), micros.end());
      }
    }
    return Median(std::move(values));
  };

  metrics->Add("query.parse_us", span_us(kSpanParse, false), "us");
  metrics->Add("serving.classify_us", span_us(kSpanClassify, false), "us");
  metrics->Add("serving.lookup_us", span_us(kSpanLookup, false), "us");
  metrics->Add("serving.bind_us", span_us(kSpanBind, false), "us");
  metrics->Add("serving.observe_us", span_us(kSpanObserve, false), "us");
  metrics->Add("serving.install_us", span_us(kSpanInstall, false), "us");
  metrics->Add("serving.hit_ratio", hit_ratio, "ratio");
  metrics->Add("serving.replans", static_cast<double>(replans), "count");

  metrics->Add("optimizer.plan_us", span_us(kSpanPlan, false), "us");
  metrics->Add("optimizer.combinations", static_cast<double>(combinations),
               "count");
  metrics->Add("optimizer.card_cache_hit_ratio",
               Ratio(card_cache_hits, card_cache_lookups), "ratio");

  metrics->Add("cardinality.estimate_us", span_us(kSpanEstimate, true), "us");
  for (const std::string& e : EstimatorNames()) {
    metrics->Add("cardinality.estimate_us." + e,
                 span_us(std::string(kSpanEstimate) + "." + e, false), "us");
  }
  std::vector<double> pooled;
  for (const auto& [name, q] : qerrors) pooled.insert(pooled.end(), q.begin(), q.end());
  metrics->Add("cardinality.qerror_p50", Percentile(pooled, 0.5), "ratio");
  metrics->Add("cardinality.qerror_p95", Percentile(pooled, 0.95), "ratio");
  for (const std::string& e : EstimatorNames()) {
    const std::vector<double>* q = Find(qerrors, e);
    metrics->Add("cardinality.qerror_p50." + e, q ? Percentile(*q, 0.5) : 0.0,
                 "ratio");
  }
  double build_total = 0.0;
  for (const auto& [name, s] : build_s) build_total += s;
  metrics->Add("cardinality.build_s", build_total, "s");
  for (const std::string& e : EstimatorNames()) {
    const double* s = Find(build_s, e);
    metrics->Add("cardinality.build_s." + e, s ? *s : 0.0, "s");
  }

  metrics->Add("e2e.choose_plan_us", span_us(kSpanChoosePlan, true), "us");
  for (const std::string& o : OptimizerNames()) {
    metrics->Add("e2e.choose_plan_us." + o,
                 span_us(std::string(kSpanChoosePlan) + "." + o, false), "us");
  }
  double train_total = 0.0;
  for (const auto& [name, s] : train_s) train_total += s;
  metrics->Add("e2e.train_s", train_total, "s");
  for (const std::string& o : OptimizerNames()) {
    const double* s = Find(train_s, o);
    metrics->Add("e2e.train_s." + o, s ? *s : 0.0, "s");
  }

  metrics->Add("ml.infer_rows", static_cast<double>(infer_rows), "count");
  metrics->Add("ml.infer_rows_per_s", infer_rows_per_s, "rows/s");
  metrics->Add("ml.feature_cache_hit_ratio",
               Ratio(feature_cache_hits, feature_cache_lookups), "ratio");

  (engine != nullptr ? *engine : EngineStats{}).AddTo(metrics);
  metrics->Add("storage.generate_s", generate_s, "s");
  metrics->Add("optimizer.stats_build_s", stats_build_s, "s");

  for (const std::string& f : FamilyNames()) {
    const FamilyStats* const* stats = Find(families, f);
    const FamilyStats* fs = stats != nullptr ? *stats : nullptr;
    metrics->Add("family." + f + ".latency_p50_us",
                 fs ? Median(fs->latency_s) * 1e6 : 0.0, "us");
    metrics->Add("family." + f + ".exec_p50_us",
                 fs ? Median(fs->exec_s) * 1e6 : 0.0, "us");
    metrics->Add("family." + f + ".plan_cost_tu", fs ? fs->plan_cost_tu : 0.0,
                 "tu");
  }
}

}  // namespace lqo::perfbench
