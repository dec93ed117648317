#ifndef LQO_PERFBENCH_WORKLOADS_H_
#define LQO_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "ml/inference_stats.h"
#include "query/query.h"
#include "reference_eval.h"
#include "storage/catalog.h"

namespace lqo::perfbench {

/// The per-layer metrics every workload reports, filled from the traced
/// spans and the workload's counters: every name in BENCHMARK.json's
/// per_layer list, reading 0 where the workload does not exercise a layer.
struct LayerReport {
  double generate_s = 0.0;
  double stats_build_s = 0.0;
  double hit_ratio = 0.0;
  uint64_t replans = 0;
  uint64_t combinations = 0;
  uint64_t card_cache_hits = 0;
  uint64_t card_cache_lookups = 0;
  std::vector<std::pair<std::string, std::vector<double>>> qerrors;  // per estimator
  std::vector<std::pair<std::string, double>> build_s;              // per estimator
  std::vector<std::pair<std::string, double>> train_s;              // per optimizer
  uint64_t infer_rows = 0;
  double infer_rows_per_s = 0.0;
  uint64_t feature_cache_hits = 0;
  uint64_t feature_cache_lookups = 0;
  std::vector<std::pair<std::string, const FamilyStats*>> families;
  const EngineStats* engine = nullptr;

  void AddTo(const Tracer& tracer, MetricSet* metrics) const;
};

/// Batched-inference counters over the measured passes: rows of pass 0
/// (deterministic) and the throughput over every pass.
struct InferenceTally {
  uint64_t pass0_rows = 0;
  uint64_t rows = 0;
  double seconds = 0.0;

  void Add(const InferenceStatsSnapshot& delta, int pass) {
    if (pass == 0) pass0_rows = delta.rows;
    rows += delta.rows;
    seconds += delta.seconds;
  }
  void AddTo(LayerReport* report) const {
    report->infer_rows = pass0_rows;
    report->infer_rows_per_s =
        seconds > 0.0 ? static_cast<double>(rows) / seconds : 0.0;
  }
};

/// What one pass of a workload did. Latencies are wall-clock per query from
/// the closed-loop client's point of view (SQL text in, result out); the
/// bookkeeping and correctness checks between queries are outside them.
struct PassLog {
  std::vector<double> latency_s;  // timed queries only
  double timed_s = 0.0;           // sum of latency_s
  double plan_cost_tu = 0.0;      // time units of the timed queries' plans
  uint64_t attempted = 0;         // every query of the pass, warm-up included
  uint64_t failed = 0;            // non-OK Status or a failed check
  bool properties_ok = true;      // checks not tied to one query
};

/// One benchmark workload. The driver calls Setup, Train, then RunPass with
/// pass = -1 (a short untimed warm-up) and 0, 1, 2, ... until the timed
/// seconds are spent. Every pass draws fresh bindings from the seed, so the
/// set of operations is a pure function of (seed, pass); plan_cost_tu is
/// taken from pass 0, which every run completes.
class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  /// Data generation, statistics, templates and the query text of pass 0.
  virtual void Setup(uint64_t seed) = 0;
  /// Trains the learned estimators and optimizers the workload uses, from
  /// scratch: a repeated call replaces the models and every cache that
  /// training fills, so each call does the same work.
  virtual void Train() = 0;
  virtual void RunPass(int pass, Tracer& tracer, PassLog* log) = 0;
  /// Counters behind the per-layer metrics of the traced run.
  virtual LayerReport Layers() const = 0;
};

std::unique_ptr<BenchWorkload> MakeServeCached();
std::unique_ptr<BenchWorkload> MakeLearnedPlanning();
std::unique_ptr<BenchWorkload> MakeAnalyticExec();

// ---- helpers shared by the workloads ------------------------------------

/// Seed of every workload's training queries. The training corpus is part
/// of the deployment, like the data and the templates, so train_s times the
/// same work in every run; --seed draws the traffic.
inline constexpr uint64_t kTrainingSeed = 88;

/// The 16 serving templates over MakeChainSchema(12, 200): 10-12-way joins
/// with range predicates on the first two tables only (more predicate sites
/// empty every result on 200-row tables).
std::vector<Query> ChainTemplates(const Catalog& catalog);

/// Reference answers of one pass, computed on first use per binding.
class ReferenceBook {
 public:
  ReferenceBook(const Catalog* catalog, const std::vector<Query>* queries)
      : catalog_(catalog),
        queries_(queries),
        answers_(queries->size()),
        refused_(queries->size(), false) {}
  /// Null when the evaluator refused the query (reported as a failure).
  const ReferenceResult* Get(size_t binding);

 private:
  const Catalog* catalog_;
  const std::vector<Query>* queries_;
  std::vector<std::optional<ReferenceResult>> answers_;
  std::vector<bool> refused_;
};

/// Layer names used for spans and metrics.
inline constexpr const char* kSpanQuery = "query";
inline constexpr const char* kSpanParse = "query.parse";
inline constexpr const char* kSpanClassify = "serving.classify";
inline constexpr const char* kSpanLookup = "serving.lookup";
inline constexpr const char* kSpanBind = "serving.bind";
inline constexpr const char* kSpanInstall = "serving.install";
inline constexpr const char* kSpanObserve = "serving.observe";
inline constexpr const char* kSpanPlan = "optimizer.plan";
// Suffixed with the optimizer or estimator name: "e2e.choose_plan.bao".
inline constexpr const char* kSpanChoosePlan = "e2e.choose_plan";
inline constexpr const char* kSpanEstimate = "cardinality.estimate";
inline constexpr const char* kSpanExecute = "engine.execute";

/// Estimators and optimizers named in the per-layer metric list, in order.
inline const std::vector<std::string>& EstimatorNames() {
  static const std::vector<std::string> names = {"gbdt_qd", "mscn_mlp",
                                                 "bayesnet"};
  return names;
}
inline const std::vector<std::string>& OptimizerNames() {
  static const std::vector<std::string> names = {"bao", "lero", "hyperqo"};
  return names;
}
/// Planner families: native DP, DP with each injected estimator, and each
/// learned optimizer's ChoosePlan.
std::vector<std::string> FamilyNames();

}  // namespace lqo::perfbench

#endif  // LQO_PERFBENCH_WORKLOADS_H_
