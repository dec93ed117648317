// learned_planning: planning-dominated traffic with the plan cache off.
// Held-out 10-12-way chain-join bindings are each planned by every family —
// native DP, DP with each learned estimator's cardinalities injected for
// every connected sub-query (the PilotScope batch-injection path), and each
// learned optimizer's ChoosePlan — and every chosen plan is executed.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "benchlib/e2e_harness.h"
#include "benchlib/lab.h"
#include "cardinality/data_driven.h"
#include "cardinality/query_driven.h"
#include "cardinality/training_data.h"
#include "common/rng.h"
#include "e2e/bao.h"
#include "e2e/hyperqo.h"
#include "e2e/lero.h"
#include "query/sql_parser.h"
#include "query/workload.h"
#include "workloads.h"

namespace lqo::perfbench {
namespace {

// 48 bindings (3 per template) x 7 families per pass.
constexpr int kBindingsPerPass = 48;
constexpr int kWarmupBindings = 4;

struct Family {
  std::string name;
  CardinalityEstimatorInterface* estimator = nullptr;  // injected-CE family
  LearnedQueryOptimizer* optimizer = nullptr;          // learned optimizer
  std::string span;
  int estimator_index = -1;  // slot in qerrors_ for injected-CE families
  FamilyStats stats;
};

double QError(double estimate, double actual) {
  estimate = std::max(estimate, 1.0);
  actual = std::max(actual, 1.0);
  return std::max(estimate, actual) / std::min(estimate, actual);
}

class LearnedPlanning : public BenchWorkload {
 public:
  void Setup(uint64_t seed) override {
    seed_ = seed;
    Clock::time_point t = Clock::now();
    Catalog catalog = MakeChainSchema(12, 200, 42);
    generate_s_ = SecondsBetween(t, Clock::now());
    t = Clock::now();
    lab_ = MakeLabFromCatalog(std::move(catalog));
    stats_build_s_ = SecondsBetween(t, Clock::now());
    context_ = lab_->Context();
    templates_ = ChainTemplates(lab_->catalog);
    BuildPass(0);
  }

  void Train() override {
    WorkloadOptions options;
    options.num_queries = 30;
    options.min_tables = 2;
    options.max_tables = 4;
    options.seed = kTrainingSeed;
    const lqo::Workload train = GenerateWorkload(lab_->catalog, options);
    families_.clear();
    estimators_.clear();
    query_driven_.clear();
    optimizers_.clear();
    build_s_.clear();
    train_s_.clear();
    // Labelling memoizes true counts and training fills the feature cache;
    // fresh ones per training keep repeated trainings identical.
    lab_->feature_cache = std::make_unique<FeatureCache>(PlanFeaturizer::kDim);
    context_ = lab_->Context();
    TrueCardinalityService truth(&lab_->catalog);
    Clock::time_point t = Clock::now();
    const CeTrainingData training_data =
        BuildCeTrainingData(lab_->catalog, lab_->stats, train, &truth);
    const double label_s = SecondsBetween(t, Clock::now());

    // Query-driven estimators share the labelled training set; its cost is
    // split evenly between them.
    for (auto [name, type] :
         {std::pair{"gbdt_qd", QueryDrivenEstimator::ModelType::kGbdt},
          std::pair{"mscn_mlp", QueryDrivenEstimator::ModelType::kMlp}}) {
      t = Clock::now();
      auto e = std::make_unique<QueryDrivenEstimator>(type, &lab_->catalog,
                                                      &lab_->stats);
      e->Train(training_data);
      query_driven_.push_back(e.get());
      build_s_.push_back({name, SecondsBetween(t, Clock::now()) + label_s / 2});
      estimators_.push_back(std::move(e));
    }
    t = Clock::now();
    auto bayesnet = std::make_unique<DataDrivenEstimator>(
        "bayesnet", &lab_->catalog, &lab_->stats, JoinCombineMode::kKeyBuckets);
    bayesnet->SetUniformModelKind(TableModelKind::kBayesNet);
    bayesnet->Build();
    build_s_.push_back({"bayesnet", SecondsBetween(t, Clock::now())});
    estimators_.push_back(std::move(bayesnet));

    optimizers_.push_back(std::make_unique<BaoOptimizer>(context_));
    optimizers_.push_back(std::make_unique<LeroOptimizer>(context_));
    optimizers_.push_back(std::make_unique<HyperQoOptimizer>(context_));
    for (auto& o : optimizers_) {
      t = Clock::now();
      TrainLearnedOptimizer(o.get(), train, *lab_->executor);
      train_s_.push_back({o->Name(), SecondsBetween(t, Clock::now())});
    }

    families_.push_back({"native", nullptr, nullptr, kSpanPlan, -1, {}});
    for (size_t i = 0; i < estimators_.size(); ++i) {
      families_.push_back({"ce_" + EstimatorNames()[i], estimators_[i].get(),
                           nullptr,
                           std::string(kSpanEstimate) + "." + EstimatorNames()[i],
                           static_cast<int>(i), {}});
    }
    for (auto& o : optimizers_) {
      families_.push_back({o->Name(), nullptr, o.get(),
                           std::string(kSpanChoosePlan) + "." + o->Name(), -1,
                           {}});
    }
    qerrors_.assign(estimators_.size(), {});
  }

  void RunPass(int pass, Tracer& tracer, PassLog* log) override {
    if (pass > 0) BuildPass(pass);
    const size_t bindings = pass < 0 ? kWarmupBindings : kBindingsPerPass;
    ReferenceBook reference(&lab_->catalog, &queries_);
    const InferenceStatsSnapshot infer_before = InferenceTotal();
    const FeatureCacheStats features_before = lab_->feature_cache->Stats();
    const size_t num_families = families_.size();

    for (size_t j = 0; j < bindings; ++j) {
      for (size_t k = 0; k < num_families; ++k) {
        Family& family = families_[(j + k) % num_families];
        const uint64_t qid = next_query_id_++;
        ++log->attempted;

        // --- one query, SQL text in, result out -------------------------
        bool ok = true;
        double full_estimate = -1.0;
        double exec_s = 0.0;
        uint64_t combinations = 0;
        CardinalityCacheStats card_stats;
        StatusOr<ExecutionResult> exec = Status::Internal("not executed");
        const Clock::time_point start = Clock::now();
        {
          ScopedSpan q(tracer, kSpanQuery, qid);
          StatusOr<Query> parsed = Status::Internal("not parsed");
          {
            ScopedSpan sp(tracer, kSpanParse, qid);
            parsed = ParseSql(lab_->catalog, texts_[j]);
          }
          ok = parsed.ok();
          if (ok) {
            const Query& query = *parsed;
            PhysicalPlan plan;
            if (family.optimizer != nullptr) {
              ScopedSpan sp(tracer, family.span.c_str(), qid);
              plan = family.optimizer->ChoosePlan(query);
            } else {
              CardinalityProvider cards(lab_->estimator.get());
              if (family.estimator != nullptr) {
                for (TableSet set : ConnectedSubsets(query)) {
                  const Subquery sub{&query, set};
                  double estimate = 0.0;
                  {
                    ScopedSpan sp(tracer, family.span.c_str(), qid);
                    estimate = family.estimator->EstimateSubquery(sub);
                  }
                  cards.InjectOverride(sub.Key(), estimate);
                  if (set == query.AllTables()) full_estimate = estimate;
                }
              }
              ScopedSpan sp(tracer, kSpanPlan, qid);
              PlannerResult planned = lab_->optimizer->Optimize(query, &cards);
              plan = std::move(planned.plan);
              combinations = planned.combinations_evaluated;
              card_stats = cards.Stats();
            }
            const Clock::time_point exec_start = Clock::now();
            {
              ScopedSpan sp(tracer, kSpanExecute, qid);
              exec = lab_->executor->Execute(plan);
            }
            exec_s = SecondsBetween(exec_start, Clock::now());
            ok = exec.ok();
          }
        }
        const double latency = SecondsBetween(start, Clock::now());
        // --- bookkeeping and checks, outside the timed section -----------

        const ReferenceResult* want = reference.Get(j);
        if (ok && want == nullptr) ok = false;
        if (ok) {
          const std::string diff = CompareWithReference(*exec, *want);
          if (!diff.empty()) {
            std::fprintf(stderr, "learned_planning binding %zu, %s: %s\n", j,
                         family.name.c_str(), diff.c_str());
            ok = false;
          }
        }
        if (!ok) {
          ++log->failed;
          continue;
        }
        if (pass < 0) continue;
        log->latency_s.push_back(latency);
        log->timed_s += latency;
        log->plan_cost_tu += exec->time_units;
        family.stats.latency_s.push_back(latency);
        family.stats.exec_s.push_back(exec_s);
        engine_.Add(*exec, exec_s, pass == 0);
        card_hits_ += card_stats.hits;
        card_lookups_ += card_stats.hits + card_stats.misses;
        if (pass == 0) {
          family.stats.plan_cost_tu += exec->time_units;
          combinations_ += combinations;
        }
        if (family.estimator_index >= 0) {
          qerrors_[static_cast<size_t>(family.estimator_index)].push_back(
              QError(full_estimate, static_cast<double>(want->row_count)));
        }
      }
    }
    if (pass >= 0) {
      inference_.Add(InferenceTotal() - infer_before, pass);
      const FeatureCacheStats features = lab_->feature_cache->Stats();
      feature_hits_ += features.hits - features_before.hits;
      feature_lookups_ += features.hits + features.misses - features_before.hits -
                          features_before.misses;
    }
  }

  LayerReport Layers() const override {
    LayerReport report;
    report.generate_s = generate_s_;
    report.stats_build_s = stats_build_s_;
    report.combinations = combinations_;
    report.card_cache_hits = card_hits_;
    report.card_cache_lookups = card_lookups_;
    for (size_t e = 0; e < qerrors_.size(); ++e) {
      report.qerrors.push_back({EstimatorNames()[e], qerrors_[e]});
    }
    report.build_s = build_s_;
    report.train_s = train_s_;
    inference_.AddTo(&report);
    report.feature_cache_hits = feature_hits_;
    report.feature_cache_lookups = feature_lookups_;
    for (const Family& f : families_) report.families.push_back({f.name, &f.stats});
    report.engine = &engine_;
    return report;
  }

 private:
  // Bindings of pass `pass`: template j % 16 with constants drawn from the
  // seed; the warm-up pass (-1) replays the first bindings of pass 0.
  void BuildPass(int pass) {
    Rng rng(DeriveSeed(seed_, static_cast<uint64_t>(pass)));
    queries_.clear();
    texts_.clear();
    for (int j = 0; j < kBindingsPerPass; ++j) {
      queries_.push_back(ResampleConstants(
          lab_->catalog, templates_[static_cast<size_t>(j) % templates_.size()],
          rng));
      texts_.push_back(queries_.back().ToString());
    }
  }

  // Batched-inference counters of every learned model the families call.
  InferenceStatsSnapshot InferenceTotal() const {
    InferenceStatsSnapshot total;
    for (const auto& o : optimizers_) total += o->InferenceStats();
    for (const QueryDrivenEstimator* e : query_driven_) total += e->InferenceStats();
    return total;
  }

  uint64_t seed_ = 0;
  std::unique_ptr<Lab> lab_;
  E2eContext context_;
  std::vector<Query> templates_;
  std::vector<Query> queries_;
  std::vector<std::string> texts_;
  std::vector<std::unique_ptr<CardinalityEstimatorInterface>> estimators_;
  std::vector<const QueryDrivenEstimator*> query_driven_;
  std::vector<std::unique_ptr<LearnedQueryOptimizer>> optimizers_;
  std::vector<Family> families_;
  uint64_t next_query_id_ = 0;

  double generate_s_ = 0.0;
  double stats_build_s_ = 0.0;
  std::vector<std::pair<std::string, double>> build_s_;
  std::vector<std::pair<std::string, double>> train_s_;
  std::vector<std::vector<double>> qerrors_;
  uint64_t combinations_ = 0;
  uint64_t card_hits_ = 0;
  uint64_t card_lookups_ = 0;
  InferenceTally inference_;
  uint64_t feature_hits_ = 0;
  uint64_t feature_lookups_ = 0;
  EngineStats engine_;
};

}  // namespace

std::unique_ptr<BenchWorkload> MakeLearnedPlanning() {
  return std::make_unique<LearnedPlanning>();
}

}  // namespace lqo::perfbench
