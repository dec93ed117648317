// analytic_exec: execution-dominated traffic on imdb_lite (strong skew and
// cross-table correlation). 2-5-table join templates, cyclic edges
// included, most with an output stage (projection, global or grouped
// aggregates), are planned by native DP — once with the baseline
// estimator's cardinalities and once with a query-driven learned
// estimator's injected — and both plans are executed. Scan/filter kernels,
// join build and probe and the output sink do almost all the work.

#include <cstdio>
#include <memory>

#include "benchlib/lab.h"
#include "cardinality/query_driven.h"
#include "cardinality/training_data.h"
#include "engine/true_cardinality.h"
#include "common/rng.h"
#include "query/sql_parser.h"
#include "query/workload.h"
#include "storage/datasets.h"
#include "workloads.h"

namespace lqo::perfbench {
namespace {

constexpr double kScale = 1.0;
constexpr int kTemplates = 48;
constexpr int kBindingsPerPass = 96;
constexpr int kWarmupBindings = 4;
// One binding in kReferenceSample is checked against the reference
// evaluator; the two plans of every binding must agree with each other.
constexpr uint64_t kReferenceSample = 4;

class AnalyticExec : public BenchWorkload {
 public:
  void Setup(uint64_t seed) override {
    seed_ = seed;
    Clock::time_point t = Clock::now();
    DatasetOptions data;
    data.scale = kScale;
    Catalog catalog = MakeImdbLite(data);
    generate_s_ = SecondsBetween(t, Clock::now());
    t = Clock::now();
    lab_ = MakeLabFromCatalog(std::move(catalog));
    stats_build_s_ = SecondsBetween(t, Clock::now());
    WorkloadOptions options;
    options.num_queries = kTemplates;
    options.min_tables = 2;
    options.max_tables = 5;
    options.output_stage_prob = 0.8;
    options.seed = 7;
    templates_ = GenerateWorkload(lab_->catalog, options).queries;
    BuildPass(0);
  }

  void Train() override {
    WorkloadOptions options;
    options.num_queries = 30;
    options.min_tables = 2;
    options.max_tables = 4;
    options.seed = kTrainingSeed;
    const lqo::Workload train = GenerateWorkload(lab_->catalog, options);
    // Labelling memoizes true counts; a fresh service per training keeps
    // repeated trainings identical.
    TrueCardinalityService truth(&lab_->catalog);
    const Clock::time_point t = Clock::now();
    const CeTrainingData data =
        BuildCeTrainingData(lab_->catalog, lab_->stats, train, &truth);
    estimator_ = std::make_unique<QueryDrivenEstimator>(
        QueryDrivenEstimator::ModelType::kGbdt, &lab_->catalog, &lab_->stats);
    estimator_->Train(data);
    build_s_ = SecondsBetween(t, Clock::now());
  }

  void RunPass(int pass, Tracer& tracer, PassLog* log) override {
    if (pass > 0) BuildPass(pass);
    const size_t bindings = pass < 0 ? kWarmupBindings : kBindingsPerPass;
    const InferenceStatsSnapshot infer_before = estimator_->InferenceStats();
    ReferenceBook reference(&lab_->catalog, &queries_);

    for (size_t j = 0; j < bindings; ++j) {
      uint64_t first_digest = 0;
      const bool sampled =
          DeriveSeed(seed_ + static_cast<uint64_t>(pass + 1), j) %
              kReferenceSample == 0;
      for (size_t k = 0; k < 2; ++k) {
        const size_t f = (j + k) % 2;
        const bool injected = f == 1;
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
            CardinalityProvider cards(lab_->estimator.get());
            if (injected) {
              for (TableSet set : ConnectedSubsets(query)) {
                const Subquery sub{&query, set};
                double estimate = 0.0;
                {
                  ScopedSpan sp(tracer, estimate_span_.c_str(), qid);
                  estimate = estimator_->EstimateSubquery(sub);
                }
                cards.InjectOverride(sub.Key(), estimate);
                if (set == query.AllTables()) full_estimate = estimate;
              }
            }
            PhysicalPlan plan;
            {
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

        const ReferenceResult* want = nullptr;
        if (ok) {
          const uint64_t digest = ResultDigest(*exec);
          if (k == 0) first_digest = digest;
          if (digest != first_digest) {
            std::fprintf(stderr, "analytic_exec binding %zu: plans disagree\n", j);
            ok = false;
          }
        }
        if (ok && sampled) {
          want = reference.Get(j);
          const std::string diff =
              want == nullptr ? "refused" : CompareWithReference(*exec, *want);
          if (!diff.empty()) {
            std::fprintf(stderr, "analytic_exec binding %zu: %s\n", j, diff.c_str());
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
        families_[f].latency_s.push_back(latency);
        families_[f].exec_s.push_back(exec_s);
        engine_.Add(*exec, exec_s, pass == 0);
        card_hits_ += card_stats.hits;
        card_lookups_ += card_stats.hits + card_stats.misses;
        if (pass == 0) {
          families_[f].plan_cost_tu += exec->time_units;
          combinations_ += combinations;
        }
        if (injected && want != nullptr) {
          const double actual = std::max(1.0, static_cast<double>(want->row_count));
          const double estimate = std::max(1.0, full_estimate);
          qerrors_.push_back(std::max(actual, estimate) / std::min(actual, estimate));
        }
      }
    }
    if (pass >= 0) inference_.Add(estimator_->InferenceStats() - infer_before, pass);
  }

  LayerReport Layers() const override {
    LayerReport report;
    report.generate_s = generate_s_;
    report.stats_build_s = stats_build_s_;
    report.combinations = combinations_;
    report.card_cache_hits = card_hits_;
    report.card_cache_lookups = card_lookups_;
    report.qerrors = {{"gbdt_qd", qerrors_}};
    report.build_s = {{"gbdt_qd", build_s_}};
    inference_.AddTo(&report);
    report.families = {{"native", &families_[0]}, {"ce_gbdt_qd", &families_[1]}};
    report.engine = &engine_;
    return report;
  }

 private:
  // Bindings of pass `pass`: template j % 24 with constants drawn from the
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

  uint64_t seed_ = 0;
  std::unique_ptr<Lab> lab_;
  std::vector<Query> templates_;
  std::vector<Query> queries_;
  std::vector<std::string> texts_;
  std::unique_ptr<QueryDrivenEstimator> estimator_;
  const std::string estimate_span_ = std::string(kSpanEstimate) + ".gbdt_qd";
  uint64_t next_query_id_ = 0;

  double generate_s_ = 0.0;
  double stats_build_s_ = 0.0;
  double build_s_ = 0.0;
  std::vector<double> qerrors_;
  uint64_t combinations_ = 0;
  uint64_t card_hits_ = 0;
  uint64_t card_lookups_ = 0;
  InferenceTally inference_;
  FamilyStats families_[2];
  EngineStats engine_;
};

}  // namespace

std::unique_ptr<BenchWorkload> MakeAnalyticExec() {
  return std::make_unique<AnalyticExec>();
}

}  // namespace lqo::perfbench
