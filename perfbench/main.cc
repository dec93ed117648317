// lqo_perfbench: runs one benchmark workload from a seed and prints one
// JSON line of results as the last line of standard output.
//
//   lqo_perfbench --workload serve_cached|learned_planning|analytic_exec
//                 --seed N --seconds S --trace 0|1
//
// One closed-loop client on one thread issues queries back to back. With
// --trace 0 the line carries the end-to-end metrics; with --trace 1 the
// per-layer metrics, from spans the benchmark records around its own calls
// into the library (written to .bench_out/trace-<workload>.jsonl), next to
// the qps of traced and untraced passes of the same run.

#include <sys/resource.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/thread_pool.h"
#include "workloads.h"

namespace lqo::perfbench {
namespace {

// The pool size every run uses: one worker, so a query's latency is its
// own work and not a share of the machine.
constexpr int kThreads = 1;
// plan_cost_tu is the mean over the first kCostPasses passes, which every
// run completes: a deterministic total over a fixed set of bindings.
constexpr int kCostPasses = 8;
// Training runs this many times from scratch: once for the models that
// serve the traffic, then on a second instance of the workload between
// passes, spread evenly over the timed seconds, so that the trainings meet
// the machine in the same states as the queries do. train_s is their
// median. The serving instance is trained only once: a learned optimizer's
// ChoosePlan draws its exploration from the optimizer's own RNG, so a
// retrained one would restart that stream and change later passes' plans.
constexpr size_t kTrainRuns = 11;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      have[1] = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
      have[2] = end != value && *end == '\0' && options->seconds > 0.0;
    } else if (flag == "--trace") {
      options->trace = std::strcmp(value, "1") == 0;
      have[3] = options->trace || std::strcmp(value, "0") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name) {
  if (name == "serve_cached") return MakeServeCached();
  if (name == "learned_planning") return MakeLearnedPlanning();
  if (name == "analytic_exec") return MakeAnalyticExec();
  return nullptr;
}

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Run(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: lqo_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  std::unique_ptr<BenchWorkload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  ThreadPool::SetGlobalThreads(kThreads);

  workload->Setup(options.seed);
  const double setup_s = SecondsBetween(process_start, Clock::now());
  std::vector<double> train_runs;
  auto train = [&](BenchWorkload* w) {
    const Clock::time_point train_start = Clock::now();
    w->Train();
    train_runs.push_back(SecondsBetween(train_start, Clock::now()));
  };
  train(workload.get());
  std::unique_ptr<BenchWorkload> trainee = MakeWorkload(options.workload);
  trainee->Setup(options.seed);

  Tracer tracer;
  PassLog warmup;
  workload->RunPass(-1, tracer, &warmup);
  uint64_t attempted = warmup.attempted;
  uint64_t failed = warmup.failed;
  bool properties_ok = warmup.properties_ok;

  // Whole passes until the timed seconds are spent. A traced run alternates
  // untraced and traced passes, so both qps figures come from one process.
  std::vector<double> latency_s;
  double timed_s = 0.0;
  double plan_cost_tu = 0.0;
  double mode_s[2] = {0.0, 0.0};
  uint64_t mode_queries[2] = {0, 0};
  int passes = 0;
  for (int pass = 0; timed_s < options.seconds || pass < kCostPasses; ++pass) {
    const int traced = options.trace && pass % 2 == 1 ? 1 : 0;
    tracer.set_enabled(traced == 1);
    PassLog log;
    workload->RunPass(pass, tracer, &log);
    tracer.set_enabled(false);
    attempted += log.attempted;
    failed += log.failed;
    properties_ok = properties_ok && log.properties_ok;
    if (pass < kCostPasses) plan_cost_tu += log.plan_cost_tu / kCostPasses;
    timed_s += log.timed_s;
    mode_s[traced] += log.timed_s;
    mode_queries[traced] += log.latency_s.size();
    latency_s.insert(latency_s.end(), log.latency_s.begin(), log.latency_s.end());
    ++passes;
    if (train_runs.size() < kTrainRuns &&
        timed_s * kTrainRuns >= options.seconds * train_runs.size()) {
      train(trainee.get());
    }
  }
  while (train_runs.size() < kTrainRuns) train(trainee.get());
  const double train_s = Median(train_runs);
  if (options.trace && !tracer.ChildrenWithinParents()) {
    std::fprintf(stderr, "trace: a query's layer spans exceed its outer span\n");
    properties_ok = false;
  }
  const double qps =
      timed_s > 0.0 ? static_cast<double>(latency_s.size()) / timed_s : 0.0;
  std::fprintf(stderr,
               "%s seed %llu: %d passes, %zu timed queries in %.3f s, "
               "qps %.1f, setup %.3f s, train %.3f s, LQO_THREADS %d\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), passes,
               latency_s.size(), timed_s, qps, setup_s, train_s, kThreads);

  MetricSet metrics;
  if (options.trace) {
    workload->Layers().AddTo(tracer, &metrics);
    const double untraced_qps =
        mode_s[0] > 0.0 ? static_cast<double>(mode_queries[0]) / mode_s[0] : 0.0;
    const double traced_qps =
        mode_s[1] > 0.0 ? static_cast<double>(mode_queries[1]) / mode_s[1] : 0.0;
    metrics.Add("trace.untraced_qps", untraced_qps, "queries/s");
    metrics.Add("trace.traced_qps", traced_qps, "queries/s");
    metrics.Add("trace.overhead_pct",
                untraced_qps > 0.0 ? 100.0 * (1.0 - traced_qps / untraced_qps) : 0.0,
                "%");
    mkdir(".bench_out", 0755);
    const std::string path = ".bench_out/trace-" + options.workload + ".jsonl";
    if (!tracer.WriteJsonLines(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  } else {
    metrics.Add("qps", qps, "queries/s");
    metrics.Add("latency_p50_us", Percentile(latency_s, 0.50) * 1e6, "us");
    metrics.Add("latency_p90_us", Percentile(latency_s, 0.90) * 1e6, "us");
    metrics.Add("latency_p99_us", Percentile(latency_s, 0.99) * 1e6, "us");
    metrics.Add("plan_cost_tu", plan_cost_tu, "tu");
    metrics.Add("train_s", train_s, "s");
    metrics.Add("setup_s", setup_s, "s");
    metrics.Add("peak_rss_mb", PeakRssMib(), "MiB");
  }
  const bool correct = failed == 0 && properties_ok;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace lqo::perfbench

int main(int argc, char** argv) { return lqo::perfbench::Run(argc, argv); }
