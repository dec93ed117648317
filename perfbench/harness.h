#ifndef LQO_PERFBENCH_HARNESS_H_
#define LQO_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the workloads: the clock, the span
// recorder of the traced mode, per-query bookkeeping and the metric list a
// run prints. Spans are taken around the benchmark's own calls into the
// library's public functions; nothing inside src/ is instrumented.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/executor.h"

namespace lqo::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed call: name, interval, the enclosing span and the query it
/// served.
struct Span {
  const char* name = "";
  uint64_t query_id = 0;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder. Disabled, Begin/End cost one branch and record
/// nothing; enabled, spans nest by call order (a serial client has one open
/// span chain at a time).
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int Begin(const char* name, uint64_t query_id);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (span minus the part its children cover) of every call,
  /// in microseconds, grouped by span name.
  std::map<std::string, std::vector<double>> SelfMicros() const;

  /// True when every query's child spans fit inside its outer span.
  bool ChildrenWithinParents() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: `ScopedSpan s(tracer, "engine.execute", qid);`.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t query_id)
      : tracer_(tracer), span_(tracer.Begin(name, query_id)) {}
  ~ScopedSpan() { tracer_.End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

/// Ordered list of named metrics with units, printed as the run's JSON.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": u}, ...}` with every digit of v.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Nearest-rank quantile of `values` (0 when empty).
double Percentile(std::vector<double> values, double q);

/// Per-family accounting of a workload: how many queries a planner family
/// served, their wall latencies and the time units of the plans it chose.
struct FamilyStats {
  std::vector<double> latency_s;
  std::vector<double> exec_s;
  double plan_cost_tu = 0.0;  // first measured pass only (deterministic)
};

/// Engine-side counters folded from ExecutionResult::node_profiles.
struct EngineStats {
  std::vector<double> exec_s;          // per Execute call
  std::vector<double> build_s;         // per query, summed over join nodes
  std::vector<double> probe_s;
  std::vector<double> concat_s;
  double rows = 0.0;                   // scan + join output rows
  uint64_t materialized_values = 0;    // first measured pass only
  uint64_t probe_collisions = 0;       // first measured pass only

  void Add(const ExecutionResult& result, double exec_seconds,
           bool count_totals);
  void AddTo(MetricSet* metrics) const;
};

}  // namespace lqo::perfbench

#endif  // LQO_PERFBENCH_HARNESS_H_
