#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lqo::perfbench {
namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Tracer::Begin(const char* name, uint64_t query_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.query_id = query_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNanos();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns = NowNanos();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::map<std::string, std::vector<double>> Tracer::SelfMicros() const {
  // Children of one parent run one after another, so the part of the parent
  // they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::vector<double>> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-3);
  }
  return self;
}

bool Tracer::ChildrenWithinParents() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) return false;
    child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (child_ns[i] > spans_[i].end_ns - spans_[i].start_ns) return false;
  }
  return true;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"query\": %llu, "
                 "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i, s.name, static_cast<unsigned long long>(s.query_id),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
    out += (i == 0 ? "\"" : ", \"") + entries_[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  return out + "}";
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

void EngineStats::Add(const ExecutionResult& result, double exec_seconds,
                      bool count_totals) {
  exec_s.push_back(exec_seconds);
  double build = 0.0, probe = 0.0, concat = 0.0;
  for (const NodeProfile& p : result.node_profiles) {
    build += p.build_seconds;
    probe += p.probe_seconds;
    concat += p.concat_seconds;
    if (p.kind != PlanNode::Kind::kOutput) rows += static_cast<double>(p.output_rows);
    if (count_totals) {
      materialized_values += p.materialized_values;
      probe_collisions += p.probe_collisions;
    }
  }
  build_s.push_back(build);
  probe_s.push_back(probe);
  concat_s.push_back(concat);
}

void EngineStats::AddTo(MetricSet* metrics) const {
  double total_exec = 0.0;
  for (double s : exec_s) total_exec += s;
  metrics->Add("engine.exec_us", Median(exec_s) * 1e6, "us");
  metrics->Add("engine.rows_per_s", total_exec > 0.0 ? rows / total_exec : 0.0,
               "rows/s");
  metrics->Add("engine.join_build_s", Median(build_s), "s");
  metrics->Add("engine.join_probe_s", Median(probe_s), "s");
  metrics->Add("engine.join_concat_s", Median(concat_s), "s");
  metrics->Add("engine.materialized_values",
               static_cast<double>(materialized_values), "count");
  metrics->Add("engine.probe_collisions", static_cast<double>(probe_collisions),
               "count");
}

}  // namespace lqo::perfbench
