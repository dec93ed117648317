#ifndef LQO_COMMON_STATS_UTIL_H_
#define LQO_COMMON_STATS_UTIL_H_

#include <chrono>
#include <vector>

namespace lqo {

/// Seconds elapsed on the monotonic clock since `start` — a duration for
/// timing a phase, never a wall-clock reading.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

/// Population standard deviation; 0 for fewer than two values.
double StdDev(const std::vector<double>& values);

/// q-th quantile (q in [0,1]) with linear interpolation, copying and sorting
/// the input. 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// Geometric mean; requires strictly positive values. 0 for an empty input.
double GeometricMean(const std::vector<double>& values);

/// Pearson correlation of two equal-length vectors; 0 when undefined.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// Spearman rank correlation; 0 when undefined. Ties get average ranks.
double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y);

}  // namespace lqo

#endif  // LQO_COMMON_STATS_UTIL_H_
