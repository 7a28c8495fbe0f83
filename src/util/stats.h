// Small numeric helpers shared by the analysis modules.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <vector>

namespace wafp::util {

/// Arithmetic mean; 0 for an empty span.
[[nodiscard]] double mean(std::span<const double> values);

/// Population standard deviation; 0 for fewer than two values.
[[nodiscard]] double stddev(std::span<const double> values);

/// Minimum / maximum; both 0 for an empty span.
[[nodiscard]] double min_value(std::span<const double> values);
[[nodiscard]] double max_value(std::span<const double> values);

/// Count occurrences of each value.
template <typename T>
[[nodiscard]] std::map<T, std::size_t> value_counts(std::span<const T> values) {
  std::map<T, std::size_t> counts;
  for (const T& v : values) ++counts[v];
  return counts;
}

/// ln(n!), the same bits on every host: a table of running portable_log
/// sums for n < 64 and a Stirling series above. The expected-MI sum
/// (analysis/ami.cc) tabulates it once per call.
[[nodiscard]] double ln_factorial(std::size_t n);

}  // namespace wafp::util
