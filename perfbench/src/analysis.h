// Pure helpers behind the report: percentiles with the tail-sample guard,
// span self time, and the metric table with name validation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tracer.h"

namespace perfbench {

/// Nearest-rank percentile (q in (0,1]) of an unsorted sample set.
/// Throws std::invalid_argument on an empty set.
double percentile(std::vector<double> samples, double q);

/// How many of `n` samples lie above the nearest-rank q-percentile's rank.
std::size_t samples_beyond(std::size_t n, double q);

/// A tail percentile resting on fewer than this many samples beyond it is
/// refused: it would be one or two outliers, not a tail.
constexpr std::size_t min_tail_samples = 10;

/// percentile(), refusing (std::runtime_error naming `metric`) when fewer
/// than min_tail_samples samples lie beyond q.
double tail_percentile(const std::string& metric,
                       const std::vector<double>& samples, double q);

/// Nanoseconds of [start, end) covered by the union of `intervals`.
std::int64_t covered_ns(std::int64_t start, std::int64_t end,
                        std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

/// Self time of every span: its duration minus the part of it that its
/// children cover. Keyed by span id.
std::map<std::uint64_t, std::int64_t> self_times(const std::vector<Span>& spans);

/// Metric names are [A-Za-z0-9_.-]+.
bool valid_metric_name(const std::string& name);

/// Ordered name -> (value, unit) table; rejects invalid or repeated names.
class MetricTable {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  rows() const {
    return rows_;
  }
  /// {"name": {"value": v, "unit": "u"}, ...} with full precision.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows_;
};

}  // namespace perfbench
