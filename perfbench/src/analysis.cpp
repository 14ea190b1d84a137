#include "analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t n, double q) {
  if (q <= 0.0 || q > 1.0) throw std::invalid_argument("percentile: q out of (0,1]");
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::max<std::size_t>(rank, 1);  // 1-based
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile: no samples");
  const std::size_t idx = rank_of(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

double tail_percentile(const std::string& metric,
                       const std::vector<double>& samples, double q) {
  const std::size_t beyond = samples_beyond(samples.size(), q);
  if (beyond < min_tail_samples) {
    throw std::runtime_error(metric + ": only " + std::to_string(beyond) +
                             " samples beyond the percentile (" +
                             std::to_string(samples.size()) + " total, need " +
                             std::to_string(min_tail_samples) + ")");
  }
  return percentile(samples, q);
}

std::int64_t covered_ns(std::int64_t start, std::int64_t end,
                        std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = start;  // everything before cursor is accounted for
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e <= s) continue;
    covered += e - s;
    cursor = e;
  }
  return covered;
}

std::map<std::uint64_t, std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::uint64_t, std::int64_t> out;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    const std::int64_t kids =
        it == children.end() ? 0 : covered_ns(s.start_ns, s.end_ns, it->second);
    out[s.id] = (s.end_ns - s.start_ns) - kids;
  }
  return out;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

void MetricTable::add(const std::string& name, double value,
                      const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: '" + name + "'");
  }
  for (const auto& row : rows_) {
    if (row.first == name) throw std::invalid_argument("duplicate metric: " + name);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric " + name + " is not finite");
  }
  rows_.push_back({name, {value, unit}});
}

std::string MetricTable::to_json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const auto& [name, vu] = rows_[i];
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
