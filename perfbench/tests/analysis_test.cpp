// Unit tests for the benchmark's own helpers: percentiles and the tail guard,
// span self time, metric-name validation.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 0.5), 50);
  EXPECT_EQ(percentile(one_to(100), 0.9), 90);
  EXPECT_EQ(percentile(one_to(101), 0.5), 51);
  EXPECT_EQ(percentile({7.0}, 0.9), 7.0);
  EXPECT_EQ(percentile(one_to(10), 1.0), 10);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 0.0), std::invalid_argument);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);
  EXPECT_EQ(samples_beyond(120, 0.9), 12u);
  EXPECT_EQ(samples_beyond(0, 0.9), 0u);
}

TEST(Percentile, TailGuardRefusesThinTails) {
  EXPECT_EQ(tail_percentile("x_p90", one_to(100), 0.9), 90);
  EXPECT_THROW(tail_percentile("x_p90", one_to(99), 0.9), std::runtime_error);
  EXPECT_THROW(tail_percentile("x_p90", {}, 0.9), std::runtime_error);
}

TEST(SelfTime, CoveredUnionClipsAndMerges) {
  // Overlapping children, one sticking out of the parent, one outside it.
  EXPECT_EQ(covered_ns(0, 100, {{10, 30}, {20, 40}, {90, 150}, {200, 300}}), 40);
  EXPECT_EQ(covered_ns(0, 100, {}), 0);
  EXPECT_EQ(covered_ns(0, 100, {{-50, 500}}), 100);
  EXPECT_EQ(covered_ns(0, 100, {{10, 20}, {12, 18}}), 10);
}

TEST(SelfTime, ParentMinusChildren) {
  std::vector<Span> spans = {
      {"op.add", 0, 100, 1, 0, 1},
      {"net.admin.get", 10, 40, 2, 1, 1},
      {"cloud.get", 20, 30, 3, 2, 1},
      {"net.admin.put", 50, 60, 4, 1, 1},
  };
  auto self = self_times(spans);
  EXPECT_EQ(self.at(1), 60);  // 100 - (30 + 10)
  EXPECT_EQ(self.at(2), 20);  // 30 - 10
  EXPECT_EQ(self.at(3), 10);
  EXPECT_EQ(self.at(4), 10);
}

TEST(MetricNames, Validation) {
  EXPECT_TRUE(valid_metric_name("add_ms_p50"));
  EXPECT_TRUE(valid_metric_name("cloud.busy_ms_per_op"));
  EXPECT_TRUE(valid_metric_name("trace.overhead-pct"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("add ms"));
  EXPECT_FALSE(valid_metric_name("p50/ms"));
  EXPECT_FALSE(valid_metric_name("\"quoted\""));
}

TEST(MetricTable, RejectsBadRowsAndPrintsJson) {
  MetricTable m;
  m.add("setup_s", 1.25, "s");
  EXPECT_THROW(m.add("setup_s", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("bad name", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("nan", std::nan(""), "s"), std::invalid_argument);
  m.add("ops_s", 3.0, "1/s");
  EXPECT_EQ(m.to_json(),
            "{\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, "
            "\"ops_s\": {\"value\": 3, \"unit\": \"1/s\"}}");
}

}  // namespace
}  // namespace perfbench
