// Tests of the benchmark's own arithmetic.  Build and run with
// `python3 perfbench/run.py --unit-tests`.
#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, MedianOfOddAndEvenSamples) {
  Percentile odd = ComputePercentile({5, 1, 3}, 0.5);
  EXPECT_DOUBLE_EQ(odd.value, 3);
  EXPECT_EQ(odd.samples, 3u);
  EXPECT_EQ(odd.beyond, 1u);

  Percentile even = ComputePercentile({4, 1, 3, 2}, 0.5);
  EXPECT_DOUBLE_EQ(even.value, 2.5);
  EXPECT_EQ(even.samples, 4u);
  EXPECT_EQ(even.beyond, 2u);
}

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  // Position 0.99 * 99 = 98.01 in 1..100: between 99 and 100.
  Percentile p = ComputePercentile(OneTo(100), 0.99);
  EXPECT_NEAR(p.value, 99.01, 1e-9);
  EXPECT_EQ(p.samples, 100u);
  EXPECT_EQ(p.beyond, 1u);
}

TEST(PercentileTest, ResolvedOnlyWithTenSamplesBeyond) {
  // 1..1000: p99 sits at position 989.01, between 990 and 991, so the ten
  // samples 991..1000 lie beyond it.
  Percentile enough = ComputePercentile(OneTo(1000), 0.99);
  EXPECT_NEAR(enough.value, 990.01, 1e-9);
  EXPECT_EQ(enough.beyond, 10u);
  EXPECT_TRUE(enough.resolved);

  // 1..999: position 988.02 -> samples 990..999, still ten.
  EXPECT_TRUE(ComputePercentile(OneTo(999), 0.99).resolved);

  // 1..900: position 890.01 -> only 892..900 beyond it, nine samples.
  Percentile short_tail = ComputePercentile(OneTo(900), 0.99);
  EXPECT_EQ(short_tail.beyond, 9u);
  EXPECT_FALSE(short_tail.resolved);
  // The value is still reported.
  EXPECT_NEAR(short_tail.value, 891.01, 1e-9);
}

TEST(PercentileTest, TiesAboveTheValueAreNotBeyondIt) {
  // Twenty equal maxima: p99 equals them, so nothing lies beyond.
  std::vector<double> v(980, 1.0);
  v.insert(v.end(), 20, 7.0);
  Percentile p = ComputePercentile(v, 0.99);
  EXPECT_DOUBLE_EQ(p.value, 7.0);
  EXPECT_EQ(p.beyond, 0u);
  EXPECT_FALSE(p.resolved);
}

TEST(PercentileTest, EmptySampleIsUnresolvedZero) {
  Percentile p = ComputePercentile({}, 0.5);
  EXPECT_EQ(p.samples, 0u);
  EXPECT_DOUBLE_EQ(p.value, 0);
  EXPECT_FALSE(p.resolved);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(SliceWindowTest, ReportsMediansOverSlices) {
  // Four 1-second slices with 100, 100, 40 and 100 completions; the
  // third is also slow.  Its rate and latency move no median.
  const int64_t s = 1'000'000'000;
  std::vector<std::pair<int64_t, double>> done;
  const int counts[4] = {100, 100, 40, 100};
  for (int slice = 0; slice < 4; ++slice) {
    for (int i = 0; i < counts[slice]; ++i) {
      const double ms = slice == 2 ? 50.0 : 1.0 + i / 100.0;
      done.emplace_back(slice * s + i * (s / counts[slice]), ms);
    }
  }
  done.emplace_back(5 * s, 1.0);  // outside the window: ignored
  SlicedWindow w = SliceWindow(done, 0, 4 * s, 4);
  EXPECT_EQ(w.samples, 340u);
  EXPECT_DOUBLE_EQ(w.throughput, 100.0);
  EXPECT_NEAR(w.p50_ms, 1.495, 1e-9);
  EXPECT_NEAR(w.p99_ms, 1.9801, 1e-9);
  // The slow slice's forty equal latencies leave nothing beyond its p99.
  EXPECT_EQ(w.min_p99_beyond, 0u);
  EXPECT_FALSE(w.p99_resolved);
}

TEST(SliceWindowTest, ResolvedWhenEverySliceHasTenBeyond) {
  const int64_t s = 1'000'000'000;
  std::vector<std::pair<int64_t, double>> done;
  for (int slice = 0; slice < 2; ++slice) {
    for (int i = 0; i < 1000; ++i) {
      done.emplace_back(slice * s + i * (s / 1000), 1.0 + i);
    }
  }
  SlicedWindow w = SliceWindow(done, 0, 2 * s, 2);
  EXPECT_EQ(w.min_p99_beyond, 10u);
  EXPECT_TRUE(w.p99_resolved);
  EXPECT_DOUBLE_EQ(w.throughput, 1000.0);
}

TEST(SummarizeGroupsTest, OneHeavyGroupMovesNoMedian) {
  // Three inputs of ~100 ms and one of ~300 ms, three ops each.
  SlicedWindow w = SummarizeGroups(
      {{100, 101, 102}, {99, 100, 104}, {300, 310, 305}, {101, 98, 100}});
  EXPECT_EQ(w.samples, 12u);
  // Per-group medians 101, 100, 305, 100 -> 100.5.
  EXPECT_DOUBLE_EQ(w.p50_ms, 100.5);
  // Per-group p99s 101.98, 103.92, 309.9, 100.98 -> (101.98 + 103.92) / 2.
  EXPECT_NEAR(w.p99_ms, 102.95, 1e-9);
  EXPECT_FALSE(w.p99_resolved);
  EXPECT_DOUBLE_EQ(w.throughput, 0);
}

TEST(SummarizeGroupsTest, EmptyGroupsAreSkipped) {
  // A short window that reaches only two of four inputs.
  SlicedWindow w = SummarizeGroups({{100, 102}, {}, {200, 204}, {}});
  EXPECT_EQ(w.samples, 4u);
  EXPECT_DOUBLE_EQ(w.p50_ms, 151.5);  // medians 101 and 202
  EXPECT_FALSE(w.p99_resolved);
}

TEST(OpTallyTest, ErrorRateCountsFailuresRefusalsAndWrongAnswers) {
  OpTally t;
  EXPECT_DOUBLE_EQ(t.ErrorRate(), 0);  // nothing attempted
  t.attempted = 200;
  EXPECT_DOUBLE_EQ(t.ErrorRate(), 0);
  t.failed = 1;
  t.refused = 2;
  t.wrong = 3;
  EXPECT_EQ(t.errors(), 6u);
  EXPECT_DOUBLE_EQ(t.ErrorRate(), 6.0 / 200.0);

  // A wrong answer found after the run (by the reference check) adds to
  // the errors without adding an attempt.
  OpTally late;
  late.wrong = 4;
  t.Add(late);
  EXPECT_EQ(t.attempted, 200u);
  EXPECT_DOUBLE_EQ(t.ErrorRate(), 10.0 / 200.0);
}

TEST(SelfTimeTest, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(SelfTimeNs(100, 250, {}), 150);
}

TEST(SelfTimeTest, DisjointChildrenAreSubtracted) {
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 20}, {50, 70}}), 70);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // [10, 40) and [30, 60) overlap in [30, 40): 50 ns covered, not 60.
  EXPECT_EQ(SelfTimeNs(0, 100, {{30, 60}, {10, 40}}), 50);
  // A child nested in another child.
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 90}, {20, 30}}), 20);
}

TEST(SelfTimeTest, ChildrenOverlappingTheParentAreClipped) {
  // A child that starts before and one that ends after the parent: only
  // their parts inside [100, 200) are covered.
  EXPECT_EQ(SelfTimeNs(100, 200, {{50, 120}, {180, 260}}), 60);
  // A child covering the parent entirely leaves no self time.
  EXPECT_EQ(SelfTimeNs(100, 200, {{0, 300}}), 0);
  // Children wholly outside the parent change nothing.
  EXPECT_EQ(SelfTimeNs(100, 200, {{0, 50}, {250, 300}}), 100);
}

TEST(SpanLogTest, SelfTimeByNameUsesParentLinks) {
  SpanLog log;
  const int64_t root = log.Begin("op", -1, "7");
  const int64_t child = log.Begin("parser.parse", root, "7");
  log.End(child);
  log.End(root);
  const std::vector<Span> spans = log.spans();
  const int64_t op_ns = spans[0].end_ns - spans[0].start_ns;
  const int64_t parse_ns = spans[1].end_ns - spans[1].start_ns;
  auto self = log.SelfTimeByName();
  ASSERT_EQ(self.size(), 2u);
  EXPECT_EQ(self["parser.parse"], parse_ns);
  EXPECT_EQ(self["op"], op_ns - parse_ns);
}

TEST(SpanLogTest, LinkByOpAdoptsSpansRecordedElsewhere) {
  SpanLog log;
  const int64_t request = log.Begin("client.request", -1, "s0-1");
  const int64_t write = log.Begin("storage.write_atomic", -1, "s0-1");
  const int64_t other = log.Begin("storage.read", -1, "s9-9");
  log.End(other);
  log.End(write);
  log.End(request);
  log.LinkByOp({"client.request"});
  const std::vector<Span> spans = log.spans();
  EXPECT_EQ(spans[static_cast<size_t>(write)].parent, request);
  EXPECT_EQ(spans[static_cast<size_t>(other)].parent, -1);
  EXPECT_EQ(spans[static_cast<size_t>(request)].parent, -1);
  // The write now counts against the request's time.
  auto self = log.SelfTimeByName();
  const Span& r = spans[static_cast<size_t>(request)];
  const Span& w = spans[static_cast<size_t>(write)];
  EXPECT_EQ(self["client.request"],
            (r.end_ns - r.start_ns) - (w.end_ns - w.start_ns));
}

}  // namespace
}  // namespace perfbench
