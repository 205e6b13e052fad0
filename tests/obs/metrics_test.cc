#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.h"

namespace proclus::obs {
namespace {

using proclus::json::JsonValue;

TEST(CounterTest, IncrementsAtomically) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Add(0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
}

TEST(HistogramTest, TracksCountSumMinMax) {
  Histogram histogram;
  histogram.Observe(0.001);
  histogram.Observe(0.1);
  histogram.Observe(10.0);
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_DOUBLE_EQ(snap.sum, 10.101);
  EXPECT_DOUBLE_EQ(snap.min, 0.001);
  EXPECT_DOUBLE_EQ(snap.max, 10.0);
}

TEST(HistogramTest, BucketsAreDecades) {
  Histogram histogram;
  histogram.Observe(0.5e-3);  // <= 1e-3
  histogram.Observe(0.5);     // <= 1e0
  histogram.Observe(1e9);     // overflow
  const Histogram::Snapshot snap = histogram.snapshot();
  int64_t total = 0;
  for (const int64_t count : snap.buckets) total += count;
  EXPECT_EQ(total, 3);
  EXPECT_EQ(snap.buckets.back(), 1);  // the 1e9 observation overflowed
  EXPECT_TRUE(std::isinf(Histogram::BucketBound(Histogram::kNumBuckets)));
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(0), 1e-7);
}

TEST(MetricsRegistryTest, HandlesAreStableAndNamed) {
  MetricsRegistry registry;
  Counter* a = registry.counter("proclus.runs");
  Counter* b = registry.counter("proclus.runs");
  EXPECT_EQ(a, b);  // same name -> same handle
  a->Increment(3);
  EXPECT_EQ(registry.counter("proclus.runs")->value(), 3);
  EXPECT_NE(static_cast<void*>(registry.gauge("proclus.runs")),
            static_cast<void*>(a));  // kinds are separate namespaces
}

TEST(MetricsRegistryTest, TextSnapshotListsMetricsSorted) {
  MetricsRegistry registry;
  registry.counter("b.count")->Increment(2);
  registry.counter("a.count")->Increment(1);
  registry.gauge("z.gauge")->Set(1.5);
  const std::string text = registry.TextSnapshot();
  const size_t pos_a = text.find("a.count");
  const size_t pos_b = text.find("b.count");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
  EXPECT_NE(text.find("z.gauge"), std::string::npos);
}

TEST(MetricsRegistryTest, WriteJsonEmitsValidGroupedObject) {
  MetricsRegistry registry;
  registry.counter("service.submitted")->Increment(7);
  registry.gauge("simt.modeled_seconds")->Set(0.25);
  registry.histogram("proclus.phase_seconds.total")->Observe(0.5);

  std::ostringstream out;
  registry.WriteJson(out);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(proclus::json::Parse(out.str(), &root, &error)) << error;

  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* submitted = counters->Find("service.submitted");
  ASSERT_NE(submitted, nullptr);
  EXPECT_DOUBLE_EQ(submitted->number_value, 7.0);

  const JsonValue* gauges = root.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* modeled = gauges->Find("simt.modeled_seconds");
  ASSERT_NE(modeled, nullptr);
  EXPECT_DOUBLE_EQ(modeled->number_value, 0.25);

  const JsonValue* histograms = root.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* phase = histograms->Find("proclus.phase_seconds.total");
  ASSERT_NE(phase, nullptr);
  const JsonValue* count = phase->Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->number_value, 1.0);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndUpdates) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.counter("shared.count")->Increment();
        registry.histogram("shared.hist")->Observe(0.01);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("shared.count")->value(), kThreads * 1000);
  EXPECT_EQ(registry.histogram("shared.hist")->snapshot().count,
            kThreads * 1000);
}

}  // namespace
}  // namespace proclus::obs
