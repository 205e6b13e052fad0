// Golden test for the trace export: a traced GPU run must emit Chrome
// trace_event JSON whose driver-phase spans cover the run and whose
// per-kernel device events carry modeled times that sum to the
// RunStats / PerfModel totals (within 1%) — the §5.4 accounting invariant
// that makes the modeled figures debuggable.

#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/api.h"
#include "core/result.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simt/device.h"

namespace proclus::core {
namespace {

using proclus::json::JsonValue;

data::Dataset TestData() {
  data::GeneratorConfig config;
  config.n = 1500;
  config.d = 12;
  config.num_clusters = 5;
  config.subspace_dim = 5;
  config.stddev = 2.0;
  config.seed = 91;
  data::Dataset ds = data::GenerateSubspaceDataOrDie(config);
  data::MinMaxNormalize(&ds.points);
  return ds;
}

ProclusParams TestParams() {
  ProclusParams p;
  p.k = 5;
  p.l = 4;
  p.a = 20.0;
  p.b = 4.0;
  return p;
}

TEST(TraceExportTest, GpuRunEmitsDriverSpansAndKernelEventsThatSum) {
  const data::Dataset ds = TestData();
  obs::TraceRecorder trace;
  simt::Device device;
  ClusterOptions options;
  options.backend = ComputeBackend::kGpu;
  options.strategy = Strategy::kFast;
  options.device = &device;
  options.trace = &trace;
  ProclusResult result;
  ASSERT_TRUE(Cluster(ds.points, TestParams(), options, &result).ok());
  ASSERT_GT(result.stats.modeled_gpu_seconds, 0.0);
  // The run must detach the recorder from the caller-owned device.
  EXPECT_EQ(device.trace(), nullptr);

  std::ostringstream out;
  trace.WriteJson(out);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(proclus::json::Parse(out.str(), &root, &error)) << error;
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::set<std::string> driver_spans;
  std::set<std::string> backend_spans;
  double kernel_modeled_ms = 0.0;
  int kernel_events = 0;
  for (const JsonValue& event : events->array_value) {
    const JsonValue* cat = event.Find("cat");
    const JsonValue* name = event.Find("name");
    if (cat == nullptr || name == nullptr) continue;
    if (cat->string_value == "driver") {
      driver_spans.insert(name->string_value);
    } else if (cat->string_value == "backend") {
      backend_spans.insert(name->string_value);
    } else if (cat->string_value == "kernel") {
      ++kernel_events;
      const JsonValue* args = event.Find("args");
      ASSERT_NE(args, nullptr) << name->string_value;
      const JsonValue* modeled = args->Find("modeled_ms");
      ASSERT_NE(modeled, nullptr) << name->string_value;
      kernel_modeled_ms += modeled->number_value;
      // Occupancy args ride along on every kernel event.
      EXPECT_NE(args->Find("achieved_occupancy"), nullptr);
      EXPECT_NE(args->Find("bytes"), nullptr);
    }
  }

  // All four driver phases appear as spans.
  EXPECT_TRUE(driver_spans.count("init"));
  EXPECT_TRUE(driver_spans.count("greedy"));
  EXPECT_TRUE(driver_spans.count("iterative"));
  EXPECT_TRUE(driver_spans.count("refinement"));
  // The backend's major steps appear too.
  EXPECT_TRUE(backend_spans.count("greedy_select"));
  EXPECT_TRUE(backend_spans.count("assign_points"));
  EXPECT_TRUE(backend_spans.count("evaluate"));

  // Per-kernel modeled times must account for the PerfModel total: the
  // RunStats figure and the device's own accounting agree within 1%.
  ASSERT_GT(kernel_events, 0);
  const double total_ms = result.stats.modeled_gpu_seconds * 1e3;
  EXPECT_NEAR(kernel_modeled_ms, total_ms, 0.01 * total_ms);
  const double device_ms = device.perf_model().modeled_seconds() * 1e3;
  EXPECT_NEAR(kernel_modeled_ms, device_ms, 0.01 * device_ms);
}

TEST(TraceExportTest, DeviceTrackEventsDoNotOverlap) {
  // The synthetic device track orders kernel events by a monotone modeled
  // cursor; a viewer would render overlapping events as garbage.
  const data::Dataset ds = TestData();
  obs::TraceRecorder trace;
  ClusterOptions options;
  options.backend = ComputeBackend::kGpu;
  options.trace = &trace;
  ProclusResult result;
  ASSERT_TRUE(Cluster(ds.points, TestParams(), options, &result).ok());

  double cursor = 0.0;
  int device_events = 0;
  for (const obs::TraceEvent& event : trace.Snapshot()) {
    if (event.category != "kernel" && event.category != "transfer") continue;
    ++device_events;
    EXPECT_GE(event.ts_us + 1e-9, cursor)
        << event.name << " overlaps the previous device event";
    cursor = event.ts_us + event.dur_us;
  }
  EXPECT_GT(device_events, 0);
}

TEST(TraceExportTest, StatsPublishIntoMetricsRegistry) {
  const data::Dataset ds = TestData();
  simt::Device device;
  ClusterOptions options;
  options.backend = ComputeBackend::kGpu;
  options.strategy = Strategy::kFast;
  options.device = &device;
  ProclusResult result;
  ASSERT_TRUE(Cluster(ds.points, TestParams(), options, &result).ok());

  obs::MetricsRegistry registry;
  PublishRunStats(result.stats, &registry);
  device.perf_model().PublishMetrics(&registry);

  EXPECT_EQ(registry.counter("proclus.runs")->value(), 1);
  EXPECT_EQ(registry.counter("proclus.iterations")->value(),
            result.stats.iterations);
  EXPECT_DOUBLE_EQ(registry.gauge("proclus.modeled_gpu_seconds")->value(),
                   result.stats.modeled_gpu_seconds);
  EXPECT_DOUBLE_EQ(registry.gauge("simt.modeled_seconds")->value(),
                   device.perf_model().modeled_seconds());
  EXPECT_EQ(registry.gauge("simt.total_launches")->value(),
            static_cast<double>(device.perf_model().total_launches()));
  // Histogram of phase seconds observed exactly one run.
  EXPECT_EQ(
      registry.histogram("proclus.phase_seconds.total")->snapshot().count, 1);
}

TEST(TraceExportTest, DisabledRecorderKeepsRunSilent) {
  const data::Dataset ds = TestData();
  obs::TraceRecorder trace;
  trace.set_enabled(false);
  ClusterOptions options;
  options.backend = ComputeBackend::kGpu;
  options.trace = &trace;
  ProclusResult result;
  ASSERT_TRUE(Cluster(ds.points, TestParams(), options, &result).ok());
  EXPECT_EQ(trace.event_count(), 0);
}

}  // namespace
}  // namespace proclus::core
