// simtcheck coverage (src/simt/sanitizer.h): every seeded defect class must
// fire with correct kernel/block/thread attribution, the fixed production
// kernels must run clean, and the findings must surface through RunStats,
// the metrics taxonomy, and the Cluster()/RunMultiParam() status.

#include "simt/sanitizer.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.h"
#include "core/multi_param.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "obs/metrics.h"
#include "simt/device.h"

namespace proclus::simt {
namespace {

DeviceOptions Checked() {
  DeviceOptions options;
  options.sanitize = true;
  return options;
}

data::Dataset TestData(int64_t n = 600) {
  data::GeneratorConfig config;
  config.n = n;
  config.d = 8;
  config.num_clusters = 4;
  config.subspace_dim = 4;
  config.stddev = 2.0;
  config.seed = 55;
  data::Dataset ds = data::GenerateSubspaceDataOrDie(config);
  data::MinMaxNormalize(&ds.points);
  return ds;
}

core::ProclusParams TestParams() {
  core::ProclusParams p;
  p.k = 4;
  p.l = 3;
  p.a = 20.0;
  p.b = 4.0;
  return p;
}

// --- seeded defects ----------------------------------------------------------

TEST(SimtcheckSeededTest, DroppedAtomicAddIsACrossBlockRace) {
  Device device(DeviceProperties::Gtx1660Ti(), Checked());
  int32_t* counter = device.Alloc<int32_t>(1);
  device.Launch("seeded_missing_atomic", {4, 1}, {}, [&](BlockContext& b) {
    b.ForEachThread([&](int) {
      // Should be b.AtomicAdd(counter, 1): blocks race on global memory.
      b.Store(counter, b.Load(counter) + 1);
    });
  });
  const Sanitizer* sanitizer = device.sanitizer();
  ASSERT_NE(sanitizer, nullptr);
  ASSERT_GE(sanitizer->findings(), 1);
  const Violation& v = sanitizer->violations().front();
  EXPECT_EQ(v.kind, ViolationKind::kCrossBlockRace);
  EXPECT_EQ(v.kernel, "seeded_missing_atomic");
  // The second block visited trips over the first; checked mode visits
  // blocks in a seeded permutation, so which two is not fixed.
  EXPECT_NE(v.block, v.other_block);
  EXPECT_GE(v.block, 0);
  EXPECT_LT(v.block, 4);
  EXPECT_GE(v.other_block, 0);
  EXPECT_LT(v.other_block, 4);
  EXPECT_EQ(v.tid, 0);
  EXPECT_FALSE(v.shared);
  EXPECT_NE(v.message.find("cross_block_race"), std::string::npos);
  EXPECT_NE(v.message.find("seeded_missing_atomic"), std::string::npos);
}

TEST(SimtcheckSeededTest, AtomicAddVersionOfTheSameKernelIsClean) {
  Device device(DeviceProperties::Gtx1660Ti(), Checked());
  int32_t* counter = device.Alloc<int32_t>(1);
  device.Launch("fixed_with_atomic", {4, 1}, {}, [&](BlockContext& b) {
    b.ForEachThread([&](int) { b.AtomicAdd(counter, int32_t{1}); });
  });
  EXPECT_EQ(device.sanitizer()->findings(), 0);
  EXPECT_EQ(*counter, 4);
}

TEST(SimtcheckSeededTest, SkippedSyncPhaseSplitIsAnIntraBlockRace) {
  Device device(DeviceProperties::Gtx1660Ti(), Checked());
  device.Launch("seeded_missing_sync", {1, 2}, {}, [&](BlockContext& b) {
    int32_t* cell = b.Shared<int32_t>(1);
    b.ForEachThread([&](int tid) {
      // Writer and reader in ONE phase: on hardware this needs a
      // __syncthreads() between them.
      if (tid == 0) {
        b.Store(cell, int32_t{7});
      } else {
        (void)b.Load(cell);
      }
    });
  });
  const Sanitizer* sanitizer = device.sanitizer();
  ASSERT_GE(sanitizer->findings(), 1);
  const Violation& v = sanitizer->violations().front();
  EXPECT_EQ(v.kind, ViolationKind::kIntraBlockRace);
  EXPECT_EQ(v.kernel, "seeded_missing_sync");
  EXPECT_EQ(v.block, 0);
  EXPECT_EQ(v.tid, 1);        // the reading thread finds the writer's record
  EXPECT_EQ(v.other_tid, 0);
  EXPECT_TRUE(v.shared);
}

TEST(SimtcheckSeededTest, ProperPhaseSplitSilencesTheRace) {
  Device device(DeviceProperties::Gtx1660Ti(), Checked());
  device.Launch("fixed_with_sync", {1, 2}, {}, [&](BlockContext& b) {
    int32_t* cell = b.Shared<int32_t>(1);
    b.ForEachThread([&](int tid) {
      if (tid == 0) b.Store(cell, int32_t{7});
    });
    // The ForEachThread boundary is the barrier; the reads are now ordered
    // after the write.
    b.ForEachThread([&](int tid) {
      if (tid == 1) {
        EXPECT_EQ(b.Load(cell), 7);
      }
    });
  });
  EXPECT_EQ(device.sanitizer()->findings(), 0);
}

TEST(SimtcheckSeededTest, ReadOnePastASharedArrayIsSharedOutOfBounds) {
  Device device(DeviceProperties::Gtx1660Ti(), Checked());
  device.Launch("seeded_shared_oob", {2, 1}, {}, [&](BlockContext& b) {
    int32_t* arr = b.Shared<int32_t>(4);
    b.ForEachThread([&](int) {
      (void)b.Load(&arr[4]);  // one past the end
    });
  });
  const Sanitizer* sanitizer = device.sanitizer();
  ASSERT_GE(sanitizer->findings(), 1);
  const Violation& v = sanitizer->violations().front();
  EXPECT_EQ(v.kind, ViolationKind::kSharedOutOfBounds);
  EXPECT_EQ(v.kernel, "seeded_shared_oob");
  EXPECT_EQ(v.block, 0);
  EXPECT_TRUE(v.shared);
}

TEST(SimtcheckSeededTest, ReadOnePastAGlobalAllocationIsGlobalOutOfBounds) {
  Device device(DeviceProperties::Gtx1660Ti(), Checked());
  int32_t* arr = device.Alloc<int32_t>(4);
  device.Launch("seeded_global_oob", {1, 1}, {}, [&](BlockContext& b) {
    b.ForEachThread([&](int) {
      (void)b.Load(&arr[4]);  // one past the end
    });
  });
  const Sanitizer* sanitizer = device.sanitizer();
  ASSERT_GE(sanitizer->findings(), 1);
  const Violation& v = sanitizer->violations().front();
  EXPECT_EQ(v.kind, ViolationKind::kGlobalOutOfBounds);
  EXPECT_EQ(v.kernel, "seeded_global_oob");
  EXPECT_FALSE(v.shared);
}

TEST(SimtcheckSeededTest, ReadAfterFreeAllIsUseAfterReset) {
  Device device(DeviceProperties::Gtx1660Ti(), Checked());
  double* data = device.Alloc<double>(16);
  device.FreeAll();  // the backing memory is returned to the host
  double seen = -1.0;
  device.Launch("seeded_use_after_free", {1, 1}, {}, [&](BlockContext& b) {
    b.ForEachThread([&](int) { seen = b.Load(&data[3]); });
  });
  const Sanitizer* sanitizer = device.sanitizer();
  ASSERT_GE(sanitizer->findings(), 1);
  const Violation& v = sanitizer->violations().front();
  EXPECT_EQ(v.kind, ViolationKind::kUseAfterReset);
  EXPECT_EQ(v.kernel, "seeded_use_after_free");
  // The load was suppressed (the memory is gone) and stood in a zero.
  EXPECT_EQ(seen, 0.0);
}

TEST(SimtcheckSeededTest, ReadAfterResetArenaIsUseAfterReset) {
  Device device(DeviceProperties::Gtx1660Ti(), Checked());
  int32_t* stale = device.Alloc<int32_t>(4);
  device.ResetArena();
  device.Launch("seeded_use_after_reset", {1, 1}, {}, [&](BlockContext& b) {
    b.ForEachThread([&](int) { (void)b.Load(&stale[0]); });
  });
  const Sanitizer* sanitizer = device.sanitizer();
  ASSERT_GE(sanitizer->findings(), 1);
  EXPECT_EQ(sanitizer->violations().front().kind,
            ViolationKind::kUseAfterReset);
}

TEST(SimtcheckSeededTest, OversizedSharedRequestIsDiagnosedAndPatched) {
  Device device(DeviceProperties::Gtx1660Ti(), Checked());
  const int64_t count =
      static_cast<int64_t>(kSharedMemoryBytes / sizeof(double)) + 1;
  device.Launch("seeded_shared_overflow", {1, 1}, {}, [&](BlockContext& b) {
    double* big = b.Shared<double>(count);
    // The patched stand-in buffer is usable, so the launch finishes and the
    // diagnostic surfaces instead of an abort.
    b.ForEachThread([&](int) { b.Store(&big[0], 1.0); });
  });
  const Sanitizer* sanitizer = device.sanitizer();
  ASSERT_EQ(sanitizer->findings(), 1);
  const Violation& v = sanitizer->violations().front();
  EXPECT_EQ(v.kind, ViolationKind::kSharedOverflow);
  EXPECT_EQ(v.kernel, "seeded_shared_overflow");
}

TEST(SimtcheckSeededTest, HostCopyFromFreedMemoryIsCaughtAndZeroed) {
  Device device(DeviceProperties::Gtx1660Ti(), Checked());
  double* buf = device.Alloc<double>(4);
  device.FreeAll();
  double host[4] = {1.0, 2.0, 3.0, 4.0};
  device.CopyToHost(host, buf, 4);
  const Sanitizer* sanitizer = device.sanitizer();
  ASSERT_GE(sanitizer->findings(), 1);
  EXPECT_EQ(sanitizer->violations().front().kernel, "<host:copy_to_host>");
  EXPECT_EQ(sanitizer->violations().front().kind,
            ViolationKind::kUseAfterReset);
  for (const double value : host) EXPECT_EQ(value, 0.0);
}

TEST(SimtcheckSeededTest, SummaryAndReportsCarryTheFindings) {
  Device device(DeviceProperties::Gtx1660Ti(), Checked());
  int32_t* counter = device.Alloc<int32_t>(1);
  device.Launch("seeded_for_summary", {2, 1}, {}, [&](BlockContext& b) {
    b.ForEachThread([&](int) { b.Store(counter, b.Load(counter) + 1); });
  });
  const Sanitizer* sanitizer = device.sanitizer();
  ASSERT_GE(sanitizer->findings(), 1);
  EXPECT_NE(sanitizer->Summary().find("simtcheck:"), std::string::npos);
  const std::vector<std::string> reports =
      sanitizer->Reports(Sanitizer::kMaxDetailedViolations);
  ASSERT_FALSE(reports.empty());
  EXPECT_NE(reports.front().find("seeded_for_summary"), std::string::npos);
  // ResetRunState clears for the next run (service job boundary).
  device.ResetStats();
  EXPECT_EQ(sanitizer->findings(), 0);
  EXPECT_TRUE(sanitizer->violations().empty());
}

// --- default-off behavior ----------------------------------------------------

TEST(SimtcheckModeTest, SanitizeOffHasNoSanitizerAndRawSemantics) {
  Device device;  // PROCLUS_SIMTCHECK unset in test runs => off by default
  if (SimtcheckEnvDefault()) GTEST_SKIP() << "PROCLUS_SIMTCHECK=1 is set";
  EXPECT_FALSE(device.sanitize_enabled());
  EXPECT_EQ(device.sanitizer(), nullptr);
}

TEST(SimtcheckModeTest, EnvVariableTurnsCheckedModeOn) {
  ::setenv("PROCLUS_SIMTCHECK", "1", 1);
  EXPECT_TRUE(SimtcheckEnvDefault());
  Device device;
  EXPECT_TRUE(device.sanitize_enabled());
  ::unsetenv("PROCLUS_SIMTCHECK");
}

// --- block order -------------------------------------------------------------

std::vector<int64_t> CheckedVisitOrder(int launches) {
  Device device(DeviceProperties::Gtx1660Ti(), Checked());
  std::vector<int64_t> order;
  for (int l = 0; l < launches; ++l) {
    order.clear();
    device.Launch("visit", {64, 1}, {},
                  [&](BlockContext& b) { order.push_back(b.block_idx()); });
  }
  return order;
}

TEST(SimtcheckBlockOrderTest, CheckedModeVisitsBlocksInASeededPermutation) {
  const std::vector<int64_t> first = CheckedVisitOrder(1);
  std::vector<int64_t> sorted = first;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int64_t> identity(64);
  for (int64_t b = 0; b < 64; ++b) identity[b] = b;
  EXPECT_EQ(sorted, identity);  // every block exactly once
  EXPECT_NE(first, identity);   // ... but not in index order
  // Seeded from the launch sequence number: reproducible on a fresh
  // device, different for the next launch.
  EXPECT_EQ(CheckedVisitOrder(1), first);
  EXPECT_NE(CheckedVisitOrder(2), first);
}

// --- production kernels under the checker ------------------------------------

TEST(SimtcheckCleanRunTest, EveryStrategyRunsCleanUnderTheChecker) {
  const data::Dataset ds = TestData();
  for (const core::Strategy strategy :
       {core::Strategy::kBaseline, core::Strategy::kFast,
        core::Strategy::kFastStar}) {
    core::ClusterOptions options;
    options.backend = core::ComputeBackend::kGpu;
    options.strategy = strategy;
    options.gpu_sanitize = true;
    core::ProclusResult result;
    const Status status = core::Cluster(ds.points, TestParams(), options,
                                        &result);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(result.stats.sanitizer_findings, 0);
    EXPECT_GT(result.stats.sanitizer_checked_accesses, 0);
    EXPECT_TRUE(result.stats.sanitizer_reports.empty());
  }
}

TEST(SimtcheckCleanRunTest, CheckedAndUncheckedRunsAreBitIdentical) {
  // Checked mode runs the blocks of every launch in a shuffled order, so
  // this also fails if any kernel result depends on block order.
  const data::Dataset ds = TestData();
  for (const core::Strategy strategy :
       {core::Strategy::kBaseline, core::Strategy::kFast,
        core::Strategy::kFastStar}) {
    SCOPED_TRACE(core::StrategyName(strategy));
    core::ClusterOptions plain;
    plain.backend = core::ComputeBackend::kGpu;
    plain.strategy = strategy;
    core::ProclusResult expected;
    ASSERT_TRUE(
        core::Cluster(ds.points, TestParams(), plain, &expected).ok());

    core::ClusterOptions checked = plain;
    checked.gpu_sanitize = true;
    core::ProclusResult actual;
    ASSERT_TRUE(
        core::Cluster(ds.points, TestParams(), checked, &actual).ok());

    EXPECT_EQ(expected.medoids, actual.medoids);
    EXPECT_EQ(expected.dimensions, actual.dimensions);
    EXPECT_EQ(expected.assignment, actual.assignment);
    EXPECT_EQ(expected.iterative_cost, actual.iterative_cost);
    EXPECT_EQ(expected.refined_cost, actual.refined_cost);
  }
}

TEST(SimtcheckCleanRunTest, MultiParamSweepRunsCleanUnderTheChecker) {
  const data::Dataset ds = TestData();
  core::MultiParamOptions mp;
  mp.cluster.backend = core::ComputeBackend::kGpu;
  mp.cluster.strategy = core::Strategy::kFast;
  mp.cluster.gpu_sanitize = true;
  core::SweepSpec sweep;
  sweep.settings = {{3, 3}, {4, 3}, {4, 4}};
  sweep.reuse = core::ReuseLevel::kWarmStart;
  const std::vector<core::ParamSetting>& settings = sweep.settings;
  core::MultiParamResult output;
  const Status status =
      core::RunMultiParam(ds.points, TestParams(), sweep, mp, &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(output.results.size(), settings.size());
  EXPECT_EQ(output.results.back().stats.sanitizer_findings, 0);
  EXPECT_GT(output.results.back().stats.sanitizer_checked_accesses, 0);
}

TEST(SimtcheckCleanRunTest, PriorFindingsOnAProvidedDeviceDoNotFailTheRun) {
  Device device(DeviceProperties::Gtx1660Ti(), Checked());
  // Leave a finding on the device before the clustering run, as a long-lived
  // service device might.
  double* gone = device.Alloc<double>(1);
  device.FreeAll();
  device.Launch("pre_run_poke", {1, 1}, {}, [&](BlockContext& b) {
    b.ForEachThread([&](int) { (void)b.Load(gone); });
  });
  ASSERT_GE(device.sanitizer()->findings(), 1);

  const data::Dataset ds = TestData();
  core::ClusterOptions options;
  options.backend = core::ComputeBackend::kGpu;
  options.strategy = core::Strategy::kFast;
  options.device = &device;
  options.gpu_sanitize = true;
  core::ProclusResult result;
  // Only findings NEW in this run fail it; the pre-existing one must not.
  EXPECT_TRUE(core::Cluster(ds.points, TestParams(), options, &result).ok());
}

TEST(SimtcheckCleanRunTest, GpuSanitizeRequiresTheGpuBackend) {
  core::ClusterOptions options;
  options.backend = core::ComputeBackend::kCpu;
  options.gpu_sanitize = true;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(SimtcheckCleanRunTest, GpuSanitizeRejectsAnUncheckedProvidedDevice) {
  Device plain_device;
  if (plain_device.sanitize_enabled()) {
    GTEST_SKIP() << "PROCLUS_SIMTCHECK=1 is set";
  }
  core::ClusterOptions options;
  options.backend = core::ComputeBackend::kGpu;
  options.device = &plain_device;
  options.gpu_sanitize = true;
  EXPECT_FALSE(options.Validate().ok());
}

// --- metrics taxonomy --------------------------------------------------------

TEST(SimtcheckMetricsTest, RunStatsPublishIntoTheSanitizerTaxonomy) {
  const data::Dataset ds = TestData();
  core::ClusterOptions options;
  options.backend = core::ComputeBackend::kGpu;
  options.strategy = core::Strategy::kFast;
  options.gpu_sanitize = true;
  core::ProclusResult result;
  ASSERT_TRUE(core::Cluster(ds.points, TestParams(), options, &result).ok());

  obs::MetricsRegistry registry;
  core::PublishRunStats(result.stats, &registry);
  EXPECT_EQ(registry.counter("simt.sanitizer.findings")->value(), 0);
  EXPECT_GT(registry.counter("simt.sanitizer.checked_accesses")->value(), 0);
  EXPECT_EQ(registry.gauge("simt.sanitizer.last_run_findings")->value(), 0.0);
}

TEST(SimtcheckMetricsTest, UncheckedRunsStayOutOfTheSanitizerTaxonomy) {
  core::RunStats stats;  // no checked accesses, no findings
  obs::MetricsRegistry registry;
  core::PublishRunStats(stats, &registry);
  const std::string snapshot = registry.TextSnapshot();
  EXPECT_EQ(snapshot.find("simt.sanitizer"), std::string::npos);
}

}  // namespace
}  // namespace proclus::simt
