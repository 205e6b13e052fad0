// GPU-engine-specific behavior: device memory management (allocate once,
// reuse across iterations), kernel accounting, the modeled-time output, and
// the Fig. 3f space relationships between the GPU variants.

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/api.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "simt/device.h"
#include "testing/must_cluster.h"

namespace proclus::core {
namespace {

data::Dataset TestData(int64_t n = 1000) {
  data::GeneratorConfig config;
  config.n = n;
  config.d = 10;
  config.num_clusters = 5;
  config.subspace_dim = 5;
  config.stddev = 2.0;
  config.seed = 55;
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

ProclusResult RunGpu(const data::Dataset& ds, Strategy strategy,
                     simt::Device* device = nullptr) {
  ClusterOptions options;
  options.backend = ComputeBackend::kGpu;
  options.strategy = strategy;
  options.device = device;
  return MustCluster(ds.points, TestParams(), options);
}

TEST(GpuBackendTest, ReportsModeledTimeAndMemory) {
  const data::Dataset ds = TestData();
  const ProclusResult result = RunGpu(ds, Strategy::kFast);
  EXPECT_GT(result.stats.modeled_gpu_seconds, 0.0);
  EXPECT_GT(result.stats.modeled_transfer_seconds, 0.0);
  EXPECT_GT(result.stats.device_peak_bytes, 0u);
}

TEST(GpuBackendTest, ExpectedKernelsWereLaunched) {
  const data::Dataset ds = TestData();
  simt::Device device;
  RunGpu(ds, Strategy::kFast, &device);
  const auto records = device.perf_model().KernelRecords();
  std::set<std::string> names;
  for (const auto& r : records) names.insert(r.name);
  for (const char* expected :
       {"greedy_dist", "greedy_select", "greedy_update", "compute_dist",
        "compute_delta", "build_delta_l", "update_h", "update_l_size",
        "compute_x", "compute_z", "assign_points", "evaluate", "save_best",
        "build_best_clusters", "refine_x", "compute_radii",
        // count -> scan -> scatter and the in-order cost sum
        "build_delta_l_scan", "build_delta_l_scatter", "assign_points_scan",
        "assign_points_scatter", "build_best_clusters_scan",
        "build_best_clusters_scatter", "evaluate_sum"}) {
    EXPECT_TRUE(names.count(expected)) << "missing kernel " << expected;
  }
}

TEST(GpuBackendTest, BaselineUsesDirectXKernelInsteadOfH) {
  const data::Dataset ds = TestData();
  simt::Device device;
  RunGpu(ds, Strategy::kBaseline, &device);
  std::set<std::string> names;
  for (const auto& r : device.perf_model().KernelRecords()) {
    names.insert(r.name);
  }
  EXPECT_TRUE(names.count("compute_x_direct"));
  EXPECT_FALSE(names.count("update_h"));
}

TEST(GpuBackendTest, FastLaunchesFewerDistanceKernelsThanBaseline) {
  const data::Dataset ds = TestData();
  simt::Device base_device;
  RunGpu(ds, Strategy::kBaseline, &base_device);
  simt::Device fast_device;
  RunGpu(ds, Strategy::kFast, &fast_device);
  auto dist_blocks = [](const simt::Device& device) {
    for (const auto& r : device.perf_model().KernelRecords()) {
      if (r.name == "compute_dist") return r.total_blocks;
    }
    return int64_t{0};
  };
  EXPECT_LT(dist_blocks(fast_device), dist_blocks(base_device));
}

TEST(GpuBackendTest, SpaceUsageFastAboveBaselineAboveStar) {
  // Fig. 3f: GPU-FAST uses the Bk x n Dist matrix; GPU-PROCLUS and
  // GPU-FAST* keep only k x n and are similar.
  const data::Dataset ds = TestData(4000);
  simt::Device base_device;
  RunGpu(ds, Strategy::kBaseline, &base_device);
  simt::Device fast_device;
  RunGpu(ds, Strategy::kFast, &fast_device);
  simt::Device star_device;
  RunGpu(ds, Strategy::kFastStar, &star_device);
  const auto base_bytes = base_device.peak_allocated_bytes();
  const auto fast_bytes = fast_device.peak_allocated_bytes();
  const auto star_bytes = star_device.peak_allocated_bytes();
  EXPECT_GT(fast_bytes, base_bytes);
  EXPECT_NEAR(static_cast<double>(star_bytes),
              static_cast<double>(base_bytes), 0.02 * base_bytes);
}

TEST(GpuBackendTest, SpaceUsageLinearInN) {
  const data::Dataset small = TestData(2000);
  const data::Dataset large = TestData(8000);
  simt::Device small_device;
  RunGpu(small, Strategy::kFast, &small_device);
  simt::Device large_device;
  RunGpu(large, Strategy::kFast, &large_device);
  const double ratio =
      static_cast<double>(large_device.peak_allocated_bytes()) /
      static_cast<double>(small_device.peak_allocated_bytes());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

TEST(GpuBackendTest, MemoryAllocatedOnceAcrossIterations) {
  // The paper allocates all device memory up-front; with a long run the
  // footprint must not grow with the iteration count.
  const data::Dataset ds = TestData();
  simt::Device short_device;
  simt::Device long_device;
  {
    ClusterOptions options;
    options.backend = ComputeBackend::kGpu;
    options.strategy = Strategy::kFast;
    options.device = &short_device;
    ProclusParams params = TestParams();
    params.itr_pat = 1;
    MustCluster(ds.points, params, options);
    options.device = &long_device;
    params.itr_pat = 12;
    MustCluster(ds.points, params, options);
  }
  EXPECT_EQ(short_device.peak_allocated_bytes(),
            long_device.peak_allocated_bytes());
}

TEST(GpuBackendTest, EvaluateIsTheDominantKernel) {
  // §5.4: Algorithm 6 (evaluate) is the most time-consuming kernel for
  // large n; verify the model agrees for a decently sized run.
  const data::Dataset ds = TestData(8000);
  simt::Device device;
  RunGpu(ds, Strategy::kFast, &device);
  const auto records = device.perf_model().KernelRecords();
  ASSERT_FALSE(records.empty());
  // Among per-iteration kernels, one of the O(n*k*d)-class kernels must
  // dominate, and evaluate/assign must rank in the top few.
  std::vector<std::string> top;
  for (size_t i = 0; i < std::min<size_t>(4, records.size()); ++i) {
    top.push_back(records[i].name);
  }
  const bool found =
      std::find(top.begin(), top.end(), "evaluate") != top.end() ||
      std::find(top.begin(), top.end(), "assign_points") != top.end();
  EXPECT_TRUE(found);
}

TEST(GpuBackendTest, TinyDeltaKernelHasLowOccupancy) {
  // §5.4 reports ~3% achieved occupancy for the k x k kernel.
  const data::Dataset ds = TestData();
  simt::Device device;
  RunGpu(ds, Strategy::kFast, &device);
  for (const auto& r : device.perf_model().KernelRecords()) {
    if (r.name == "compute_delta") {
      EXPECT_LT(r.last_occupancy.achieved, 0.05);
      return;
    }
  }
  FAIL() << "compute_delta kernel not found";
}

TEST(GpuBackendTest, ModeledTimeScalesWithN) {
  const data::Dataset small = TestData(1000);
  const data::Dataset large = TestData(8000);
  ClusterOptions options;
  options.backend = ComputeBackend::kGpu;
  options.strategy = Strategy::kFast;
  const ProclusResult a = MustCluster(small.points, TestParams(), options);
  const ProclusResult b = MustCluster(large.points, TestParams(), options);
  const double per_iter_a =
      a.stats.modeled_gpu_seconds / a.stats.iterations;
  const double per_iter_b =
      b.stats.modeled_gpu_seconds / b.stats.iterations;
  EXPECT_GT(per_iter_b, per_iter_a);
}

TEST(GpuBackendTest, MultiWorkerDeviceSameClustering) {
  // Thread blocks genuinely run on several host threads, in whatever order
  // the workers claim them; no kernel result may depend on that order, so
  // the runs must agree bit for bit, work counters included.
  const data::Dataset ds = TestData(20000);
  for (const Strategy strategy :
       {Strategy::kBaseline, Strategy::kFast, Strategy::kFastStar}) {
    SCOPED_TRACE(StrategyName(strategy));
    simt::DeviceOptions one_worker;
    one_worker.host_workers = 1;
    simt::DeviceOptions four_workers;
    four_workers.host_workers = 4;
    simt::Device single(simt::DeviceProperties::Gtx1660Ti(), one_worker);
    simt::Device multi(simt::DeviceProperties::Gtx1660Ti(), four_workers);
    const ProclusResult a = RunGpu(ds, strategy, &single);
    const ProclusResult b = RunGpu(ds, strategy, &multi);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.medoids, b.medoids);
    EXPECT_EQ(a.dimensions, b.dimensions);
    EXPECT_EQ(a.iterative_cost, b.iterative_cost);
    EXPECT_EQ(a.refined_cost, b.refined_cost);
    EXPECT_EQ(a.stats.iterations, b.stats.iterations);
    EXPECT_EQ(a.stats.euclidean_distances, b.stats.euclidean_distances);
    EXPECT_EQ(a.stats.l_points_scanned, b.stats.l_points_scanned);
    EXPECT_EQ(a.stats.segmental_distances, b.stats.segmental_distances);
    EXPECT_EQ(a.stats.greedy_distances, b.stats.greedy_distances);
    EXPECT_EQ(a.stats.modeled_gpu_seconds, b.stats.modeled_gpu_seconds);
    EXPECT_EQ(a.stats.device_peak_bytes, b.stats.device_peak_bytes);
  }
}

TEST(GpuBackendTest, DeviceOutOfMemoryAborts) {
  // The paper reports GPU memory as the limiting factor at 8M points; the
  // simulated device enforces its capacity the same way.
  const data::Dataset ds = TestData(4000);
  simt::DeviceProperties tiny = simt::DeviceProperties::Gtx1660Ti();
  tiny.global_memory_bytes = 64 * 1024;  // 64 KiB "GPU"
  EXPECT_DEATH(
      {
        simt::Device device(tiny);
        ClusterOptions options;
        options.backend = ComputeBackend::kGpu;
        options.device = &device;
        ProclusResult result;
        (void)Cluster(ds.points, TestParams(), options, &result);
      },
      "PROCLUS_CHECK");
}

TEST(GpuBackendTest, Rtx3090ModelIsFasterThan1660Ti) {
  const data::Dataset ds = TestData(8000);
  ClusterOptions small_gpu;
  small_gpu.backend = ComputeBackend::kGpu;
  small_gpu.strategy = Strategy::kFast;
  small_gpu.device_properties = simt::DeviceProperties::Gtx1660Ti();
  ClusterOptions big_gpu = small_gpu;
  big_gpu.device_properties = simt::DeviceProperties::Rtx3090();
  const ProclusResult a = MustCluster(ds.points, TestParams(), small_gpu);
  const ProclusResult b = MustCluster(ds.points, TestParams(), big_gpu);
  // Same clustering, less modeled time on the bigger card.
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_LT(b.stats.modeled_gpu_seconds, a.stats.modeled_gpu_seconds);
}

}  // namespace
}  // namespace proclus::core
