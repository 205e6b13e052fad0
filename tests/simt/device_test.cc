#include "simt/device.h"

#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "simt/atomic.h"

namespace proclus::simt {
namespace {

TEST(DeviceMemoryTest, AllocZeroInitialized) {
  Device device;
  const int* ptr = device.Alloc<int>(1000);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(ptr[i], 0);
}

TEST(DeviceMemoryTest, AllocationsDoNotOverlap) {
  Device device;
  int* a = device.Alloc<int>(100);
  int* b = device.Alloc<int>(100);
  for (int i = 0; i < 100; ++i) a[i] = 1;
  for (int i = 0; i < 100; ++i) b[i] = 2;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a[i], 1);
}

TEST(DeviceMemoryTest, TracksAllocatedAndPeakBytes) {
  Device device;
  EXPECT_EQ(device.allocated_bytes(), 0u);
  device.Alloc<double>(1000);
  EXPECT_EQ(device.allocated_bytes(), 8000u);
  device.Alloc<float>(1000);
  EXPECT_EQ(device.allocated_bytes(), 12000u);
  EXPECT_EQ(device.peak_allocated_bytes(), 12000u);
  device.FreeAll();
  EXPECT_EQ(device.allocated_bytes(), 0u);
  // Peak survives FreeAll.
  EXPECT_EQ(device.peak_allocated_bytes(), 12000u);
}

TEST(DeviceMemoryTest, LargeAllocationGetsOwnChunk) {
  Device device;
  float* big = device.Alloc<float>(10 << 20);  // 40 MiB
  big[0] = 1.0f;
  big[(10 << 20) - 1] = 2.0f;
  EXPECT_EQ(big[0], 1.0f);
}

TEST(DeviceMemoryTest, AlignmentRespected) {
  Device device;
  device.Alloc<char>(3);
  const double* ptr = device.Alloc<double>(4);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ptr) % alignof(double), 0u);
}

TEST(DeviceMemoryTest, ExceedingCapacityAborts) {
  DeviceProperties props;
  props.global_memory_bytes = 1 << 20;  // 1 MiB device
  Device device(props);
  EXPECT_DEATH(device.Alloc<char>(2 << 20), "PROCLUS_CHECK");
}

TEST(DeviceMemoryTest, CopyToDeviceAndBackRoundTrips) {
  Device device;
  std::vector<float> host(256);
  std::iota(host.begin(), host.end(), 0.0f);
  float* dev = device.Alloc<float>(256);
  device.CopyToDevice(dev, host.data(), 256);
  std::vector<float> back(256, -1.0f);
  device.CopyToHost(back.data(), dev, 256);
  EXPECT_EQ(host, back);
  EXPECT_GT(device.perf_model().transfer_seconds(), 0.0);
}

TEST(DeviceLaunchTest, EveryBlockAndThreadRuns) {
  Device device;
  int* hits = device.Alloc<int>(64 * 32);
  device.Launch("touch", {64, 32}, {}, [&](BlockContext& b) {
    b.ForEachThread([&](int tid) {
      AtomicAdd(&hits[b.block_idx() * 32 + tid], 1);
    });
  });
  for (int i = 0; i < 64 * 32; ++i) EXPECT_EQ(hits[i], 1);
}

TEST(DeviceLaunchTest, ZeroGridIsNoOpButRecorded) {
  Device device;
  device.Launch("empty", {0, 32}, {}, [&](BlockContext&) { FAIL(); });
  EXPECT_EQ(device.perf_model().total_launches(), 1);
}

TEST(DeviceLaunchTest, BlockContextGeometry) {
  Device device;
  device.Launch("geom", {5, 7}, {}, [&](BlockContext& b) {
    EXPECT_EQ(b.grid_dim(), 5);
    EXPECT_EQ(b.block_dim(), 7);
    EXPECT_GE(b.block_idx(), 0);
    EXPECT_LT(b.block_idx(), 5);
  });
}

TEST(DeviceLaunchTest, PhaseBarrierSemantics) {
  // All threads of a block complete phase 1 before phase 2 starts: phase 2
  // reads a shared array fully written by phase 1.
  Device device;
  int* ok = device.Alloc<int>(1);
  *ok = 1;
  device.Launch("barrier", {8, 64}, {}, [&](BlockContext& b) {
    int* scratch = b.Shared<int>(64);
    b.ForEachThread([&](int tid) { scratch[tid] = tid + 1; });
    b.Sync();
    b.ForEachThread([&](int tid) {
      // Every other thread's phase-1 write must be visible.
      const int other = (tid + 13) % 64;
      if (scratch[other] != other + 1) AtomicAdd(ok, -1000);
    });
  });
  EXPECT_EQ(*ok, 1);
}

TEST(DeviceLaunchTest, SharedMemoryZeroedPerBlock) {
  Device device;
  int* violations = device.Alloc<int>(1);
  device.Launch("shared_zero", {16, 4}, {}, [&](BlockContext& b) {
    double* acc = b.Shared<double>(8);
    for (int i = 0; i < 8; ++i) {
      if (acc[i] != 0.0) AtomicAdd(violations, 1);
    }
    // Dirty it for the next block on this worker.
    for (int i = 0; i < 8; ++i) acc[i] = 3.14;
  });
  EXPECT_EQ(*violations, 0);
}

TEST(DeviceLaunchTest, ForEachThreadStridedCoversCount) {
  Device device;
  int* hits = device.Alloc<int>(1000);
  device.Launch("strided", {1, 32}, {}, [&](BlockContext& b) {
    b.ForEachThreadStrided(1000, [&](int64_t i) { hits[i] += 1; });
  });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(hits[i], 1);
}

TEST(DeviceLaunchTest, ModeledTimeAccumulates) {
  Device device;
  EXPECT_EQ(device.modeled_seconds(), 0.0);
  device.Launch("work", {128, 1024}, {1e9, 1e8, 0.0},
                [](BlockContext&) {});
  const double after_one = device.modeled_seconds();
  EXPECT_GT(after_one, 0.0);
  device.Launch("work", {128, 1024}, {1e9, 1e8, 0.0},
                [](BlockContext&) {});
  EXPECT_NEAR(device.modeled_seconds(), 2 * after_one, 1e-12);
  device.ResetStats();
  EXPECT_EQ(device.modeled_seconds(), 0.0);
}

TEST(DeviceLaunchTest, AtomicsAcrossBlocksSumCorrectly) {
  DeviceOptions options;
  options.host_workers = 4;
  Device device(DeviceProperties::Gtx1660Ti(), options);
  double* sum = device.Alloc<double>(1);
  device.Launch("atomic_sum", {256, 128}, {}, [&](BlockContext& b) {
    b.ForEachThread([&](int) { AtomicAdd(sum, 1.0); });
  });
  EXPECT_DOUBLE_EQ(*sum, 256.0 * 128.0);
}

TEST(DeviceLaunchTest, OversizedBlockAborts) {
  Device device;
  EXPECT_DEATH(device.Launch("too_big", {1, 4096}, {}, [](BlockContext&) {}),
               "PROCLUS_CHECK");
}

TEST(DeviceTest, Rtx3090PropertiesDiffer) {
  const DeviceProperties small = DeviceProperties::Gtx1660Ti();
  const DeviceProperties big = DeviceProperties::Rtx3090();
  EXPECT_GT(big.PeakFlops(), small.PeakFlops());
  EXPECT_GT(big.mem_bandwidth_gbps, small.mem_bandwidth_gbps);
  EXPECT_GT(big.global_memory_bytes, small.global_memory_bytes);
}

}  // namespace
}  // namespace proclus::simt
