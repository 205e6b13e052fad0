#include "simt/primitives.h"

#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace proclus::simt {
namespace {

TEST(FillTest, FillsEveryElement) {
  Device device;
  float* values = device.Alloc<float>(5000);
  Fill(device, "fill", values, 5000, 3.5f);
  for (int i = 0; i < 5000; ++i) EXPECT_EQ(values[i], 3.5f);
}

TEST(FillTest, IntAndDoubleTypes) {
  Device device;
  int* ints = device.Alloc<int>(100);
  double* doubles = device.Alloc<double>(100);
  Fill(device, "fill_i", ints, 100, -7);
  Fill(device, "fill_d", doubles, 100, 0.25);
  EXPECT_EQ(ints[99], -7);
  EXPECT_EQ(doubles[0], 0.25);
}

TEST(FillTest, ZeroCountIsNoLaunch) {
  Device device;
  float* values = device.Alloc<float>(1);
  Fill(device, "fill", values, 0, 1.0f);
  EXPECT_EQ(device.perf_model().total_launches(), 0);
}

TEST(FillTest, RecordsLaunchUnderGivenName) {
  Device device;
  float* values = device.Alloc<float>(10);
  Fill(device, "my_fill", values, 10, 1.0f);
  const auto records = device.perf_model().KernelRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "my_fill");
}

TEST(IotaTest, ProducesSequence) {
  Device device;
  int* values = device.Alloc<int>(3000);
  Iota(device, "iota", values, 3000);
  for (int i = 0; i < 3000; ++i) EXPECT_EQ(values[i], i);
}

TEST(ReduceSumTest, MatchesSequentialSum) {
  Device device;
  const int64_t n = 12345;
  double* values = device.Alloc<double>(n);
  for (int64_t i = 0; i < n; ++i) values[i] = 0.5 * static_cast<double>(i);
  double* partials = device.Alloc<double>(ReducePartials(n));
  double* out = device.Alloc<double>(1);
  const double sum = ReduceSum(device, "sum", values, n, partials, out);
  EXPECT_DOUBLE_EQ(sum, *out);
  EXPECT_NEAR(sum, 0.5 * n * (n - 1) / 2.0, 1e-6);
}

TEST(ReduceSumTest, EmptyIsZero) {
  Device device;
  double* out = device.Alloc<double>(1);
  EXPECT_EQ(ReduceSum(device, "sum", nullptr, 0, nullptr, out), 0.0);
}

TEST(ReduceSumTest, BitIdenticalAtAnyWorkerCount) {
  // Values whose float sum depends on the order of addition: the per-block
  // partials are folded in block-index order, so several host workers
  // must give the 1-worker bits exactly.
  const int64_t n = 1 << 18;
  double expected = 0.0;
  for (const int workers : {1, 2, 4}) {
    DeviceOptions options;
    options.host_workers = workers;
    Device device(DeviceProperties::Gtx1660Ti(), options);
    double* values = device.Alloc<double>(n);
    for (int64_t i = 0; i < n; ++i) {
      values[i] = 1.0 / static_cast<double>(1 + (i * 7919) % 1009) +
                  (i % 3 == 0 ? 1e8 : -1e8 / 3.0);
    }
    double* partials = device.Alloc<double>(ReducePartials(n));
    double* out = device.Alloc<double>(1);
    for (int rep = 0; rep < 5; ++rep) {
      const double sum = ReduceSum(device, "sum", values, n, partials, out);
      if (workers == 1 && rep == 0) expected = sum;
      EXPECT_EQ(sum, expected) << workers << " workers, rep " << rep;
    }
  }
}

TEST(ExclusiveScanRowsTest, OffsetsAndTotalsPerRow) {
  Device device;
  const int64_t rows = 3;
  const int64_t cols = 1000;  // more than one scan block's threads
  int* counts = device.Alloc<int>(rows * (cols + 1));
  int* totals = device.Alloc<int>(rows);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < cols; ++j) {
      counts[r * (cols + 1) + j] = static_cast<int>((r + 1) * (j % 5));
    }
  }
  ExclusiveScanRows(device, "scan", counts, rows, cols, totals);
  for (int64_t r = 0; r < rows; ++r) {
    int expected = 0;
    for (int64_t j = 0; j < cols; ++j) {
      ASSERT_EQ(counts[r * (cols + 1) + j], expected) << r << "," << j;
      expected += static_cast<int>((r + 1) * (j % 5));
    }
    EXPECT_EQ(counts[r * (cols + 1) + cols], expected);
    EXPECT_EQ(totals[r], expected);
  }
}

TEST(ReduceMinMaxTest, FindExtremes) {
  Device device;
  const int64_t n = 4097;  // crosses a block boundary
  float* values = device.Alloc<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    values[i] = static_cast<float>((i * 2654435761u) % 100000);
  }
  values[1234] = -5.0f;
  values[4096] = 200000.0f;
  float* out = device.Alloc<float>(1);
  EXPECT_EQ(ReduceMin(device, "min", values, n, out), -5.0f);
  EXPECT_EQ(ReduceMax(device, "max", values, n, out), 200000.0f);
}

TEST(ReduceMinMaxTest, SingleElement) {
  Device device;
  float* values = device.Alloc<float>(1);
  values[0] = 42.0f;
  float* out = device.Alloc<float>(1);
  EXPECT_EQ(ReduceMin(device, "min", values, 1, out), 42.0f);
  EXPECT_EQ(ReduceMax(device, "max", values, 1, out), 42.0f);
}

TEST(ReduceMinMaxTest, EmptyYieldsIdentity) {
  Device device;
  float* out = device.Alloc<float>(1);
  EXPECT_EQ(ReduceMin(device, "min", nullptr, 0, out),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(ReduceMax(device, "max", nullptr, 0, out),
            -std::numeric_limits<float>::infinity());
}

}  // namespace
}  // namespace proclus::simt
