#include "simt/primitives.h"

#include <algorithm>
#include <limits>
#include <string>

#include "simt/atomic.h"

namespace proclus::simt {

namespace {
constexpr int kBlock = 1024;
constexpr int kScanBlock = 256;
}  // namespace

void Iota(Device& device, const char* name, int* values, int64_t count) {
  if (count <= 0) return;
  const int64_t grid = (count + kBlock - 1) / kBlock;
  device.Launch(name, {grid, kBlock},
                WorkEstimate{0.0, 4.0 * count, 0.0}, [&](BlockContext& b) {
                  b.ForEachThread([&](int tid) {
                    const int64_t i = b.block_idx() * kBlock + tid;
                    if (i < count) b.Store(&values[i], static_cast<int>(i));
                  });
                });
}

int64_t ReducePartials(int64_t count) { return (count + kBlock - 1) / kBlock; }

double ReduceSum(Device& device, const char* name, const double* values,
                 int64_t count, double* partials, double* out) {
  const int64_t grid = ReducePartials(count);
  if (grid > 0) {
    device.Launch(name, {grid, kBlock},
                  WorkEstimate{static_cast<double>(count),
                               8.0 * count + 8.0 * grid, 0.0},
                  [&](BlockContext& b) {
                    double local = 0.0;
                    b.ForEachThread([&](int tid) {
                      const int64_t i = b.block_idx() * kBlock + tid;
                      if (i < count) local += b.Load(&values[i]);
                    });
                    b.Store(&partials[b.block_idx()], local);
                  });
  }
  SumInOrder(device, (std::string(name) + "_sum").c_str(), partials, grid,
             out);
  return *out;
}

void SumInOrder(Device& device, const char* name, const double* values,
                int64_t count, double* out) {
  device.Launch(name, {1, 1},
                WorkEstimate{static_cast<double>(count), 8.0 * count + 8.0,
                             0.0},
                [&](BlockContext& b) {
                  double sum = 0.0;
                  if (count > 0) {
                    const double* v = b.LoadSpan(values, count);
                    for (int64_t i = 0; i < count; ++i) sum += v[i];
                  }
                  b.Store(out, sum);
                });
}

void ExclusiveScanRows(Device& device, const char* name, int* counts,
                       int64_t rows, int64_t cols, int* totals) {
  if (rows <= 0) return;
  // Work-efficient block scan, one block per row: each thread totals a
  // contiguous chunk, one thread scans the chunk totals, and each thread
  // rewrites its chunk as running offsets.
  const int block = static_cast<int>(std::clamp<int64_t>(cols, 1, kScanBlock));
  const int64_t chunk = (cols + block - 1) / block;
  device.Launch(
      name, {rows, block},
      WorkEstimate{2.0 * rows * cols, 12.0 * rows * (cols + 1), 0.0},
      [&](BlockContext& b) {
        int* row = counts + b.block_idx() * (cols + 1);
        int* starts = b.Shared<int>(block);
        b.ForEachThread([&](int tid) {
          const int64_t hi = std::min(cols, (tid + 1) * chunk);
          int sum = 0;
          for (int64_t j = tid * chunk; j < hi; ++j) sum += b.Load(&row[j]);
          b.Store(&starts[tid], sum);
        });
        int total = 0;
        for (int t = 0; t < block; ++t) {
          const int sum = b.Load(&starts[t]);
          b.Store(&starts[t], total);
          total += sum;
        }
        b.Sync();
        b.ForEachThread([&](int tid) {
          const int64_t hi = std::min(cols, (tid + 1) * chunk);
          int next = b.Load(&starts[tid]);
          for (int64_t j = tid * chunk; j < hi; ++j) {
            const int c = b.Load(&row[j]);
            b.Store(&row[j], next);
            next += c;
          }
        });
        b.Store(&row[cols], total);
        b.Store(&totals[b.block_idx()], total);
      });
}

float ReduceMin(Device& device, const char* name, const float* values,
                int64_t count, float* out) {
  *out = std::numeric_limits<float>::infinity();
  if (count > 0) {
    const int64_t grid = (count + kBlock - 1) / kBlock;
    device.Launch(name, {grid, kBlock},
                  WorkEstimate{static_cast<double>(count), 4.0 * count,
                               static_cast<double>(grid)},
                  [&](BlockContext& b) {
                    float local = std::numeric_limits<float>::infinity();
                    b.ForEachThread([&](int tid) {
                      const int64_t i = b.block_idx() * kBlock + tid;
                      if (i < count) local = std::min(local, b.Load(&values[i]));
                    });
                    b.AtomicMin(out, local);
                  });
  }
  return *out;
}

float ReduceMax(Device& device, const char* name, const float* values,
                int64_t count, float* out) {
  *out = -std::numeric_limits<float>::infinity();
  if (count > 0) {
    const int64_t grid = (count + kBlock - 1) / kBlock;
    device.Launch(name, {grid, kBlock},
                  WorkEstimate{static_cast<double>(count), 4.0 * count,
                               static_cast<double>(grid)},
                  [&](BlockContext& b) {
                    float local = -std::numeric_limits<float>::infinity();
                    b.ForEachThread([&](int tid) {
                      const int64_t i = b.block_idx() * kBlock + tid;
                      if (i < count) local = std::max(local, b.Load(&values[i]));
                    });
                    b.AtomicMax(out, local);
                  });
  }
  return *out;
}

}  // namespace proclus::simt
