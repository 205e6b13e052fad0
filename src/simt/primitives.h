#ifndef PROCLUS_SIMT_PRIMITIVES_H_
#define PROCLUS_SIMT_PRIMITIVES_H_

#include <algorithm>
#include <cstdint>

#include "simt/device.h"

namespace proclus::simt {

// Small library of device primitives built on Launch: value fills, iota,
// reductions and row scans. They are kernels like any other (recorded and
// priced by the performance model under the given name), which keeps host
// code honest — initializing device memory costs a launch, exactly as in
// CUDA.

// Fills values[0, count) with `value`.
template <typename T>
void Fill(Device& device, const char* name, T* values, int64_t count,
          T value) {
  if (count <= 0) return;
  const int block = static_cast<int>(
      std::min<int64_t>(count, device.properties().max_threads_per_block));
  const int64_t grid = (count + block - 1) / block;
  device.Launch(name, {grid, block},
                WorkEstimate{0.0, static_cast<double>(count) * sizeof(T), 0.0},
                [&](BlockContext& b) {
                  b.ForEachThread([&](int tid) {
                    const int64_t i = b.block_idx() * block + tid;
                    if (i < count) b.Store(&values[i], value);
                  });
                });
}

// values[i] = i for i in [0, count).
void Iota(Device& device, const char* name, int* values, int64_t count);

// Number of per-block partials ReduceSum writes for `count` values, i.e.
// the size its `partials` scratch must have.
int64_t ReducePartials(int64_t count);

// Deterministic device sum. The `name` kernel writes each block's sum
// (sequential within the block) to partials[block]; SumInOrder, launched
// as `<name>_sum`, then folds the partials in block-index order into *out,
// which is also returned. The
// result is bit-identical at any host worker count and block order.
double ReduceSum(Device& device, const char* name, const double* values,
                 int64_t count, double* partials, double* out);

// *out = ((0 + values[0]) + values[1]) + ...: one thread adds `count`
// values in index order. The second stage of every per-block-partial float
// reduction; `count` is a grid size, so the serial sum stays short.
void SumInOrder(Device& device, const char* name, const double* values,
                int64_t count, double* out);

// In-place exclusive prefix sum over each row of a rows x (cols + 1)
// row-major matrix: entry j of a row becomes the sum of its entries
// [0, j), and entry `cols` (ignored on input) becomes the row total, which
// is also written to totals[row]. This is the scan step of count -> scan
// -> scatter: a row holds per-block counts, and the result holds each
// block's first output slot in block-index order.
void ExclusiveScanRows(Device& device, const char* name, int* counts,
                       int64_t rows, int64_t cols, int* totals);

// Reduction to the minimum; result written to *out and returned.
float ReduceMin(Device& device, const char* name, const float* values,
                int64_t count, float* out);

// Reduction to the maximum; result written to *out and returned.
float ReduceMax(Device& device, const char* name, const float* values,
                int64_t count, float* out);

}  // namespace proclus::simt

#endif  // PROCLUS_SIMT_PRIMITIVES_H_
