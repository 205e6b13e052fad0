#include "core/gpu_backend.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/macros.h"
#include "common/timer.h"
#include "core/subroutines.h"
#include "simt/atomic.h"
#include "simt/primitives.h"

namespace proclus::core {

namespace {

// Default CUDA block size (AssignPoints uses options.assign_block_dim,
// 128 by default, per the paper's kernel configurations).
constexpr int kBlock = 1024;
constexpr float kUnusedRadius = -1.0f;
constexpr float kInf = std::numeric_limits<float>::infinity();

// Writes a block's per-cluster member counts (block-shared `local`) to
// column block_idx of the k x (blocks + 1) count matrix that the scan step
// turns into slot offsets.
void StoreBlockCounts(simt::BlockContext& b, const int* local, int k,
                      int64_t blocks, int* counts) {
  for (int i = 0; i < k; ++i) {
    b.Store(&counts[int64_t{i} * (blocks + 1) + b.block_idx()],
            b.Load(&local[i]));
  }
}

}  // namespace

GpuBackend::GpuBackend(const data::Matrix& data, Strategy strategy,
                       simt::Device* device, GpuBackendOptions options)
    : data_(data), strategy_(strategy), device_(device), options_(options) {
  PROCLUS_CHECK(device_ != nullptr);
  PROCLUS_CHECK(options_.assign_block_dim >= 1);
  const int64_t n = data_.rows();
  const int64_t d = data_.cols();
  d_data_ = device_->Alloc<float>(n * d);
  device_->CopyToDevice(d_data_, data_.data(), n * d);
}

int64_t GpuBackend::BlocksFor(int64_t count, int block_dim) {
  return (count + block_dim - 1) / block_dim;
}

std::vector<int> GpuBackend::GreedySelect(const std::vector<int>& candidates,
                                          int64_t pool_size, int64_t first) {
  StopWatch watch;
  obs::TraceSpan span(trace_, "greedy_select", "backend");
  const int64_t count = static_cast<int64_t>(candidates.size());
  PROCLUS_CHECK(pool_size >= 1 && pool_size <= count);
  PROCLUS_CHECK(first >= 0 && first < count);
  const int64_t d = data_.cols();
  const float* data = d_data_;

  if (count > greedy_capacity_) {
    d_greedy_dist_ = device_->Alloc<float>(count);
    d_greedy_cand_ = device_->Alloc<int>(count);
    greedy_capacity_ = count;
  }
  if (d_max_dist_ == nullptr) {
    d_max_dist_ = device_->Alloc<float>(1);
    d_winner_ = device_->Alloc<int>(1);
  }
  device_->CopyToDevice(d_greedy_cand_, candidates.data(), count);
  float* gdist = d_greedy_dist_;
  const int* cand = d_greedy_cand_;
  float* max_dist = d_max_dist_;
  int* winner = d_winner_;

  std::vector<int> picked;
  picked.reserve(pool_size);
  picked.push_back(candidates[first]);

  const simt::LaunchConfig grid{BlocksFor(count, kBlock), kBlock};
  const simt::WorkEstimate dist_work{
      /*flops=*/3.0 * d * count,
      /*bytes=*/(8.0 * d + 8.0) * count,
      /*atomics=*/static_cast<double>(count)};

  // Algorithm 2 lines 1-5: distances to the first pick, tracking the max.
  const float zero = 0.0f;
  device_->CopyToDevice(max_dist, &zero, 1);
  const int first_id = candidates[first];
  device_->Launch("greedy_dist", grid, dist_work, [&](simt::BlockContext& b) {
    b.ForEachThread([&](int tid) {
      const int64_t c = b.block_idx() * kBlock + tid;
      if (c >= count) return;
      const float v = EuclideanDistance(
          b.LoadSpan(data + int64_t{first_id} * d, d),
          b.LoadSpan(data + int64_t{b.Load(&cand[c])} * d, d), d);
      b.Store(&gdist[c], v);
      b.AtomicMax(max_dist, v);
    });
  });
  greedy_distances_ += count;

  // Algorithm 2 lines 6-13: repeatedly take the point with the largest
  // min-distance to the chosen set (the argmax is resolved to the smallest
  // index via atomicMin, so ties match the CPU backend).
  for (int64_t i = 1; i < pool_size; ++i) {
    const int no_winner = std::numeric_limits<int>::max();
    device_->CopyToDevice(winner, &no_winner, 1);
    device_->Launch(
        "greedy_select", grid,
        simt::WorkEstimate{static_cast<double>(count), 8.0 * count, 1.0},
        [&](simt::BlockContext& b) {
          b.ForEachThread([&](int tid) {
            const int64_t c = b.block_idx() * kBlock + tid;
            if (c >= count) return;
            if (b.Load(&gdist[c]) == b.Load(max_dist)) {
              b.AtomicMin(winner, static_cast<int>(c));
            }
          });
        });
    int win = 0;
    device_->CopyToHost(&win, winner, 1);
    PROCLUS_CHECK(win >= 0 && win < count);
    picked.push_back(candidates[win]);
    if (i + 1 == pool_size) break;
    device_->CopyToDevice(max_dist, &zero, 1);
    const int medoid_id = candidates[win];
    device_->Launch("greedy_update", grid, dist_work,
                    [&](simt::BlockContext& b) {
                      b.ForEachThread([&](int tid) {
                        const int64_t c = b.block_idx() * kBlock + tid;
                        if (c >= count) return;
                        const float v = EuclideanDistance(
                            b.LoadSpan(data + int64_t{medoid_id} * d, d),
                            b.LoadSpan(data + int64_t{b.Load(&cand[c])} * d,
                                       d),
                            d);
                        if (v < b.Load(&gdist[c])) b.Store(&gdist[c], v);
                        b.AtomicMax(max_dist, b.Load(&gdist[c]));
                      });
                    });
    greedy_distances_ += count;
  }
  phases_.greedy += watch.ElapsedSeconds();
  return picked;
}

void GpuBackend::Setup(const ProclusParams& params,
                       const std::vector<int>& m_ids) {
  const int64_t n = data_.rows();
  const int64_t d = data_.cols();
  const int k = params.k;
  const bool same_pool = (m_ids == m_ids_);
  params_ = params;
  m_ids_ = m_ids;
  pool_size_ = static_cast<int64_t>(m_ids.size());

  // All iteration memory is allocated here, up-front, and reused for every
  // iteration (and across runs when the pool is unchanged).
  const int64_t dist_rows =
      strategy_ == Strategy::kFast ? pool_size_ : int64_t{k};
  if (dist_rows > dist_rows_capacity_) {
    d_dist_ = device_->Alloc<float>(dist_rows * n);
    d_h_ = device_->Alloc<double>(dist_rows * d);
    d_l_size_ = device_->Alloc<int64_t>(dist_rows);
    dist_rows_capacity_ = dist_rows;
  } else if (strategy_ != Strategy::kFast) {
    // Per-slot caches never survive a new run.
    device_->Memset(d_h_, 0, static_cast<size_t>(dist_rows) * d * 8);
    device_->Memset(d_l_size_, 0, static_cast<size_t>(dist_rows) * 8);
  }
  if (k > k_capacity_) {
    d_delta_ = device_->Alloc<float>(k);
    d_lo_ = device_->Alloc<float>(k);
    d_hi_ = device_->Alloc<float>(k);
    d_lambda_ = device_->Alloc<float>(k);
    d_dl_ = device_->Alloc<int>(static_cast<int64_t>(k) * n);
    d_dl_size_ = device_->Alloc<int>(k);
    d_c_ = device_->Alloc<int>(static_cast<int64_t>(k) * n);
    d_c_size_ = device_->Alloc<int>(k);
    d_sizes_ = device_->Alloc<int64_t>(k);
    d_x_ = device_->Alloc<double>(static_cast<int64_t>(k) * d);
    d_z_ = device_->Alloc<double>(static_cast<int64_t>(k) * d);
    d_mcur_ids_ = device_->Alloc<int>(k);
    d_slot_rows_ = device_->Alloc<int>(k);
    d_rows_scratch_ = device_->Alloc<int>(k);
    d_ids_scratch_ = device_->Alloc<int>(k);
    d_dims_flat_ = device_->Alloc<int>(static_cast<int64_t>(k) * d);
    d_dims_offset_ = device_->Alloc<int>(k + 1);
    d_sel_mask_ = device_->Alloc<char>(static_cast<int64_t>(k) * d);
    d_row_counts_ = device_->Alloc<int>(k);
    d_radii_ = device_->Alloc<float>(k);
    d_block_counts_ = device_->Alloc<int>(
        static_cast<int64_t>(k) *
        (BlocksFor(n, std::min(options_.assign_block_dim, kBlock)) + 1));
    d_cost_partials_ = device_->Alloc<double>(static_cast<int64_t>(k) * d);
    k_capacity_ = k;
  }
  if (d_assignment_ == nullptr) {
    d_assignment_ = device_->Alloc<int>(n);
    d_best_assignment_ = device_->Alloc<int>(n);
    d_cost_ = device_->Alloc<double>(1);
  }

  if (strategy_ == Strategy::kFast) {
    if (!same_pool) {
      dist_found_.assign(pool_size_, 0);
      prev_delta_.assign(pool_size_, kUnusedRadius);
      device_->Memset(d_h_, 0, static_cast<size_t>(pool_size_) * d * 8);
      device_->Memset(d_l_size_, 0, static_cast<size_t>(pool_size_) * 8);
    }
  } else if (strategy_ == Strategy::kFastStar) {
    prev_delta_.assign(k, kUnusedRadius);
    prev_mcur_.assign(k, -1);
  }
  mcur_ids_.assign(k, -1);
}

void GpuBackend::LaunchComputeDist(const std::vector<int>& rows,
                                   const std::vector<int>& ids) {
  if (rows.empty()) return;
  const int64_t n = data_.rows();
  const int64_t d = data_.cols();
  const int64_t m = static_cast<int64_t>(rows.size());
  device_->CopyToDevice(d_rows_scratch_, rows.data(), m);
  device_->CopyToDevice(d_ids_scratch_, ids.data(), m);
  const float* data = d_data_;
  float* dist = d_dist_;
  const int* d_rows = d_rows_scratch_;
  const int* d_ids = d_ids_scratch_;
  const int64_t bpn = BlocksFor(n, kBlock);
  device_->Launch(
      "compute_dist", {m * bpn, kBlock},
      simt::WorkEstimate{3.0 * d * n * m, (4.0 * d + 4.0) * n * m, 0.0},
      [&, n, d](simt::BlockContext& b) {
        const int64_t r = b.block_idx() / bpn;
        const int64_t pb = b.block_idx() % bpn;
        const int row = b.Load(&d_rows[r]);
        const float* medoid =
            b.LoadSpan(data + int64_t{b.Load(&d_ids[r])} * d, d);
        b.ForEachThread([&](int tid) {
          const int64_t p = pb * kBlock + tid;
          if (p >= n) return;
          b.Store(&dist[int64_t{row} * n + p],
                  EuclideanDistance(medoid, b.LoadSpan(data + p * d, d), d));
        });
      });
  euclidean_distances_ += m * n;
}

IterationOutput GpuBackend::Iterate(const std::vector<int>& mcur_midx) {
  const int64_t n = data_.rows();
  const int64_t d = data_.cols();
  const int k = params_.k;
  PROCLUS_CHECK(static_cast<int>(mcur_midx.size()) == k);
  StopWatch watch;
  obs::TraceSpan dist_span(trace_, "compute_distances", "backend");

  // Slot -> dist-row map and data ids of the current medoids.
  std::vector<int> slot_rows(k);
  for (int i = 0; i < k; ++i) {
    slot_rows[i] = strategy_ == Strategy::kFast ? mcur_midx[i] : i;
    mcur_ids_[i] = m_ids_[mcur_midx[i]];
  }
  device_->CopyToDevice(d_slot_rows_, slot_rows.data(), k);
  device_->CopyToDevice(d_mcur_ids_, mcur_ids_.data(), k);

  // --- ComputeL (Algorithm 3) ----------------------------------------------
  // 1. Distances: only the rows this strategy cannot reuse.
  std::vector<int> rows_to_compute;
  std::vector<int> ids_to_compute;
  std::vector<int> reset_slots;
  switch (strategy_) {
    case Strategy::kBaseline:
      for (int i = 0; i < k; ++i) {
        rows_to_compute.push_back(i);
        ids_to_compute.push_back(mcur_ids_[i]);
      }
      break;
    case Strategy::kFast:
      for (int i = 0; i < k; ++i) {
        const int midx = mcur_midx[i];
        if (!dist_found_[midx]) {
          rows_to_compute.push_back(midx);
          ids_to_compute.push_back(mcur_ids_[i]);
        }
      }
      break;
    case Strategy::kFastStar:
      for (int i = 0; i < k; ++i) {
        if (prev_mcur_[i] != mcur_midx[i]) {
          rows_to_compute.push_back(i);
          ids_to_compute.push_back(mcur_ids_[i]);
          reset_slots.push_back(i);
          prev_delta_[i] = kUnusedRadius;
          prev_mcur_[i] = mcur_midx[i];
        }
      }
      break;
  }
  LaunchComputeDist(rows_to_compute, ids_to_compute);
  if (strategy_ == Strategy::kFast) {
    // The DistFound flags are set after the distance kernel, in a separate
    // step, mirroring §4.2's separate flag kernel.
    for (const int midx : rows_to_compute) dist_found_[midx] = 1;
  }
  if (!reset_slots.empty()) {
    // FAST*: reset the H bookkeeping of replaced slots.
    device_->CopyToDevice(d_rows_scratch_, reset_slots.data(),
                          static_cast<int64_t>(reset_slots.size()));
    const int* d_rows = d_rows_scratch_;
    double* h = d_h_;
    int64_t* l_size = d_l_size_;
    device_->Launch(
        "reset_h",
        {static_cast<int64_t>(reset_slots.size()),
         static_cast<int>(std::min<int64_t>(d, kBlock))},
        simt::WorkEstimate{0.0, 8.0 * d * reset_slots.size(), 0.0},
        [&, d](simt::BlockContext& b) {
          const int row = b.Load(&d_rows[b.block_idx()]);
          b.ForEachThreadStrided(
              d, [&](int64_t j) { b.Store(&h[int64_t{row} * d + j], 0.0); });
          b.Store(&l_size[row], int64_t{0});
        });
  }

  // 2. Radii: distance to the nearest other medoid (Algorithm 3 lines 4-7).
  // The independent bookkeeping zero-fill (evaluate's per-block partial
  // costs, which blocks of empty clusters leave untouched) is issued
  // alongside; with streams enabled it overlaps the radius computation
  // (§5.4's suggestion for the poorly utilized tiny kernels).
  {
    float* delta = d_delta_;
    const float* dist = d_dist_;
    const int* srows = d_slot_rows_;
    const int* ids = d_mcur_ids_;
    if (options_.use_streams) device_->BeginConcurrentRegion(2);
    simt::Fill(*device_, "fill_delta", delta, k, kInf);
    device_->Launch(
        "compute_delta", {k, std::max(k, 1)},
        simt::WorkEstimate{1.0 * k * k, 4.0 * k * k,
                           static_cast<double>(k) * k},
        [&, n, k](simt::BlockContext& b) {
          const int64_t i = b.block_idx();
          b.ForEachThread([&](int tid) {
            if (tid >= k || tid == i) return;
            b.AtomicMin(&delta[i],
                        b.Load(&dist[int64_t{b.Load(&srows[i])} * n +
                                     b.Load(&ids[tid])]));
          });
        });
    if (options_.use_streams) device_->SetStream(1);
    simt::Fill(*device_, "fill_cost_partials", d_cost_partials_,
               static_cast<int64_t>(k) * params_.l, 0.0);
    if (options_.use_streams) device_->EndConcurrentRegion();
  }
  std::vector<float> delta_host(k);
  device_->CopyToHost(delta_host.data(), d_delta_, k);

  // 3. Delta-L bands (Theorem 3.1). The baseline always rebuilds the full
  // sphere ((-1, delta]); FAST/FAST* only scan the band between the previous
  // and the current radius.
  std::vector<float> lo(k), hi(k), lambda(k);
  for (int i = 0; i < k; ++i) {
    float prev = kUnusedRadius;
    if (strategy_ == Strategy::kFast) {
      prev = prev_delta_[mcur_midx[i]];
    } else if (strategy_ == Strategy::kFastStar) {
      prev = prev_delta_[i];
    }
    lo[i] = std::min(prev, delta_host[i]);
    hi[i] = std::max(prev, delta_host[i]);
    lambda[i] = delta_host[i] >= prev ? 1.0f : -1.0f;
    if (strategy_ == Strategy::kFast) {
      prev_delta_[mcur_midx[i]] = delta_host[i];
    } else if (strategy_ == Strategy::kFastStar) {
      prev_delta_[i] = delta_host[i];
    }
  }
  device_->CopyToDevice(d_lo_, lo.data(), k);
  device_->CopyToDevice(d_hi_, hi.data(), k);
  device_->CopyToDevice(d_lambda_, lambda.data(), k);
  // Count -> scan -> stable scatter, so each list is in ascending point
  // order whatever order the blocks run in: every block compacts its
  // in-band points into its own stretch of a staging row and counts them;
  // the scan turns the counts into slot offsets (and dl_size); the scatter
  // moves each block's points to its offset. The staging rows live in c,
  // which is dead until assign_points rewrites it.
  {
    int* dl = d_dl_;
    int* stage = d_c_;
    int* counts = d_block_counts_;
    const float* dist = d_dist_;
    const int* srows = d_slot_rows_;
    const float* dlo = d_lo_;
    const float* dhi = d_hi_;
    const int64_t bpn = BlocksFor(n, kBlock);
    // Assumed in-band (appended) fraction of the k*n points, for pricing.
    const double appended = 0.1 * k * n;
    device_->Launch(
        "build_delta_l", {static_cast<int64_t>(k) * bpn, kBlock},
        simt::WorkEstimate{2.0 * k * n, 4.0 * k * n + 4.0 * appended +
                                            4.0 * k * bpn,
                           appended},
        [&, n](simt::BlockContext& b) {
          const int64_t i = b.block_idx() / bpn;
          const int64_t pb = b.block_idx() % bpn;
          const float band_lo = b.Load(&dlo[i]);
          const float band_hi = b.Load(&dhi[i]);
          const int64_t row = b.Load(&srows[i]);
          const int64_t base = pb * kBlock;
          const float* drow = b.LoadSpan(
              dist + row * n + base, std::min<int64_t>(kBlock, n - base));
          int* out = stage + i * n + base;
          int* count = b.Shared<int>(1);
          b.ForEachThread([&](int tid) {
            const int64_t p = base + tid;
            if (p >= n) return;
            const float v = drow[tid];
            if (v > band_lo && v <= band_hi) {
              b.Store(&out[b.AtomicInc(count)], static_cast<int>(p));
            }
          });
          b.Store(&counts[i * (bpn + 1) + pb], b.Load(count));
        });
    simt::ExclusiveScanRows(*device_, "build_delta_l_scan", counts, k, bpn,
                            d_dl_size_);
    device_->Launch(
        "build_delta_l_scatter", {static_cast<int64_t>(k) * bpn, kBlock},
        simt::WorkEstimate{0.0, 8.0 * appended + 8.0 * k * bpn, 0.0},
        [&, n](simt::BlockContext& b) {
          const int64_t i = b.block_idx() / bpn;
          const int64_t pb = b.block_idx() % bpn;
          const int first = b.Load(&counts[i * (bpn + 1) + pb]);
          const int size = b.Load(&counts[i * (bpn + 1) + pb + 1]) - first;
          const int* src = b.LoadSpan(stage + i * n + pb * kBlock, size);
          b.ForEachThreadStrided(size, [&](int64_t t) {
            b.Store(&dl[i * n + first + t], src[t]);
          });
        });
    l_points_scanned_ += static_cast<int64_t>(k) * n;
  }
  dist_span.End();
  phases_.compute_distances += watch.ElapsedSeconds();
  watch.Restart();
  obs::TraceSpan dims_span(trace_, "find_dimensions", "backend");

  // --- FindDimensions (Algorithm 4 / §4.2) ----------------------------------
  {
    const float* data = d_data_;
    const int* dl = d_dl_;
    const int* dl_size = d_dl_size_;
    const int* srows = d_slot_rows_;
    const int* ids = d_mcur_ids_;
    const float* dlambda = d_lambda_;
    double* x = d_x_;
    if (strategy_ == Strategy::kBaseline) {
      // GPU-PROCLUS: X directly from the (full) sphere lists.
      device_->Launch(
          "compute_x_direct", {static_cast<int64_t>(k) * d, 256},
          simt::WorkEstimate{3.0 * n * d, 4.0 * n * d, 1.0 * k * d},
          [&, n, d](simt::BlockContext& b) {
            const int64_t i = b.block_idx() / d;
            const int64_t j = b.block_idx() % d;
            const int size = b.Load(&dl_size[i]);
            const float mj = b.Load(&data[int64_t{b.Load(&ids[i])} * d + j]);
            const int* sphere = b.LoadSpan(dl + i * n, size);
            double sum = 0.0;
            b.ForEachThreadStrided(size, [&](int64_t idx) {
              const int64_t p = sphere[idx];
              sum += std::abs(static_cast<double>(b.Load(&data[p * d + j])) -
                              static_cast<double>(mj));
            });
            b.Store(&x[i * d + j], sum / static_cast<double>(size));
          });
    } else {
      // GPU-FAST / GPU-FAST*: update H from Delta-L (Theorem 3.2), update
      // |L|, then compute X in a separate kernel (§4.2).
      double* h = d_h_;
      int64_t* l_size = d_l_size_;
      device_->Launch(
          "update_h", {static_cast<int64_t>(k) * d, 256},
          simt::WorkEstimate{3.0 * n * d * 0.3, 4.0 * n * d * 0.3,
                             1.0 * k * d},
          [&, n, d](simt::BlockContext& b) {
            const int64_t i = b.block_idx() / d;
            const int64_t j = b.block_idx() % d;
            const int size = b.Load(&dl_size[i]);
            const int64_t row = b.Load(&srows[i]);
            const float mj = b.Load(&data[int64_t{b.Load(&ids[i])} * d + j]);
            const int* sphere = b.LoadSpan(dl + i * n, size);
            double sum = 0.0;
            b.ForEachThreadStrided(size, [&](int64_t idx) {
              const int64_t p = sphere[idx];
              sum += std::abs(static_cast<double>(b.Load(&data[p * d + j])) -
                              static_cast<double>(mj));
            });
            b.Store(&h[row * d + j],
                    b.Load(&h[row * d + j]) +
                        static_cast<double>(b.Load(&dlambda[i])) * sum);
          });
      device_->Launch("update_l_size", {1, std::max(k, 1)},
                      simt::WorkEstimate{1.0 * k, 16.0 * k, 0.0},
                      [&](simt::BlockContext& b) {
                        b.ForEachThread([&](int tid) {
                          if (tid >= k) return;
                          const int row = b.Load(&srows[tid]);
                          b.Store(&l_size[row],
                                  b.Load(&l_size[row]) +
                                      static_cast<int64_t>(
                                          b.Load(&dlambda[tid])) *
                                          b.Load(&dl_size[tid]));
                        });
                      });
      device_->Launch(
          "compute_x", {k, static_cast<int>(std::min<int64_t>(d, kBlock))},
          simt::WorkEstimate{1.0 * k * d, 16.0 * k * d, 0.0},
          [&, d](simt::BlockContext& b) {
            const int64_t i = b.block_idx();
            const int64_t row = b.Load(&srows[i]);
            b.ForEachThreadStrided(d, [&](int64_t j) {
              b.Store(&x[i * d + j],
                      b.Load(&h[row * d + j]) /
                          static_cast<double>(b.Load(&l_size[row])));
            });
          });
    }
  }
  std::vector<int> dims_flat;
  std::vector<int> dims_offset;
  PickDimensions(&dims_flat, &dims_offset);
  dims_span.End();
  phases_.find_dimensions += watch.ElapsedSeconds();
  watch.Restart();

  // --- AssignPoints (Algorithm 5) -------------------------------------------
  obs::TraceSpan assign_span(trace_, "assign_points", "backend");
  LaunchAssign(/*with_outliers=*/false);
  assign_span.End();
  phases_.assign_points += watch.ElapsedSeconds();
  watch.Restart();

  // --- EvaluateClusters (Algorithm 6) ----------------------------------------
  obs::TraceSpan eval_span(trace_, "evaluate", "backend");
  IterationOutput out;
  // The partial costs were zeroed in the bookkeeping region above.
  out.cost = LaunchEvaluate(n, &out.cluster_sizes, /*zero_partials=*/false);
  eval_span.End();
  phases_.evaluate += watch.ElapsedSeconds();
  return out;
}

std::vector<std::vector<int>> GpuBackend::PickDimensions(
    std::vector<int>* dims_flat, std::vector<int>* dims_offset) {
  const int64_t d = data_.cols();
  const int k = params_.k;
  const int l = params_.l;
  std::vector<std::vector<int>> dims;
  if (!options_.device_dim_selection) {
    const std::vector<double> z = ComputeZOnDevice();
    dims = SelectDimensions(z, k, d, l);
    dims_flat->clear();
    dims_offset->assign(k + 1, 0);
    for (int i = 0; i < k; ++i) {
      (*dims_offset)[i] = static_cast<int>(dims_flat->size());
      dims_flat->insert(dims_flat->end(), dims[i].begin(), dims[i].end());
    }
    (*dims_offset)[k] = static_cast<int>(dims_flat->size());
    UploadDims(*dims_flat, *dims_offset);
    return dims;
  }

  // Device-side selection (Algorithm 4 lines 15-16): Z never leaves the
  // device; the greedy pick runs in three small kernels whose tie-breaks
  // ((Z, medoid, dimension) ascending) match the host SelectDimensions
  // exactly.
  {
    LaunchComputeZ();
    const double* z = d_z_;
    char* mask = d_sel_mask_;
    int* row_counts = d_row_counts_;
    simt::Fill(*device_, "fill_sel_mask", mask, static_cast<int64_t>(k) * d,
               char{0});
    // Two smallest Z per medoid, one block per medoid.
    device_->Launch(
        "select_mandatory", {k, 1},
        simt::WorkEstimate{4.0 * k * d, 8.0 * k * d, 0.0},
        [&, d](simt::BlockContext& b) {
          const int64_t i = b.block_idx();
          const double* row = b.LoadSpan(z + i * d, d);
          int64_t first = 0;
          for (int64_t j = 1; j < d; ++j) {
            if (row[j] < row[first]) first = j;
          }
          int64_t second = first == 0 ? 1 : 0;
          for (int64_t j = 0; j < d; ++j) {
            if (j == first) continue;
            if (row[j] < row[second]) second = j;
          }
          b.Store(&mask[i * d + first], char{1});
          b.Store(&mask[i * d + second], char{1});
          b.Store(&row_counts[i], 2);
        });
    // Globally smallest remaining entries until k*l in total; serial greedy
    // in one block (k*d is tiny).
    const int extras = k * l - 2 * k;
    device_->Launch(
        "select_extras", {1, 1},
        simt::WorkEstimate{2.0 * extras * k * d, 8.0 * extras * k * d, 0.0},
        [&, d, k, extras](simt::BlockContext& b) {
          const int64_t kd = static_cast<int64_t>(k) * d;
          const double* zs = b.LoadSpan(z, kd);
          for (int e = 0; e < extras; ++e) {
            int64_t best = -1;
            for (int64_t idx = 0; idx < kd; ++idx) {
              if (b.Load(&mask[idx])) continue;
              if (best < 0 || zs[idx] < zs[best]) best = idx;
            }
            b.Store(&mask[best], char{1});
            b.Store(&row_counts[best / d], b.Load(&row_counts[best / d]) + 1);
          }
        });
    // Flatten into dims_flat / dims_offset on the device.
    int* flat = d_dims_flat_;
    int* offsets = d_dims_offset_;
    device_->Launch(
        "build_dims", {1, 1},
        simt::WorkEstimate{1.0 * k * d, 5.0 * k * d, 0.0},
        [&, d, k](simt::BlockContext& b) {
          int offset = 0;
          for (int i = 0; i < k; ++i) {
            b.Store(&offsets[i], offset);
            for (int64_t j = 0; j < d; ++j) {
              if (b.Load(&mask[int64_t{i} * d + j])) {
                b.Store(&flat[offset++], static_cast<int>(j));
              }
            }
          }
          b.Store(&offsets[k], offset);
        });
  }
  // Only the selected ids cross the bus, for the driver's bookkeeping.
  dims_offset->assign(k + 1, 0);
  device_->CopyToHost(dims_offset->data(), d_dims_offset_, k + 1);
  total_dims_ = (*dims_offset)[k];
  dims_flat->assign(total_dims_, 0);
  device_->CopyToHost(dims_flat->data(), d_dims_flat_, total_dims_);
  dims.resize(k);
  for (int i = 0; i < k; ++i) {
    dims[i].assign(dims_flat->begin() + (*dims_offset)[i],
                   dims_flat->begin() + (*dims_offset)[i + 1]);
  }
  return dims;
}

void GpuBackend::LaunchComputeZ() {
  const int64_t d = data_.cols();
  const int k = params_.k;
  const double* x = d_x_;
  double* z = d_z_;
  // Algorithm 4 lines 7-14, with the arithmetic sequenced exactly like the
  // host ComputeZ so both backends produce bit-identical Z.
  device_->Launch(
      "compute_z", {k, static_cast<int>(std::min<int64_t>(d, kBlock))},
      simt::WorkEstimate{6.0 * k * d, 24.0 * k * d, 2.0 * k},
      [&, d](simt::BlockContext& b) {
        const int64_t i = b.block_idx();
        double* y = b.Shared<double>(1);
        double* sigma = b.Shared<double>(1);
        // The strided accumulations must be atomic: on a real GPU several
        // threads of the phase fold into the same shared word concurrently
        // (simtcheck flags the plain += form as an intra-block race).
        b.ForEachThreadStrided(
            d, [&](int64_t j) { b.AtomicAdd(y, b.Load(&x[i * d + j])); });
        b.Sync();
        b.Store(y, b.Load(y) / static_cast<double>(d));
        b.ForEachThreadStrided(d, [&](int64_t j) {
          const double diff = b.Load(&x[i * d + j]) - b.Load(y);
          b.AtomicAdd(sigma, diff * diff);
        });
        b.Sync();
        b.Store(sigma,
                std::sqrt(b.Load(sigma) / static_cast<double>(d - 1)));
        b.Sync();
        b.ForEachThreadStrided(d, [&](int64_t j) {
          const double s = b.Load(sigma);
          b.Store(&z[i * d + j],
                  s > 0.0 ? (b.Load(&x[i * d + j]) - b.Load(y)) / s : 0.0);
        });
      });
}

std::vector<double> GpuBackend::ComputeZOnDevice() {
  LaunchComputeZ();
  const int64_t d = data_.cols();
  const int k = params_.k;
  std::vector<double> z_host(static_cast<size_t>(k) * d);
  device_->CopyToHost(z_host.data(), d_z_, static_cast<int64_t>(k) * d);
  return z_host;
}

void GpuBackend::UploadDims(const std::vector<int>& dims_flat,
                            const std::vector<int>& dims_offset) {
  device_->CopyToDevice(d_dims_flat_, dims_flat.data(),
                        static_cast<int64_t>(dims_flat.size()));
  device_->CopyToDevice(d_dims_offset_, dims_offset.data(),
                        static_cast<int64_t>(dims_offset.size()));
  total_dims_ = dims_offset.back();
}

void GpuBackend::LaunchAssign(bool with_outliers) {
  const int64_t n = data_.rows();
  const int64_t d = data_.cols();
  const int k = params_.k;
  const int assign_block = options_.assign_block_dim;
  const float* data = d_data_;
  const int* ids = d_mcur_ids_;
  const int* dims_flat = d_dims_flat_;
  const int* dims_offset = d_dims_offset_;
  const float* radii = d_radii_;
  int* assignment = d_assignment_;
  int* counts = d_block_counts_;
  const int64_t bpn = BlocksFor(n, assign_block);
  device_->Launch(
      "assign_points", {bpn, assign_block},
      simt::WorkEstimate{2.0 * n * k * params_.l,
                         4.0 * n * (k * params_.l + 1.0) + 4.0 * k * bpn,
                         1.0 * n},
      [&, n, with_outliers, assign_block](simt::BlockContext& b) {
        // Block-invariant inputs are span-checked once per block so the
        // per-point loop below runs on raw pointers (the medoid rows are
        // the hot ones: k row spans per block instead of per point).
        const int* offs = b.LoadSpan(dims_offset, k + 1);
        const int* dims_all = b.LoadSpan(dims_flat, offs[k]);
        const int* mids = b.LoadSpan(ids, k);
        const float* rads = with_outliers ? b.LoadSpan(radii, k) : nullptr;
        constexpr int kMaxHoistedK = 64;
        const float* medoid_rows[kMaxHoistedK];
        const bool hoisted = k <= kMaxHoistedK;
        if (hoisted) {
          for (int i = 0; i < k; ++i) {
            medoid_rows[i] = b.LoadSpan(data + int64_t{mids[i]} * d, d);
          }
        }
        int* members = b.Shared<int>(k);
        b.ForEachThread([&](int tid) {
          const int64_t p = b.block_idx() * assign_block + tid;
          if (p >= n) return;
          const float* point = b.LoadSpan(data + p * d, d);
          float best = kInf;
          int arg = 0;
          bool within = false;
          for (int i = 0; i < k; ++i) {
            const int off = offs[i];
            const int ndims = offs[i + 1] - off;
            const float* medoid =
                hoisted ? medoid_rows[i]
                        : b.LoadSpan(data + int64_t{mids[i]} * d, d);
            const float sd =
                SegmentalDistance(point, medoid, dims_all + off, ndims);
            if (sd < best) {
              best = sd;
              arg = i;
            }
            if (with_outliers && sd <= rads[i]) within = true;
          }
          const int cluster = (with_outliers && !within) ? kOutlier : arg;
          b.Store(&assignment[p], cluster);
          if (cluster != kOutlier) b.AtomicInc(&members[cluster]);
        });
        StoreBlockCounts(b, members, k, bpn, counts);
      });
  segmental_distances_ += n * k;
  ScanAndScatterClusters(assignment, assign_block, "assign_points_scan",
                         "assign_points_scatter");
}

void GpuBackend::ScanAndScatterClusters(const int* labels, int block_dim,
                                        const char* scan_name,
                                        const char* scatter_name) {
  const int64_t n = data_.rows();
  const int k = params_.k;
  const int64_t bpn = BlocksFor(n, block_dim);
  int* counts = d_block_counts_;
  int* c = d_c_;
  simt::ExclusiveScanRows(*device_, scan_name, counts, k, bpn, d_c_size_);
  device_->Launch(
      scatter_name, {bpn, block_dim},
      simt::WorkEstimate{0.0, 8.0 * n + 4.0 * k * bpn, 1.0 * n},
      [&, n, k, bpn, block_dim](simt::BlockContext& b) {
        // next[i]: the block's next slot in cluster i's list.
        int* next = b.Shared<int>(k);
        for (int i = 0; i < k; ++i) {
          b.Store(&next[i],
                  b.Load(&counts[int64_t{i} * (bpn + 1) + b.block_idx()]));
        }
        b.ForEachThread([&](int tid) {
          const int64_t p = b.block_idx() * block_dim + tid;
          if (p >= n) return;
          const int cluster = b.Load(&labels[p]);
          if (cluster == kOutlier) return;
          b.Store(&c[int64_t{cluster} * n + b.AtomicInc(&next[cluster])],
                  static_cast<int>(p));
        });
      });
}

double GpuBackend::LaunchEvaluate(int64_t assigned,
                                  std::vector<int64_t>* sizes,
                                  bool zero_partials) {
  const int64_t n = data_.rows();
  const int64_t d = data_.cols();
  const int k = params_.k;
  const float* data = d_data_;
  const int* c = d_c_;
  const int* c_size = d_c_size_;
  const int* dims_flat = d_dims_flat_;
  const int* dims_offset = d_dims_offset_;
  double* partials = d_cost_partials_;
  if (zero_partials) {
    simt::Fill(*device_, "fill_cost_partials", partials, total_dims_, 0.0);
  }
  // One block per selected (cluster, dimension) pair; the centroid
  // coordinate lives in shared memory (Algorithm 6). Each block writes its
  // share of the cost to partials[block]; evaluate_sum adds them up in
  // block-index order.
  device_->Launch(
      "evaluate", {total_dims_, 256},
      simt::WorkEstimate{4.0 * n * params_.l,
                         8.0 * n * params_.l + 8.0 * total_dims_, 0.0},
      [&, n, d, k, assigned](simt::BlockContext& b) {
        // Resolve the (cluster, dim) pair of this block.
        int i = 0;
        while (i + 1 < k && b.block_idx() >=
                                static_cast<int64_t>(
                                    b.Load(&dims_offset[i + 1]))) {
          ++i;
        }
        const int j = b.Load(&dims_flat[b.block_idx()]);
        const int ndims =
            b.Load(&dims_offset[i + 1]) - b.Load(&dims_offset[i]);
        const int size = b.Load(&c_size[i]);
        if (size == 0) return;
        // The member list of cluster i is block-invariant: one span check,
        // raw gathers below.
        const int* members = b.LoadSpan(c + int64_t{i} * n, size);
        double* mu = b.Shared<double>(1);
        // Atomic for the same reason as compute_z: concurrent threads of
        // one phase fold into the same shared word.
        b.ForEachThreadStrided(size, [&](int64_t idx) {
          const int64_t p = members[idx];
          b.AtomicAdd(mu, static_cast<double>(b.Load(&data[p * d + j])));
        });
        b.Sync();
        b.Store(mu, b.Load(mu) / static_cast<double>(size));
        const double mean = b.Load(mu);
        double dev = 0.0;
        b.ForEachThreadStrided(size, [&](int64_t idx) {
          const int64_t p = members[idx];
          dev += std::abs(static_cast<double>(b.Load(&data[p * d + j])) -
                          mean);
        });
        b.Store(&partials[b.block_idx()],
                dev / (static_cast<double>(ndims) *
                       static_cast<double>(assigned)));
      });
  simt::SumInOrder(*device_, "evaluate_sum", partials, total_dims_, d_cost_);
  double cost_host = 0.0;
  device_->CopyToHost(&cost_host, d_cost_, 1);
  if (sizes != nullptr) {
    std::vector<int> sizes32(k);
    device_->CopyToHost(sizes32.data(), d_c_size_, k);
    sizes->assign(sizes32.begin(), sizes32.end());
  }
  return cost_host;
}

void GpuBackend::SaveBest() {
  const int64_t n = data_.rows();
  const int* src = d_assignment_;
  int* dst = d_best_assignment_;
  device_->Launch("save_best", {BlocksFor(n, kBlock), kBlock},
                  simt::WorkEstimate{0.0, 8.0 * n, 0.0},
                  [&, n](simt::BlockContext& b) {
                    b.ForEachThread([&](int tid) {
                      const int64_t p = b.block_idx() * kBlock + tid;
                      if (p < n) b.Store(&dst[p], b.Load(&src[p]));
                    });
                  });
}

void GpuBackend::Refine(const std::vector<int>& mbest_midx,
                        ProclusResult* result) {
  StopWatch watch;
  obs::TraceSpan trace_span(trace_, "refine", "backend");
  const int64_t n = data_.rows();
  const int64_t d = data_.cols();
  const int k = params_.k;
  for (int i = 0; i < k; ++i) mcur_ids_[i] = m_ids_[mbest_midx[i]];
  device_->CopyToDevice(d_mcur_ids_, mcur_ids_.data(), k);

  const float* data = d_data_;
  const int* ids = d_mcur_ids_;
  const int* c = d_c_;
  const int* c_size = d_c_size_;
  const int* best = d_best_assignment_;

  // L <- CBest: rebuild the cluster lists from the best assignment (count,
  // then the same scan and stable scatter as assign_points).
  {
    int* counts = d_block_counts_;
    const int64_t bpn = BlocksFor(n, kBlock);
    device_->Launch("build_best_clusters", {bpn, kBlock},
                    simt::WorkEstimate{0.0, 4.0 * n + 4.0 * k * bpn,
                                       1.0 * n},
                    [&, n, k, bpn](simt::BlockContext& b) {
                      int* members = b.Shared<int>(k);
                      b.ForEachThread([&](int tid) {
                        const int64_t p = b.block_idx() * kBlock + tid;
                        if (p < n) b.AtomicInc(&members[b.Load(&best[p])]);
                      });
                      StoreBlockCounts(b, members, k, bpn, counts);
                    });
    ScanAndScatterClusters(best, kBlock, "build_best_clusters_scan",
                           "build_best_clusters_scatter");
  }

  // X over the best clusters.
  double* x = d_x_;
  device_->Launch(
      "refine_x", {static_cast<int64_t>(k) * d, 256},
      simt::WorkEstimate{3.0 * n * d, 4.0 * n * d, 0.0},
      [&, n, d](simt::BlockContext& b) {
        const int64_t i = b.block_idx() / d;
        const int64_t j = b.block_idx() % d;
        const int size = b.Load(&c_size[i]);
        if (size == 0) {
          b.Store(&x[i * d + j], 0.0);
          return;
        }
        const float mj = b.Load(&data[int64_t{b.Load(&ids[i])} * d + j]);
        double sum = 0.0;
        b.ForEachThreadStrided(size, [&](int64_t idx) {
          const int64_t p = b.Load(&c[int64_t{i} * n + idx]);
          sum += std::abs(static_cast<double>(b.Load(&data[p * d + j])) -
                          static_cast<double>(mj));
        });
        b.Store(&x[i * d + j], sum / static_cast<double>(size));
      });
  l_points_scanned_ += n;

  std::vector<int> dims_flat;
  std::vector<int> dims_offset;
  result->dimensions = PickDimensions(&dims_flat, &dims_offset);

  // Outlier radii (RemoveOutliers, §4.1).
  {
    float* radii = d_radii_;
    const int* dflat = d_dims_flat_;
    const int* doff = d_dims_offset_;
    simt::Fill(*device_, "fill_radii", radii, k, kInf);
    device_->Launch(
        "compute_radii", {k, std::max(k, 1)},
        simt::WorkEstimate{2.0 * k * k * params_.l, 8.0 * k * k * params_.l,
                           static_cast<double>(k) * k},
        [&, d, k](simt::BlockContext& b) {
          const int64_t i = b.block_idx();
          const int off = b.Load(&doff[i]);
          const int ndims = b.Load(&doff[i + 1]) - off;
          const int* dims = b.LoadSpan(dflat + off, ndims);
          const float* mi =
              b.LoadSpan(data + int64_t{b.Load(&ids[i])} * d, d);
          b.ForEachThread([&](int tid) {
            if (tid >= k || tid == i) return;
            const float sd = SegmentalDistance(
                mi, b.LoadSpan(data + int64_t{b.Load(&ids[tid])} * d, d),
                dims, ndims);
            b.AtomicMin(&radii[i], sd);
          });
        });
  }

  LaunchAssign(/*with_outliers=*/true);
  std::vector<int64_t> sizes;
  {
    std::vector<int> sizes32(k);
    device_->CopyToHost(sizes32.data(), d_c_size_, k);
    sizes.assign(sizes32.begin(), sizes32.end());
  }
  int64_t assigned = 0;
  for (const int64_t s : sizes) assigned += s;
  result->refined_cost =
      assigned > 0
          ? LaunchEvaluate(assigned, nullptr, /*zero_partials=*/true)
          : 0.0;

  result->assignment.resize(n);
  device_->CopyToHost(result->assignment.data(), d_assignment_, n);
  phases_.refine += watch.ElapsedSeconds();
}

void GpuBackend::FillStats(RunStats* stats) const {
  stats->phases = phases_;
  stats->euclidean_distances = euclidean_distances_;
  stats->l_points_scanned = l_points_scanned_;
  stats->segmental_distances = segmental_distances_;
  stats->greedy_distances = greedy_distances_;
  stats->modeled_gpu_seconds = device_->modeled_seconds();
  stats->modeled_transfer_seconds =
      device_->perf_model().transfer_seconds();
  stats->device_peak_bytes = device_->peak_allocated_bytes();
  if (const simt::Sanitizer* sanitizer = device_->sanitizer()) {
    stats->sanitizer_findings = sanitizer->findings();
    stats->sanitizer_checked_accesses = sanitizer->checked_accesses();
    stats->sanitizer_reports =
        sanitizer->Reports(simt::Sanitizer::kMaxDetailedViolations);
  }
}

}  // namespace proclus::core
