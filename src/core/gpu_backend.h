#ifndef PROCLUS_CORE_GPU_BACKEND_H_
#define PROCLUS_CORE_GPU_BACKEND_H_

#include <cstdint>
#include <vector>

#include "core/backend.h"
#include "data/matrix.h"
#include "simt/device.h"

namespace proclus::core {

// Tunables of the GPU engine.
struct GpuBackendOptions {
  // Threads per block for AssignPoints. The paper uses 128 "to reduce
  // unnecessary synchronizations"; the block-size ablation bench sweeps
  // this.
  int assign_block_dim = 128;
  // Overlap the small independent bookkeeping kernels in concurrent streams
  // (§5.4 suggests this as an optimization for the poorly utilized tiny
  // kernels). Off by default, as in the paper.
  bool use_streams = false;
  // Run the greedy dimension pick (Algorithm 4 lines 15-16) on the device
  // instead of transferring Z to the host. Produces the identical selection
  // (same tie-breaks); only the k*l dimension ids cross the PCIe bus.
  bool device_dim_selection = false;
};

// GPU engine for GPU-PROCLUS / GPU-FAST-PROCLUS / GPU-FAST*-PROCLUS (§4),
// implemented as kernels on the simulated SIMT device (src/simt). The kernel
// decomposition follows Algorithms 2-6:
//
//   greedy_dist / greedy_select / greedy_update   (Algorithm 2)
//   compute_dist / compute_delta / build_delta_l  (Algorithm 3; FAST builds
//                                                  Delta-L instead of L)
//   update_h / update_l_size / compute_x          (§4.2 split kernels)
//   compute_z                                     (Algorithm 4 lines 7-14)
//   assign_points                                 (Algorithm 5)
//   evaluate                                      (Algorithm 6, fused
//                                                  centroid + cost)
//   save_best / build_best_clusters / refine_x /
//   compute_radii / assign_points                 (refinement phase)
//
// No result depends on block order, so the clustering is bit-identical at
// any host worker count. The point lists (build_delta_l, assign_points,
// build_best_clusters) are built count -> scan -> stable scatter, each
// followed by a `<name>_scan` and a `<name>_scatter` kernel, and evaluate's
// per-block costs are summed in block order by evaluate_sum.
//
// All device memory is allocated up-front from the device arena and reused
// across iterations, as the paper prescribes; Device::peak_allocated_bytes()
// yields the Fig. 3f space numbers. Dimension selection (the k*d-sized tail
// of FindDimensions) runs on the host from the transferred Z matrix; the
// transfer is priced by the PCIe model.
class GpuBackend : public Backend {
 public:
  // `data` and `device` must outlive the backend. The dataset is copied to
  // the device once, here.
  GpuBackend(const data::Matrix& data, Strategy strategy,
             simt::Device* device, GpuBackendOptions options = {});

  std::vector<int> GreedySelect(const std::vector<int>& candidates,
                                int64_t pool_size, int64_t first) override;
  void Setup(const ProclusParams& params,
             const std::vector<int>& m_ids) override;
  IterationOutput Iterate(const std::vector<int>& mcur_midx) override;
  void SaveBest() override;
  void Refine(const std::vector<int>& mbest_midx,
              ProclusResult* result) override;
  void FillStats(RunStats* stats) const override;
  void SetTrace(obs::TraceRecorder* trace) override { trace_ = trace; }

  Strategy strategy() const { return strategy_; }
  simt::Device* device() const { return device_; }

 private:
  // Number of 1024-thread blocks covering `count` items.
  static int64_t BlocksFor(int64_t count, int block_dim);

  // Launches compute_dist for the given (dist-row, medoid-data-id) pairs.
  void LaunchComputeDist(const std::vector<int>& rows,
                         const std::vector<int>& ids);

  // Launches the Z kernel for the current x_dev_ (Algorithm 4 lines 7-14).
  void LaunchComputeZ();

  // LaunchComputeZ plus a device-to-host transfer of Z.
  std::vector<double> ComputeZOnDevice();

  // Runs FindDimensions' selection tail. With host selection, transfers Z
  // and runs SelectDimensions on the host; with device selection, runs the
  // select_mandatory / select_extras / build_dims kernels and reads back
  // only the selected ids. Either way fills the flattened host arrays,
  // uploads them (host path) and returns the per-cluster dimension lists.
  std::vector<std::vector<int>> PickDimensions(std::vector<int>* dims_flat,
                                               std::vector<int>* dims_offset);

  // Copies the flattened dimension arrays to the device.
  void UploadDims(const std::vector<int>& dims_flat,
                  const std::vector<int>& dims_offset);

  // Launches assign_points and builds the cluster lists c / c_size from
  // it; when `with_outliers` is true, points outside every medoid's radius
  // (d_radii_) are assigned kOutlier and listed nowhere.
  void LaunchAssign(bool with_outliers);

  // Scan and stable scatter of the cluster lists: d_block_counts_ holds
  // each block's member count per cluster for `labels` split into blocks
  // of `block_dim` points; fills d_c_size_ and d_c_ (ascending point ids).
  void ScanAndScatterClusters(const int* labels, int block_dim,
                              const char* scan_name,
                              const char* scatter_name);

  // Launches evaluate over the cluster lists and returns the cost; fills
  // sizes. `zero_partials` zeroes the per-block partial costs first; pass
  // false when a stream region already did.
  double LaunchEvaluate(int64_t assigned, std::vector<int64_t>* sizes,
                        bool zero_partials);

  const data::Matrix& data_;
  const Strategy strategy_;
  simt::Device* device_;
  const GpuBackendOptions options_;

  // Run parameters.
  ProclusParams params_;
  std::vector<int> m_ids_;
  int64_t pool_size_ = 0;

  // Device buffers (allocated up-front; see Setup).
  float* d_data_ = nullptr;
  float* d_dist_ = nullptr;       // rows x n (rows = pool for FAST, else k)
  double* d_h_ = nullptr;         // rows x d
  int64_t* d_l_size_ = nullptr;   // rows
  float* d_delta_ = nullptr;      // k
  float* d_lo_ = nullptr;         // k
  float* d_hi_ = nullptr;         // k
  float* d_lambda_ = nullptr;     // k
  int* d_dl_ = nullptr;           // k x n   (Delta-L / L point lists)
  int* d_dl_size_ = nullptr;      // k
  int* d_c_ = nullptr;            // k x n   (cluster point lists)
  int* d_c_size_ = nullptr;       // k
  int64_t* d_sizes_ = nullptr;    // k (cluster sizes for the driver)
  double* d_x_ = nullptr;         // k x d
  double* d_z_ = nullptr;         // k x d
  int* d_assignment_ = nullptr;   // n
  int* d_best_assignment_ = nullptr;  // n
  double* d_cost_ = nullptr;      // 1
  int* d_mcur_ids_ = nullptr;     // k (data ids of current medoids)
  int* d_slot_rows_ = nullptr;    // k (dist row per current slot)
  int* d_rows_scratch_ = nullptr;  // k (rows for compute_dist)
  int* d_ids_scratch_ = nullptr;   // k (ids for compute_dist)
  int* d_dims_flat_ = nullptr;    // k x d
  int* d_dims_offset_ = nullptr;  // k + 1
  char* d_sel_mask_ = nullptr;    // k x d (device dimension selection)
  int* d_row_counts_ = nullptr;   // k
  float* d_radii_ = nullptr;      // k
  int* d_block_counts_ = nullptr;  // k x (blocks + 1) (count -> scan)
  double* d_cost_partials_ = nullptr;  // k x d (evaluate, per block)
  // Greedy scratch.
  float* d_greedy_dist_ = nullptr;
  int* d_greedy_cand_ = nullptr;
  int64_t greedy_capacity_ = 0;
  float* d_max_dist_ = nullptr;
  int* d_winner_ = nullptr;

  int64_t dist_rows_capacity_ = 0;
  int64_t k_capacity_ = 0;

  // Host mirrors for the FAST bookkeeping.
  std::vector<char> dist_found_;   // pool (FAST)
  std::vector<float> prev_delta_;  // pool (FAST) or k (FAST*)
  std::vector<int> prev_mcur_;     // k (FAST*) / slot->row map (FAST)
  std::vector<int> mcur_ids_;      // k
  int total_dims_ = 0;

  // Counters.
  int64_t euclidean_distances_ = 0;
  int64_t l_points_scanned_ = 0;
  int64_t segmental_distances_ = 0;
  int64_t greedy_distances_ = 0;
  PhaseSeconds phases_;
  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace proclus::core

#endif  // PROCLUS_CORE_GPU_BACKEND_H_
