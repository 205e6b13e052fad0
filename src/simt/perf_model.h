#ifndef PROCLUS_SIMT_PERF_MODEL_H_
#define PROCLUS_SIMT_PERF_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "simt/device_properties.h"

namespace proclus::simt {

// Total work performed by one kernel launch, supplied by the launch site.
// The simulator executes kernels functionally on the host; this estimate is
// what the analytical performance model prices to obtain "device time".
struct WorkEstimate {
  double flops = 0.0;    // arithmetic operations across all threads
  double bytes = 0.0;    // global-memory traffic across all threads
  // Serialized atomic updates across all threads: global atomics and the
  // slot reservations on a block's shared counters (a few hot addresses
  // per block serialize just the same).
  double atomics = 0.0;
};

// Occupancy figures in the style of NVIDIA Nsight Compute (paper §5.4).
struct OccupancyInfo {
  double theoretical = 0.0;  // limited by block size vs SM resources
  double achieved = 0.0;     // additionally limited by grid size
};

// Per-kernel accumulated statistics.
struct KernelRecord {
  std::string name;
  int64_t launches = 0;
  int64_t total_blocks = 0;
  int64_t total_threads = 0;
  double total_flops = 0.0;
  double total_bytes = 0.0;
  double total_atomics = 0.0;
  double modeled_seconds = 0.0;
  // Figures for the most recent launch:
  OccupancyInfo last_occupancy;
  double last_memory_throughput = 0.0;  // fraction of peak DRAM bandwidth
  double last_seconds = 0.0;
};

// Roofline-style analytical timing model for the simulated device.
//
//   time = launch_overhead
//        + max(flops / (peak_flops * achieved_occupancy),
//              bytes / peak_bandwidth)
//        + atomics * atomic_cost_cycles / clock / sm_count
//
// Occupancy follows the CUDA occupancy calculator: a block of `block_dim`
// threads occupies ceil(block_dim / warp_size) warps; an SM hosts at most
// max_warps_per_sm warps and max_blocks_per_sm blocks. The achieved
// occupancy further accounts for grids too small to fill every SM — this is
// what makes tiny kernels (e.g. the k x k delta computation of Algorithm 3)
// score the low utilization the paper reports in §5.4.
class PerfModel {
 public:
  explicit PerfModel(DeviceProperties props) : props_(props) {}

  const DeviceProperties& properties() const { return props_; }

  // True when a block of `block_dim` threads can launch on this device at
  // all (1 <= block_dim <= max_threads_per_block). A launchable block always
  // has at least one resident block per SM, even when its warps exceed the
  // SM's warp capacity — on real hardware the block simply runs alone.
  bool IsLaunchable(int block_dim) const {
    return block_dim >= 1 && block_dim <= props_.max_threads_per_block;
  }

  // InvalidArgument (with the offending figures) for configs the device
  // could never launch; OK otherwise. EstimateSeconds/RecordLaunch CHECK
  // this, so callers that take untrusted configs should validate first.
  Status ValidateLaunch(int64_t grid_dim, int block_dim) const;

  // Occupancy for a launchable config. Unlaunchable block sizes report zero
  // occupancy (use ValidateLaunch to reject them with an error instead).
  OccupancyInfo ComputeOccupancy(int64_t grid_dim, int block_dim) const;

  // Estimated execution time in seconds for one launch.
  double EstimateSeconds(int64_t grid_dim, int block_dim,
                         const WorkEstimate& work) const;

  // Records a launch and returns its modeled duration in seconds.
  double RecordLaunch(const std::string& name, int64_t grid_dim,
                      int block_dim, const WorkEstimate& work);

  // Records a host<->device transfer over PCIe and returns its modeled
  // duration in seconds.
  double RecordTransfer(double bytes);

  // Adjusts the accumulated modeled time; used by the device's
  // concurrent-stream regions to fold overlapping kernels back in.
  void AdjustTotal(double delta_seconds) { modeled_seconds_ += delta_seconds; }

  double modeled_seconds() const { return modeled_seconds_; }
  double transfer_seconds() const { return transfer_seconds_; }
  int64_t total_launches() const { return total_launches_; }

  // Kernel records sorted by descending modeled time.
  std::vector<KernelRecord> KernelRecords() const;

  // Publishes the accumulated figures into `registry` as gauges named
  // "<prefix>.modeled_seconds", "<prefix>.kernel.<name>.launches", ... (see
  // docs/observability.md for the full taxonomy).
  void PublishMetrics(obs::MetricsRegistry* registry,
                      const std::string& prefix = "simt") const;

  void Reset();

 private:
  DeviceProperties props_;
  std::map<std::string, KernelRecord> records_;
  double modeled_seconds_ = 0.0;
  double transfer_seconds_ = 0.0;
  int64_t total_launches_ = 0;
};

}  // namespace proclus::simt

#endif  // PROCLUS_SIMT_PERF_MODEL_H_
