#include "simt/perf_model.h"

#include <algorithm>

#include "common/macros.h"

namespace proclus::simt {

Status PerfModel::ValidateLaunch(int64_t grid_dim, int block_dim) const {
  if (grid_dim < 0) {
    return Status::InvalidArgument("grid_dim must be non-negative, got " +
                                   std::to_string(grid_dim));
  }
  if (!IsLaunchable(block_dim)) {
    return Status::InvalidArgument(
        "block_dim " + std::to_string(block_dim) + " is not launchable on " +
        props_.name + " (max_threads_per_block=" +
        std::to_string(props_.max_threads_per_block) + ")");
  }
  return Status::OK();
}

OccupancyInfo PerfModel::ComputeOccupancy(int64_t grid_dim,
                                          int block_dim) const {
  OccupancyInfo info;
  if (grid_dim <= 0 || !IsLaunchable(block_dim)) return info;
  const int warps_per_block =
      (block_dim + props_.warp_size - 1) / props_.warp_size;
  // A launchable block always gets at least one residency slot, even when
  // its warp count exceeds max_warps_per_sm (the block then runs alone and
  // oversubscribes the SM's schedulers). The earlier floor of zero here made
  // such configs report zero occupancy, which inflated modeled times by the
  // 1e-6 occupancy fallback (~10^6x) instead of rejecting or pricing them.
  int blocks_per_sm = props_.max_warps_per_sm / warps_per_block;
  blocks_per_sm = std::min(blocks_per_sm, props_.max_blocks_per_sm);
  blocks_per_sm = std::max(blocks_per_sm, 1);
  const int resident_warps_per_sm = blocks_per_sm * warps_per_block;
  info.theoretical =
      std::min(1.0, static_cast<double>(resident_warps_per_sm) /
                        static_cast<double>(props_.max_warps_per_sm));
  // Achieved occupancy: total warps in the grid spread over all SMs, capped
  // by the theoretical per-SM limit.
  const double total_warps = static_cast<double>(grid_dim) * warps_per_block;
  const double device_warp_slots = static_cast<double>(props_.sm_count) *
                                   static_cast<double>(props_.max_warps_per_sm);
  info.achieved = std::min(info.theoretical, total_warps / device_warp_slots);
  return info;
}

double PerfModel::EstimateSeconds(int64_t grid_dim, int block_dim,
                                  const WorkEstimate& work) const {
  PROCLUS_CHECK(block_dim == 0 || IsLaunchable(block_dim));
  const OccupancyInfo occ = ComputeOccupancy(grid_dim, block_dim);
  // A grid that cannot keep the device busy only reaches a fraction of the
  // peak arithmetic throughput.
  const double effective_flops =
      props_.PeakFlops() * std::max(occ.achieved, 1e-6);
  const double compute_seconds = work.flops / effective_flops;
  const double memory_seconds =
      work.bytes / (props_.mem_bandwidth_gbps * 1e9);
  // Atomics serialize per memory location; model them as a fixed cycle
  // cost distributed over the SMs.
  const double atomic_seconds = work.atomics * props_.atomic_cost_cycles /
                                (props_.clock_ghz * 1e9 * props_.sm_count);
  return props_.kernel_launch_overhead_us * 1e-6 +
         std::max(compute_seconds, memory_seconds) + atomic_seconds;
}

double PerfModel::RecordLaunch(const std::string& name, int64_t grid_dim,
                               int block_dim, const WorkEstimate& work) {
  PROCLUS_CHECK(ValidateLaunch(grid_dim, block_dim).ok());
  const double seconds = EstimateSeconds(grid_dim, block_dim, work);
  KernelRecord& rec = records_[name];
  rec.name = name;
  rec.launches += 1;
  rec.total_blocks += grid_dim;
  rec.total_threads += grid_dim * block_dim;
  rec.total_flops += work.flops;
  rec.total_bytes += work.bytes;
  rec.total_atomics += work.atomics;
  rec.modeled_seconds += seconds;
  rec.last_occupancy = ComputeOccupancy(grid_dim, block_dim);
  const double memory_seconds =
      work.bytes / (props_.mem_bandwidth_gbps * 1e9);
  rec.last_memory_throughput =
      seconds > 0.0 ? std::min(1.0, memory_seconds / seconds) : 0.0;
  rec.last_seconds = seconds;
  modeled_seconds_ += seconds;
  total_launches_ += 1;
  return seconds;
}

double PerfModel::RecordTransfer(double bytes) {
  const double seconds = bytes / (props_.pcie_bandwidth_gbps * 1e9);
  transfer_seconds_ += seconds;
  return seconds;
}

std::vector<KernelRecord> PerfModel::KernelRecords() const {
  std::vector<KernelRecord> out;
  out.reserve(records_.size());
  for (const auto& [name, rec] : records_) out.push_back(rec);
  std::sort(out.begin(), out.end(),
            [](const KernelRecord& a, const KernelRecord& b) {
              return a.modeled_seconds > b.modeled_seconds;
            });
  return out;
}

void PerfModel::PublishMetrics(obs::MetricsRegistry* registry,
                               const std::string& prefix) const {
  PROCLUS_CHECK(registry != nullptr);
  registry->gauge(prefix + ".modeled_seconds")->Set(modeled_seconds_);
  registry->gauge(prefix + ".transfer_seconds")->Set(transfer_seconds_);
  registry->gauge(prefix + ".total_launches")
      ->Set(static_cast<double>(total_launches_));
  for (const auto& [name, rec] : records_) {
    const std::string base = prefix + ".kernel." + name;
    registry->gauge(base + ".launches")
        ->Set(static_cast<double>(rec.launches));
    registry->gauge(base + ".modeled_seconds")->Set(rec.modeled_seconds);
    registry->gauge(base + ".bytes")->Set(rec.total_bytes);
    registry->gauge(base + ".flops")->Set(rec.total_flops);
    registry->gauge(base + ".achieved_occupancy")
        ->Set(rec.last_occupancy.achieved);
  }
}

void PerfModel::Reset() {
  records_.clear();
  modeled_seconds_ = 0.0;
  transfer_seconds_ = 0.0;
  total_launches_ = 0;
}

}  // namespace proclus::simt
