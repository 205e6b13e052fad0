#ifndef PROCLUS_CORE_API_H_
#define PROCLUS_CORE_API_H_

#include "common/status.h"
#include "core/backend.h"
#include "core/params.h"
#include "core/result.h"
#include "data/matrix.h"
#include "parallel/cancellation.h"
#include "parallel/thread_pool.h"
#include "simt/device.h"

namespace proclus::core {

// Which hardware the run executes on:
//   kCpu       — single core (the paper's PROCLUS / FAST / FAST*).
//   kMultiCore — thread-pool parallel CPU (the paper's OpenMP variants).
//   kGpu       — the simulated SIMT device (GPU-PROCLUS / GPU-FAST /
//                GPU-FAST*; see DESIGN.md for the hardware substitution).
enum class ComputeBackend { kCpu, kMultiCore, kGpu };

const char* BackendName(ComputeBackend backend);

// The lowercase tokens the CLI flags and the wire protocol use: "cpu",
// "mc", "gpu" and "baseline", "fast", "faststar". The parsers return
// kInvalidArgument ("unknown backend: <token>") for anything else.
const char* BackendToken(ComputeBackend backend);
Status BackendFromToken(const std::string& token, ComputeBackend* out);
const char* StrategyToken(Strategy strategy);
Status StrategyFromToken(const std::string& token, Strategy* out);

// Full variant name in the paper's nomenclature, e.g. "GPU-FAST-PROCLUS".
std::string VariantName(ComputeBackend backend, Strategy strategy);

struct ClusterOptions {
  ComputeBackend backend = ComputeBackend::kCpu;
  Strategy strategy = Strategy::kBaseline;
  // kMultiCore: worker count (0 = hardware concurrency).
  int num_threads = 0;
  // kMultiCore: run on this existing pool instead of constructing one per
  // call (the service does this to amortize thread startup). Optional; when
  // set, `num_threads` must stay 0 — the pool fixes the worker count.
  parallel::ThreadPool* pool = nullptr;
  // kGpu: simulated device model used when `device` is null.
  simt::DeviceProperties device_properties = simt::DeviceProperties::Gtx1660Ti();
  // kGpu: run on this existing device instead of a fresh one (lets callers
  // read kernel statistics and reuse device memory across runs). Optional.
  simt::Device* device = nullptr;
  // kGpu: AssignPoints threads per block (paper default 128) and the
  // concurrent-stream optimization for the tiny bookkeeping kernels (§5.4).
  int gpu_assign_block_dim = 128;
  bool gpu_streams = false;
  // kGpu: run the dimension pick on the device (identical result; only the
  // selected ids cross the PCIe bus instead of the Z matrix).
  bool gpu_device_dim_selection = false;
  // kGpu: checked execution (simtcheck). When the run constructs its own
  // device, the device is created with DeviceOptions::sanitize on; a
  // caller-provided `device` must already have sanitize enabled. After the
  // run, any sanitizer finding turns the result into an internal-error
  // Status (so tests and the CLI exit non-zero); the reports are still
  // available in result->stats.sanitizer_reports. Independently of this
  // flag, PROCLUS_SIMTCHECK=1 puts every internally constructed device into
  // checked mode. See docs/simt.md.
  bool gpu_sanitize = false;
  // Any backend: cooperative stop signal. Cluster() polls it between
  // iterations / chunk dispatches and returns Cancelled/DeadlineExceeded
  // instead of a result. Optional; must outlive the call.
  const parallel::CancellationToken* cancel = nullptr;
  // Any backend: structured tracing. When set, the run records driver-phase
  // and backend-step spans (plus per-kernel device events on kGpu) into the
  // recorder; write it out with TraceRecorder::WriteFile and load the JSON
  // in chrome://tracing or ui.perfetto.dev. Optional; must outlive the call.
  // See docs/observability.md.
  obs::TraceRecorder* trace = nullptr;

  // Named constructors — the recommended way to build options. They default
  // to Strategy::kFast, the paper's recommended exact strategy; the plain
  // aggregate default stays kBaseline for the reference variant.
  static ClusterOptions Cpu(Strategy strategy = Strategy::kFast);
  static ClusterOptions MultiCore(int threads = 0,
                                  Strategy strategy = Strategy::kFast);
  static ClusterOptions Gpu(
      simt::DeviceProperties props = simt::DeviceProperties::Gtx1660Ti(),
      Strategy strategy = Strategy::kFast);

  // Rejects incoherent combinations instead of silently ignoring fields:
  // GPU knobs (gpu_streams, non-default gpu_assign_block_dim,
  // gpu_device_dim_selection, device) require backend == kGpu; num_threads /
  // pool require backend == kMultiCore; gpu_assign_block_dim must fit the
  // device's max_threads_per_block. Called by every entry point.
  Status Validate() const;
};

// Runs the selected PROCLUS variant on `data` (n x d, expected min-max
// normalized). For a fixed `params.seed` every backend/strategy combination
// returns the identical clustering (the FAST strategies and the GPU
// parallelization are exact, §4.1).
Status Cluster(const data::Matrix& data, const ProclusParams& params,
               const ClusterOptions& options, ProclusResult* result);

}  // namespace proclus::core

#endif  // PROCLUS_CORE_API_H_
