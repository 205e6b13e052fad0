#include "core/api.h"

#include <memory>

#include "common/rng.h"
#include "core/cpu_backend.h"
#include "core/driver.h"
#include "core/executor.h"
#include "core/gpu_backend.h"
#include "parallel/thread_pool.h"

namespace proclus::core {

const char* BackendName(ComputeBackend backend) {
  switch (backend) {
    case ComputeBackend::kCpu:
      return "CPU";
    case ComputeBackend::kMultiCore:
      return "MC";
    case ComputeBackend::kGpu:
      return "GPU";
  }
  return "?";
}

const char* BackendToken(ComputeBackend backend) {
  switch (backend) {
    case ComputeBackend::kCpu: return "cpu";
    case ComputeBackend::kMultiCore: return "mc";
    case ComputeBackend::kGpu: return "gpu";
  }
  return "cpu";
}

Status BackendFromToken(const std::string& token, ComputeBackend* out) {
  if (token == "cpu") *out = ComputeBackend::kCpu;
  else if (token == "mc") *out = ComputeBackend::kMultiCore;
  else if (token == "gpu") *out = ComputeBackend::kGpu;
  else return Status::InvalidArgument("unknown backend: " + token);
  return Status::OK();
}

const char* StrategyToken(Strategy strategy) {
  switch (strategy) {
    case Strategy::kBaseline: return "baseline";
    case Strategy::kFast: return "fast";
    case Strategy::kFastStar: return "faststar";
  }
  return "baseline";
}

Status StrategyFromToken(const std::string& token, Strategy* out) {
  if (token == "baseline") *out = Strategy::kBaseline;
  else if (token == "fast") *out = Strategy::kFast;
  else if (token == "faststar") *out = Strategy::kFastStar;
  else return Status::InvalidArgument("unknown strategy: " + token);
  return Status::OK();
}

std::string VariantName(ComputeBackend backend, Strategy strategy) {
  std::string name;
  if (backend != ComputeBackend::kCpu) {
    name += BackendName(backend);
    name += '-';
  }
  name += StrategyName(strategy);
  return name;
}

ClusterOptions ClusterOptions::Cpu(Strategy strategy) {
  ClusterOptions options;
  options.backend = ComputeBackend::kCpu;
  options.strategy = strategy;
  return options;
}

ClusterOptions ClusterOptions::MultiCore(int threads, Strategy strategy) {
  ClusterOptions options;
  options.backend = ComputeBackend::kMultiCore;
  options.num_threads = threads;
  options.strategy = strategy;
  return options;
}

ClusterOptions ClusterOptions::Gpu(simt::DeviceProperties props,
                                   Strategy strategy) {
  ClusterOptions options;
  options.backend = ComputeBackend::kGpu;
  options.device_properties = props;
  options.strategy = strategy;
  return options;
}

Status ClusterOptions::Validate() const {
  if (backend != ComputeBackend::kMultiCore) {
    if (num_threads != 0) {
      return Status::InvalidArgument(
          "num_threads is set but backend is not kMultiCore");
    }
    if (pool != nullptr) {
      return Status::InvalidArgument(
          "pool is set but backend is not kMultiCore");
    }
  } else {
    if (num_threads < 0) {
      return Status::InvalidArgument("num_threads must be >= 0");
    }
    if (pool != nullptr && num_threads != 0) {
      return Status::InvalidArgument(
          "num_threads and pool are exclusive (the pool fixes the worker "
          "count)");
    }
  }
  if (backend != ComputeBackend::kGpu) {
    if (device != nullptr) {
      return Status::InvalidArgument(
          "device is set but backend is not kGpu");
    }
    if (gpu_assign_block_dim != 128) {
      return Status::InvalidArgument(
          "gpu_assign_block_dim is set but backend is not kGpu");
    }
    if (gpu_streams) {
      return Status::InvalidArgument(
          "gpu_streams is set but backend is not kGpu");
    }
    if (gpu_device_dim_selection) {
      return Status::InvalidArgument(
          "gpu_device_dim_selection is set but backend is not kGpu");
    }
    if (gpu_sanitize) {
      return Status::InvalidArgument(
          "gpu_sanitize is set but backend is not kGpu");
    }
  } else {
    if (gpu_sanitize && device != nullptr && !device->sanitize_enabled()) {
      return Status::InvalidArgument(
          "gpu_sanitize is set but the provided device was not constructed "
          "with DeviceOptions::sanitize");
    }
    const simt::DeviceProperties& props =
        device != nullptr ? device->properties() : device_properties;
    if (gpu_assign_block_dim < 1 ||
        gpu_assign_block_dim > props.max_threads_per_block) {
      return Status::InvalidArgument(
          "gpu_assign_block_dim must be in [1, max_threads_per_block]");
    }
  }
  return Status::OK();
}

Status Cluster(const data::Matrix& data, const ProclusParams& params,
               const ClusterOptions& options, ProclusResult* result) {
  if (result == nullptr) {
    return Status::InvalidArgument("result must not be null");
  }
  PROCLUS_RETURN_NOT_OK(options.Validate());
  PROCLUS_RETURN_NOT_OK(params.Validate(data.rows(), data.cols()));

  DriverOptions driver_options;
  driver_options.cancel = options.cancel;
  driver_options.trace = options.trace;
  Rng rng(params.seed);
  switch (options.backend) {
    case ComputeBackend::kCpu: {
      SequentialExecutor executor(options.cancel);
      CpuBackend backend(data, options.strategy, &executor);
      backend.SetTrace(options.trace);
      return RunProclusPhases(data, params, backend, rng, driver_options,
                              result);
    }
    case ComputeBackend::kMultiCore: {
      std::unique_ptr<parallel::ThreadPool> owned;
      parallel::ThreadPool* pool = options.pool;
      if (pool == nullptr) {
        owned = std::make_unique<parallel::ThreadPool>(options.num_threads);
        pool = owned.get();
      }
      PoolExecutor executor(pool, options.cancel);
      CpuBackend backend(data, options.strategy, &executor);
      backend.SetTrace(options.trace);
      return RunProclusPhases(data, params, backend, rng, driver_options,
                              result);
    }
    case ComputeBackend::kGpu: {
      std::unique_ptr<simt::Device> owned;
      simt::Device* device = options.device;
      if (device == nullptr) {
        simt::DeviceOptions device_options;  // sanitize defaults from env
        device_options.sanitize |= options.gpu_sanitize;
        owned = std::make_unique<simt::Device>(options.device_properties,
                                               device_options);
        device = owned.get();
      }
      GpuBackendOptions gpu_options;
      gpu_options.assign_block_dim = options.gpu_assign_block_dim;
      gpu_options.use_streams = options.gpu_streams;
      gpu_options.device_dim_selection = options.gpu_device_dim_selection;
      // The device holds the recorder only for the duration of the run, so a
      // caller-owned device never keeps a dangling recorder pointer.
      device->set_trace(options.trace);
      GpuBackend backend(data, options.strategy, device, gpu_options);
      backend.SetTrace(options.trace);
      // Count only this run's findings: a long-lived (service) device may
      // carry findings from earlier jobs.
      const int64_t findings_before =
          device->sanitize_enabled() ? device->sanitizer()->findings() : 0;
      Status status =
          RunProclusPhases(data, params, backend, rng, driver_options, result);
      device->set_trace(nullptr);
      if (status.ok() && device->sanitize_enabled()) {
        backend.FillStats(&result->stats);  // refresh the sanitizer figures
        const int64_t new_findings =
            device->sanitizer()->findings() - findings_before;
        if (new_findings > 0) {
          status = Status::Internal(device->sanitizer()->Summary());
        }
      }
      return status;
    }
  }
  return Status::Internal("unknown backend");
}

}  // namespace proclus::core
