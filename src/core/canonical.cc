#include "core/canonical.h"

#include <cinttypes>
#include <cstdio>

namespace proclus::core {
namespace {

// Field-coverage pins (see canonical.h). If one of these fires: fold the
// new member into the matching Append* function below — or document why it
// is execution environment rather than request content — then bump the
// constant in canonical.h.
#if defined(__x86_64__) || defined(__aarch64__)
static_assert(sizeof(ProclusParams) == kCanonicalProclusParamsBytes,
              "ProclusParams changed: fold the new field into "
              "AppendCanonicalParams and bump kCanonicalProclusParamsBytes");
static_assert(sizeof(ClusterOptions) == kCanonicalClusterOptionsBytes,
              "ClusterOptions changed: fold the new field into "
              "AppendCanonicalOptions and bump kCanonicalClusterOptionsBytes");
static_assert(
    sizeof(simt::DeviceProperties) == kCanonicalDevicePropertiesBytes,
    "DeviceProperties changed: fold the new field into "
    "AppendCanonicalOptions and bump kCanonicalDevicePropertiesBytes");
static_assert(sizeof(ParamSetting) == kCanonicalParamSettingBytes,
              "ParamSetting changed: fold the new field into "
              "AppendCanonicalSweep and bump kCanonicalParamSettingBytes");
static_assert(sizeof(SweepSpec) == kCanonicalSweepSpecBytes,
              "SweepSpec changed: fold the new field into "
              "AppendCanonicalSweep and bump kCanonicalSweepSpecBytes");
#endif

void AppendKV(const char* key, const std::string& value, std::string* out) {
  out->push_back(' ');
  out->append(key);
  out->push_back('=');
  out->append(value);
}

void AppendInt(const char* key, int64_t value, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  AppendKV(key, buf, out);
}

void AppendU64(const char* key, uint64_t value, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  AppendKV(key, buf, out);
}

// %.17g round-trips every finite double, so distinct values canonicalize
// distinctly.
void AppendF64(const char* key, double value, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  AppendKV(key, buf, out);
}

}  // namespace

void AppendCanonicalParams(const ProclusParams& params, std::string* out) {
  out->append("params");
  AppendInt("k", params.k, out);
  AppendInt("l", params.l, out);
  AppendF64("a", params.a, out);
  AppendF64("b", params.b, out);
  AppendF64("min_dev", params.min_dev, out);
  AppendInt("itr_pat", params.itr_pat, out);
  AppendU64("seed", params.seed, out);
  AppendInt("max_total_iterations", params.max_total_iterations, out);
}

void AppendCanonicalOptions(const ClusterOptions& options, std::string* out) {
  out->append("options");
  AppendKV("backend", BackendName(options.backend), out);
  AppendKV("strategy", StrategyName(options.strategy), out);
  AppendInt("num_threads", options.num_threads, out);
  AppendInt("gpu_assign_block_dim", options.gpu_assign_block_dim, out);
  AppendInt("gpu_streams", options.gpu_streams ? 1 : 0, out);
  AppendInt("gpu_device_dim_selection",
            options.gpu_device_dim_selection ? 1 : 0, out);
  AppendInt("gpu_sanitize", options.gpu_sanitize ? 1 : 0, out);
  // Full device model. Results are device-model independent, but the
  // modeled timings in RunStats are not; folding the model in keeps a hit's
  // stats honest about what a cold run would have reported.
  const simt::DeviceProperties& p = options.device_properties;
  AppendKV("device", p.name, out);
  AppendInt("sm_count", p.sm_count, out);
  AppendInt("cores_per_sm", p.cores_per_sm, out);
  AppendInt("warp_size", p.warp_size, out);
  AppendInt("max_threads_per_block", p.max_threads_per_block, out);
  AppendInt("max_warps_per_sm", p.max_warps_per_sm, out);
  AppendInt("max_blocks_per_sm", p.max_blocks_per_sm, out);
  AppendF64("clock_ghz", p.clock_ghz, out);
  AppendF64("mem_bandwidth_gbps", p.mem_bandwidth_gbps, out);
  AppendF64("pcie_bandwidth_gbps", p.pcie_bandwidth_gbps, out);
  AppendF64("kernel_launch_overhead_us", p.kernel_launch_overhead_us, out);
  AppendF64("atomic_cost_cycles", p.atomic_cost_cycles, out);
  AppendU64("global_memory_bytes", p.global_memory_bytes, out);
  // Excluded by design: pool, device, cancel, trace (pointers; execution
  // environment — see canonical.h).
}

void AppendCanonicalSweep(const SweepSpec& sweep, std::string* out) {
  out->append("sweep");
  AppendKV("reuse", ReuseLevelName(sweep.reuse), out);
  AppendInt("max_shards", sweep.max_shards, out);
  out->append(" settings=");
  for (size_t i = 0; i < sweep.settings.size(); ++i) {
    if (i > 0) out->push_back(',');
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%d:%d", sweep.settings[i].k,
                  sweep.settings[i].l);
    out->append(buf);
  }
}

}  // namespace proclus::core
