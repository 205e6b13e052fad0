// perfbench: the repository benchmark binary.
//
//   perfbench --workload engine_gpu|engine_mc|engine_cpu|sweep|serve|all
//             --seed N --seconds S --trace 0|1 [--scale F] [--corrupt]
//             [--out-dir DIR] [--git-sha SHA]
//
// Prints human-readable lines (host record, notes, every metric with its
// unit) and, as the last line, one JSON object with "correct", "attempted",
// "failed", "metrics" plus the host record. Exits 1 when any result fails
// its check, 2 on a usage error or when PROCLUS_SIMTCHECK is set (checked
// mode is a different program). See perfbench/README.md.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "simt/device.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"engine_gpu", "engine_mc", "engine_cpu",
                                      "sweep", "serve"};

struct HostRecord {
  std::string git_sha = "unknown";
  int nproc = 1;
  unsigned hardware_concurrency = 0;
};

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string quoted = "\"";
  quoted += obs::JsonEscape(s);
  quoted += '"';
  return quoted;
}

std::string HostJson(const HostRecord& host, const Config& config) {
  return std::string("{\"git_sha\":") + Quote(host.git_sha) +
         ",\"compiler\":" + Quote(PERFBENCH_COMPILER) +
         ",\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE) +
         ",\"nproc\":" + std::to_string(host.nproc) +
         ",\"hardware_concurrency\":" +
         std::to_string(host.hardware_concurrency) +
         ",\"workload\":" + Quote(config.workload) +
         ",\"seed\":" + std::to_string(config.seed) +
         ",\"seconds\":" + JsonNumber(config.seconds) +
         ",\"trace\":" + (config.trace ? "true" : "false") +
         ",\"scale\":" + JsonNumber(config.scale) + "}";
}

void PrintReport(const std::string& workload, const Report& report) {
  for (const std::string& note : report.notes) {
    std::printf("note [%s] %s\n", workload.c_str(), note.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("metric [%s] %s = %.6g %s\n", workload.c_str(),
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("checks [%s] correct=%s attempted=%lld failed=%lld\n",
              workload.c_str(), report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
}

void PrintJson(const Report& report, const HostRecord& host,
               const Config& config) {
  std::string metrics;
  for (const Metric& m : report.metrics) {
    if (!metrics.empty()) metrics += ",";
    metrics += Quote(m.name) + ":{\"value\":" + JsonNumber(m.value) +
               ",\"unit\":" + Quote(m.unit) + "}";
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s},"
      "\"host\":%s,\"trace_file\":%s}\n",
      report.correct ? "true" : "false",
      static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), metrics.c_str(),
      HostJson(host, config).c_str(), Quote(report.trace_file).c_str());
}

void Run(const Config& config, Report* report) {
  const std::string engine = "engine_";
  if (config.workload.starts_with(engine)) {
    RunEngine(config, config.workload.substr(engine.size()), report);
  }
  if (config.workload == "sweep") RunSweep(config, report);
  if (config.workload == "serve") RunServe(config, report);
}

// `all`: every workload in one process. With tracing off the merged report
// keeps the workload-specific end-to-end names (gpu_fast_ms.p50, sweep_s.p50,
// request_ms.p50, ...), sums set-up times and digest mismatches and
// recomputes failed_frac over every operation; the traced pass prefixes
// every per-layer name with its workload.
Report RunAll(Config config) {
  Report merged;
  double setup_s = 0.0;
  double mismatches = 0.0;
  for (const char* workload : kWorkloads) {
    config.workload = workload;
    Report report;
    Run(config, &report);
    PrintReport(workload, report);
    merged.correct = merged.correct && report.correct;
    merged.attempted += report.attempted;
    merged.failed += report.failed;
    for (const Metric& m : report.metrics) {
      if (config.trace) {
        merged.Set(std::string(workload) + "." + m.name, m.value, m.unit);
      } else if (m.name == "setup_s") {
        setup_s += m.value;
      } else if (m.name == "core.digest_mismatches") {
        mismatches += m.value;
      } else if (m.name.rfind("op_ms.", 0) != 0 && m.name != "failed_frac") {
        merged.Set(m.name, m.value, m.unit);
      }
    }
  }
  if (!config.trace) {
    merged.Set("setup_s", setup_s, "s");
    merged.Set("core.digest_mismatches", mismatches, "count");
  }
  merged.Set("failed_frac",
             merged.attempted > 0
                 ? static_cast<double>(merged.failed) / merged.attempted
                 : 0.0,
             "frac");
  return merged;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "engine_gpu|engine_mc|engine_cpu|sweep|serve|all --seed N "
               "--seconds S --trace 0|1 [--scale F] [--corrupt] "
               "[--out-dir DIR] [--git-sha SHA]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  Config config;
  HostRecord host;
  config.out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      config.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scale") {
      config.scale = std::atof(value);
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--git-sha") {
      host.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.workload != "all" &&
      std::find(std::begin(kWorkloads), std::end(kWorkloads),
                config.workload) == std::end(kWorkloads)) {
    return Usage("--workload must be engine_gpu, engine_mc, engine_cpu, "
                 "sweep, serve or all");
  }
  if (!(config.seconds > 0) || !(config.scale > 0)) {
    return Usage("--seconds and --scale must be positive");
  }
  if (proclus::simt::SimtcheckEnvDefault()) {
    return Usage("PROCLUS_SIMTCHECK turns checked mode on; checked mode is a "
                 "different program, unset it to benchmark");
  }
  host.nproc = AffinityCpus();
  host.hardware_concurrency = std::thread::hardware_concurrency();
  config.nproc = host.nproc;

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("host %s\n", HostJson(host, config).c_str());
  std::fflush(stdout);

  Report report;
  if (config.workload == "all") {
    report = RunAll(config);
  } else {
    Run(config, &report);
    PrintReport(config.workload, report);
  }
  PrintJson(report, host, config);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
