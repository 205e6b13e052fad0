#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "data/generator.h"
#include "data/normalize.h"
#include "eval/validate.h"
#include "parallel/thread_pool.h"
#include "simt/device.h"

namespace perfbench {
namespace {

// The GPU kernels with per-kernel figures (the paper's §5.4 hot spots).
constexpr const char* kReportedKernels[] = {
    "assign_points", "evaluate",  "compute_dist", "build_delta_l",
    "update_h",      "compute_z", "greedy_dist"};

// RunStats phase name for an engine "backend" span name.
const std::map<std::string, std::string>& BackendSpanPhases() {
  static const auto* phases = new std::map<std::string, std::string>{
      {"greedy_select", "greedy"},
      {"compute_distances", "compute_distances"},
      {"find_dimensions", "find_dimensions"},
      {"assign_points", "assign_points"},
      {"evaluate", "evaluate"},
      {"refine", "refine"},
  };
  return *phases;
}

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Mix(uint64_t* h, const void* bytes, size_t size) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < size; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Report::Finish(const Checker& checker) {
  if (checker.invalid() > 0) correct = false;
  Set("core.digest_mismatches",
      static_cast<double>(checker.digest_mismatches()), "count");
  Set("failed_frac",
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0, "frac");
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = Median(samples);
  // Never below the median: with fewer than 20 samples the tail is p50.
  const int64_t index = std::max<int64_t>(0, s.count - 11);
  s.tail = std::max(s.p50, s.count > 10 ? samples[index] : samples.back());
  s.tail_percentile =
      s.count > 10 ? 100.0 * static_cast<double>(s.count - 10) / s.count
                   : 100.0;
  return s;
}

void ReportSummary(Report* report, const std::string& name,
                   const std::string& unit, const Summary& summary) {
  report->Set(name + ".p50", summary.p50, unit);
  report->Set(name + ".tail", summary.tail, unit);
  report->Note(name + ".tail is p" + FormatDouble(summary.tail_percentile) +
               " of " + std::to_string(summary.count) + " samples (" +
               std::to_string(std::min<int64_t>(10, summary.count)) +
               " beyond it)");
}

uint64_t ResultDigest(const core::ProclusResult& result) {
  uint64_t h = kFnvOffset;
  Mix(&h, result.medoids.data(), result.medoids.size() * sizeof(int));
  for (const std::vector<int>& dims : result.dimensions) {
    const int separator = -2;
    Mix(&h, &separator, sizeof(separator));
    Mix(&h, dims.data(), dims.size() * sizeof(int));
  }
  Mix(&h, result.assignment.data(), result.assignment.size() * sizeof(int));
  return h;
}

uint64_t MatrixDigest(const data::Matrix& matrix) {
  uint64_t h = kFnvOffset;
  Mix(&h, matrix.data(), static_cast<size_t>(matrix.size()) * sizeof(float));
  return h;
}

void NoteInputs(Report* report, const std::vector<data::Matrix>& inputs) {
  uint64_t h = kFnvOffset;
  for (const data::Matrix& matrix : inputs) {
    const uint64_t digest = MatrixDigest(matrix);
    Mix(&h, &digest, sizeof(digest));
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  report->Note(std::string("input_digest: ") + hex);
}

data::Matrix MakeData(int64_t n, uint64_t seed) {
  data::GeneratorConfig config;
  config.n = n;
  config.d = 15;
  config.num_clusters = 10;
  config.subspace_dim = 5;
  config.stddev = 5.0;
  config.seed = seed;
  data::Dataset dataset = data::GenerateSubspaceDataOrDie(config);
  data::MinMaxNormalize(&dataset.points);
  return std::move(dataset.points);
}

int64_t ScaledRows(const Config& config, int64_t rows) {
  return std::max<int64_t>(1000, static_cast<int64_t>(rows * config.scale));
}

void RunParallel(int64_t count, int threads,
                 const std::function<void(int64_t)>& fn) {
  proclus::parallel::ThreadPool pool(std::max(1, threads));
  for (int64_t i = 0; i < count; ++i) pool.Submit([&fn, i] { fn(i); });
  pool.Wait();
}

bool Checker::Check(const data::Matrix& data,
                    const core::ProclusParams& params,
                    const core::ProclusResult& result, int dataset,
                    int setting) {
  const core::ProclusResult* checked = &result;
  core::ProclusResult corrupted;
  if (corrupt_next_ && result.k() >= 2) {
    // Move the first medoid's own point into another cluster: it is then
    // no longer assigned to its nearest medoid, which validation must catch.
    corrupt_next_ = false;
    corrupted = result;
    int& slot = corrupted.assignment[corrupted.medoids[0]];
    slot = (std::max(slot, 0) + 1) % corrupted.k();
    checked = &corrupted;
  }
  const proclus::Status valid = proclus::eval::ValidateResult(data, params,
                                                              *checked);
  if (!valid.ok()) {
    ++invalid_;
    std::fprintf(stderr, "perfbench: invalid result (seed %llu): %s\n",
                 static_cast<unsigned long long>(params.seed),
                 valid.ToString().c_str());
    return false;
  }
  observed_.push_back({dataset, params.seed, setting, ResultDigest(*checked)});
  return true;
}

std::vector<core::ProclusResult> SingleReference(const data::Matrix& data,
                                                 uint64_t seed) {
  core::ProclusParams params;
  params.seed = seed;
  std::vector<core::ProclusResult> results(1);
  MustCluster(data, params, core::ClusterOptions::Cpu(), &results[0]);
  return results;
}

void CompareReferences(const std::vector<data::Matrix>& inputs, int threads,
                       size_t counted_keys, const ReferenceFn& reference,
                       Checker* checker, RunCounts* counts) {
  // Distinct (dataset, seed) pairs in first-seen order.
  std::map<std::pair<int, uint64_t>, size_t> index;
  std::vector<std::pair<int, uint64_t>> keys;
  for (const Observed& o : checker->observed()) {
    if (index.emplace(std::make_pair(o.dataset, o.seed), keys.size()).second) {
      keys.emplace_back(o.dataset, o.seed);
    }
  }
  std::vector<std::vector<core::ProclusResult>> references(keys.size());
  RunParallel(static_cast<int64_t>(keys.size()), threads, [&](int64_t i) {
    references[i] = reference(inputs[keys[i].first], keys[i].second);
  });
  for (size_t i = 0; i < references.size() && i < counted_keys; ++i) {
    for (const core::ProclusResult& r : references[i]) counts->Add(r.stats);
  }
  int64_t mismatches = 0;
  for (const Observed& o : checker->observed()) {
    const std::vector<core::ProclusResult>& results =
        references[index[std::make_pair(o.dataset, o.seed)]];
    if (ResultDigest(results[o.setting]) != o.digest) ++mismatches;
  }
  checker->AddMismatches(mismatches);
}

core::ProclusParams WarmUpParams() {
  core::ProclusParams params;
  params.seed = 1;
  params.max_total_iterations = 6;
  return params;
}

std::vector<data::Matrix> MakeInputs(const Config& config, int64_t rows) {
  std::vector<data::Matrix> inputs;
  for (int j = 0; j < kInputs; ++j) {
    inputs.push_back(
        MakeData(ScaledRows(config, rows), config.seed * 1000 + j));
  }
  return inputs;
}

void RunCounts::Add(const core::RunStats& stats) {
  ++runs;
  iterations += stats.iterations;
  euclidean_distances += stats.euclidean_distances;
  segmental_distances += stats.segmental_distances;
}

void RunCounts::Report(perfbench::Report* report) const {
  report->Set("core.iterations", static_cast<double>(iterations), "count");
  report->Set("core.euclidean_distances",
              static_cast<double>(euclidean_distances), "count");
  report->Set("core.segmental_distances",
              static_cast<double>(segmental_distances), "count");
  report->Note("core.* counts are sums over " + std::to_string(runs) +
               " 1-core FAST reference runs, the first in operation order");
}

void MustCluster(const data::Matrix& data, const core::ProclusParams& params,
                 const core::ClusterOptions& options,
                 core::ProclusResult* result) {
  const proclus::Status status = core::Cluster(data, params, options, result);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: reference run failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
}

void ReportTraceOverhead(Report* report, double untraced_ms, double traced_ms,
                         const std::string& what) {
  report->Set("obs.untraced_ms.p50", untraced_ms, "ms");
  report->Set("obs.traced_ms.p50", traced_ms, "ms");
  if (untraced_ms > 0) {
    report->Set("obs.trace_overhead_frac", traced_ms / untraced_ms - 1.0,
                "frac");
  }
  report->Note("obs.trace_overhead_frac = " + FormatDouble(traced_ms) +
               " ms traced / " + FormatDouble(untraced_ms) +
               " ms untraced - 1 (median " + what + ")");
}

void ReportDeviceReuse(Report* report,
                       const proclus::service::ServiceStats& before,
                       const proclus::service::ServiceStats& after) {
  const int64_t acquires = after.device_acquires - before.device_acquires;
  const int64_t reuse = after.device_reuse_hits - before.device_reuse_hits;
  report->Set("service.device_acquires", static_cast<double>(acquires),
              "count");
  if (acquires > 0) {
    report->Set("service.device_reuse_ratio",
                static_cast<double>(reuse) / acquires, "frac");
  }
  report->Note("service.device_reuse_ratio = " + std::to_string(reuse) +
               " warm leases / " + std::to_string(acquires) + " leases");
}

TraceTotals ReadTrace(const obs::TraceRecorder& recorder) {
  TraceTotals totals;
  for (const obs::TraceEvent& event : recorder.Snapshot()) {
    if (event.category == "kernel") {
      double modeled_ms = 0.0;
      double grid = 0.0;
      double block = 0.0;
      for (const obs::TraceArg& arg : event.args) {
        if (arg.name == "modeled_ms") modeled_ms = arg.double_value;
        if (arg.name == "grid_dim") grid = static_cast<double>(arg.int_value);
        if (arg.name == "block_dim") block = static_cast<double>(arg.int_value);
      }
      TraceTotals::Kernel& kernel = totals.kernels[event.name];
      kernel.threads += grid * block;
      kernel.modeled_ms += modeled_ms;
      ++totals.launches;
      totals.threads += grid * block;
      totals.modeled_ms += modeled_ms;
    } else if (event.category == "backend") {
      totals.backend_ms[event.name] += event.dur_us / 1e3;
    }
  }
  return totals;
}

void AddPhases(const core::RunStats& stats,
               std::map<std::string, double>* phase_ms) {
  const core::PhaseSeconds& p = stats.phases;
  (*phase_ms)["greedy"] += p.greedy * 1e3;
  (*phase_ms)["compute_distances"] += p.compute_distances * 1e3;
  (*phase_ms)["find_dimensions"] += p.find_dimensions * 1e3;
  (*phase_ms)["assign_points"] += p.assign_points * 1e3;
  (*phase_ms)["evaluate"] += p.evaluate * 1e3;
  (*phase_ms)["refine"] += p.refine * 1e3;
}

void ReportGpuLayers(Report* report, const TraceTotals& totals,
                     int64_t gpu_runs, std::map<std::string, double> phase_ms) {
  if (gpu_runs <= 0) return;
  if (phase_ms.empty()) {
    for (const auto& [span, phase] : BackendSpanPhases()) {
      const auto it = totals.backend_ms.find(span);
      phase_ms[phase] = it == totals.backend_ms.end() ? 0.0 : it->second;
    }
  }
  const double runs = static_cast<double>(gpu_runs);
  double wall_ms = 0.0;
  for (const auto& [phase, ms] : phase_ms) {
    report->Set("core.gpu.phase_ms." + phase, ms / runs, "ms");
    wall_ms += ms;
  }
  report->Set("simt.modeled_ms", totals.modeled_ms / runs, "ms");
  report->Set("simt.launches", static_cast<double>(totals.launches) / runs,
              "count");
  if (totals.threads > 0.0) {
    report->Set("simt.sim_ns_per_thread", wall_ms * 1e6 / totals.threads,
                "ns");
  }
  for (const char* name : kReportedKernels) {
    const auto it = totals.kernels.find(name);
    const TraceTotals::Kernel kernel =
        it == totals.kernels.end() ? TraceTotals::Kernel() : it->second;
    const std::string prefix = std::string("simt.kernel.") + name;
    report->Set(prefix + ".modeled_ms", kernel.modeled_ms / runs, "ms");
    report->Set(prefix + ".threads", kernel.threads / runs, "count");
  }
  report->Note("simt per-run figures are means over " +
               std::to_string(gpu_runs) + " traced GPU runs; " +
               "sim_ns_per_thread = " + FormatDouble(wall_ms) +
               " ms GPU phase wall / " + FormatDouble(totals.threads) +
               " simulated threads");
}

void ReportSimtProbes(const Config& config, const data::Matrix& data,
                      obs::TraceRecorder* trace, Report* report) {
  const proclus::simt::DeviceProperties props =
      proclus::simt::DeviceProperties::Gtx1660Ti();
  // DeviceOptions::host_workers = 0 is documented as single-threaded but
  // becomes hardware_concurrency in ThreadPool, so the probes always pass
  // an explicit worker count.
  const int workers_n = std::max(1, config.nproc);
  std::vector<double> setup_ms;
  for (int i = 0; i < 20; ++i) {
    obs::TraceSpan span(trace, "device_setup", "bench");
    const double start = NowSeconds();
    {
      proclus::simt::Device device(
          props, proclus::simt::DeviceOptions{workers_n, false});
    }
    setup_ms.push_back((NowSeconds() - start) * 1e3);
  }
  report->Set("simt.device_setup_ms", Median(setup_ms), "ms");

  // The same GPU-FAST call on an explicit device at 1 and nproc workers.
  auto timed_ms = [&](int workers) {
    std::vector<double> ms;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      core::ProclusParams params;
      params.seed = seed;
      std::unique_ptr<proclus::simt::Device> device;
      {
        obs::TraceSpan span(trace, "device_setup", "bench");
        device = std::make_unique<proclus::simt::Device>(
            props, proclus::simt::DeviceOptions{workers, false});
      }
      core::ClusterOptions options = core::ClusterOptions::Gpu(props);
      options.device = device.get();
      core::ProclusResult result;
      obs::TraceSpan span(trace, "cluster.worker_probe", "bench");
      const double start = NowSeconds();
      const proclus::Status st = core::Cluster(data, params, options, &result);
      ms.push_back((NowSeconds() - start) * 1e3);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: worker probe failed: %s\n",
                     st.ToString().c_str());
      }
    }
    return Median(ms);
  };
  const double base_1 = timed_ms(1);
  const double base_n = timed_ms(workers_n);
  report->Set("simt.worker_speedup", base_n > 0 ? base_1 / base_n : 0.0, "x");
  report->Set("simt.worker_speedup.base_1_ms", base_1, "ms");
  report->Set("simt.worker_speedup.base_n_ms", base_n, "ms");
  report->Note("simt.worker_speedup = " + FormatDouble(base_1) +
               " ms at 1 host worker / " + FormatDouble(base_n) + " ms at " +
               std::to_string(workers_n) +
               " host workers (GPU-FAST, median of 3 seeds)");
}

void WriteTrace(const Config& config, const obs::TraceRecorder& recorder,
                Report* report) {
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  const std::string path = config.out_dir + "/trace-" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".json";
  const proclus::Status st = recorder.WriteFile(path);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    report->correct = false;
    return;
  }
  report->trace_file = path;
  report->Note("trace_file: " + path + " (" +
               std::to_string(recorder.event_count()) + " events)");
}

void ReportSetup(Report* report, const std::vector<double>& seconds) {
  report->Set("setup_s", Median(seconds), "s");
  std::string values;
  for (double s : seconds) {
    values += (values.empty() ? "" : ", ") + FormatDouble(s);
  }
  report->Note("setup_s: median of " + std::to_string(seconds.size()) +
               " set-ups (" + values + " s)");
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
