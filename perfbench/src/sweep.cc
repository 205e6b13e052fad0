// `sweep`: closed loop, one sweep in flight. Each operation submits the
// paper's §5.3 (k, l) grid at n=64k (SweepSpec::Grid, kWarmStart,
// max_shards=0) as a JobSpec::Sweep to an in-process ProclusService with 3
// prewarmed GPU devices and the result cache off, and waits for it. This is
// the only workload where several simulated devices share the host at once
// (one lane per k, each device with its own host pool) and where the §3.1
// reuse path runs.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/multi_param.h"
#include "service/proclus_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace service = proclus::service;

constexpr int64_t kSweepRows = 64000;
constexpr int kSweepDevices = 3;
// Reference sweeps whose work counts are reported (they cost ~0.7 s each).
constexpr size_t kCountedSweeps = 2;

core::SweepSpec Grid(const core::ProclusParams& base, int64_t dims) {
  core::SweepSpec spec =
      core::SweepSpec::Grid(base, dims, core::ReuseLevel::kWarmStart);
  spec.max_shards = 0;
  return spec;
}

// Operations cycle over kInputs keys: key j sweeps from base seed j + 1 on
// input j, so the reference sweeps of the check are bounded by kInputs.
int OpDataset(int64_t op) { return static_cast<int>(op % kInputs); }
core::ProclusParams OpParams(int64_t op) {
  core::ProclusParams params;
  params.seed = static_cast<uint64_t>(op % kInputs + 1);
  return params;
}

struct SweepState {
  std::vector<data::Matrix> inputs;
  std::unique_ptr<service::ProclusService> service;
};

// Runs one grid through the service; returns its status.
proclus::Status RunGrid(const SweepState& state, const data::Matrix& data,
                        const core::ProclusParams& base,
                        obs::TraceRecorder* trace,
                        service::JobResult* result) {
  service::JobSpec spec = service::JobSpec::Sweep(
      data, base, Grid(base, data.cols()), core::ClusterOptions::Gpu());
  spec.trace = trace != nullptr;
  obs::TraceSpan span(trace, "service.submit_wait", "bench");
  service::JobHandle handle;
  result->status = state.service->Submit(spec, &handle);
  if (result->status.ok()) *result = handle.Wait();
  return result->status;
}

// Set-up: the inputs, the service with its prewarmed devices, and one
// untimed warm-up grid.
std::unique_ptr<SweepState> SetUp(const Config& config,
                                  obs::TraceRecorder* trace) {
  auto state = std::make_unique<SweepState>();
  state->inputs = MakeInputs(config, kSweepRows);
  service::ServiceOptions options;
  options.gpu_devices = kSweepDevices;
  options.prewarm_devices = true;
  options.result_cache_bytes = 0;
  options.trace = trace;
  state->service = std::make_unique<service::ProclusService>(options);
  service::JobResult warm_up;
  if (!RunGrid(*state, state->inputs.front(), WarmUpParams(), nullptr,
               &warm_up)
           .ok()) {
    std::fprintf(stderr, "perfbench: warm-up sweep failed: %s\n",
                 warm_up.status.ToString().c_str());
    std::exit(1);
  }
  return state;
}

struct PassSamples {
  std::vector<double> sweep_ms;
  std::vector<double> setting_ms;
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  int64_t lanes = 0;
  int64_t settings_run = 0;
};

int64_t RunPass(const SweepState& state, int64_t first_op, double seconds,
                obs::TraceRecorder* trace, Checker* checker, Report* report,
                PassSamples* samples) {
  const double deadline = NowSeconds() + seconds;
  int64_t op = first_op;
  for (; NowSeconds() < deadline; ++op) {
    ++report->attempted;
    const data::Matrix& data = state.inputs[OpDataset(op)];
    const core::ProclusParams base = OpParams(op);
    service::JobResult result;
    const double start = NowSeconds();
    const proclus::Status status = RunGrid(state, data, base, trace, &result);
    const double ms = (NowSeconds() - start) * 1e3;
    const core::SweepSpec grid = Grid(base, data.cols());
    bool ok = status.ok() && result.results.size() == grid.settings.size();
    for (size_t s = 0; ok && s < grid.settings.size(); ++s) {
      core::ProclusParams params = base;
      params.k = grid.settings[s].k;
      params.l = grid.settings[s].l;
      ok = checker->Check(data, params, result.results[s], OpDataset(op),
                          static_cast<int>(s));
    }
    if (!ok) {
      ++report->failed;
      if (!status.ok()) {
        std::fprintf(stderr, "perfbench: sweep failed: %s\n",
                     status.ToString().c_str());
      }
      continue;
    }
    samples->sweep_ms.push_back(ms);
    for (double s : result.setting_seconds) {
      samples->setting_ms.push_back(s * 1e3);
    }
    samples->queue_ms.push_back(result.queue_seconds * 1e3);
    samples->exec_ms.push_back(result.exec_seconds * 1e3);
    samples->lanes += result.sweep_shards;
    samples->settings_run += static_cast<int64_t>(result.results.size());
  }
  return op;
}

// The reference of a sweep: the serial 1-core FAST sweep from the same base
// seed, one result per setting.
std::vector<core::ProclusResult> SweepReference(const data::Matrix& data,
                                                uint64_t seed) {
  core::ProclusParams base;
  base.seed = seed;
  core::MultiParamOptions options;
  options.cluster = core::ClusterOptions::Cpu();
  core::MultiParamResult reference;
  const proclus::Status status = core::RunMultiParam(
      data, base, Grid(base, data.cols()), options, &reference);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: reference sweep failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  return std::move(reference.results);
}

}  // namespace

void RunSweep(const Config& config, Report* report) {
  // Declared before the state: the service records into it until it is
  // destroyed.
  obs::TraceRecorder recorder;
  obs::TraceRecorder* trace = config.trace ? &recorder : nullptr;
  const std::unique_ptr<SweepState> state = TimedSetup<SweepState>(
      config, report, [&config, trace] { return SetUp(config, trace); });
  Checker checker(config.corrupt);
  NoteInputs(report, state->inputs);
  report->Note("sweep: " + std::to_string(kInputs) + " inputs of n=" +
               std::to_string(state->inputs.front().rows()) +
               " d=15, closed loop, 1 sweep in flight, " +
               std::to_string(kSweepDevices) +
               " pooled GPU devices, result cache off; op = one §5.3 grid "
               "from a fresh base seed, Submit to Wait");
  RunCounts counts;

  if (!config.trace) {
    PassSamples samples;
    RunPass(*state, 0, config.seconds, nullptr, &checker, report, &samples);
    const Summary sweep = Summarize(samples.sweep_ms);
    ReportSummary(report, "op_ms", "ms", sweep);
    Summary sweep_s = sweep;
    sweep_s.p50 /= 1e3;
    sweep_s.tail /= 1e3;
    ReportSummary(report, "sweep_s", "s", sweep_s);
    CompareReferences(state->inputs, config.nproc, kCountedSweeps,
                      SweepReference, &checker, &counts);
    report->Finish(checker);
    return;
  }

  recorder.set_enabled(false);
  PassSamples untraced;
  const int64_t next = RunPass(*state, 0, config.seconds * 0.4, nullptr,
                               &checker, report, &untraced);
  recorder.set_enabled(true);
  const service::ServiceStats before = state->service->stats();
  PassSamples traced;
  RunPass(*state, next, config.seconds * 0.6, trace, &checker, report,
          &traced);
  const service::ServiceStats after = state->service->stats();

  report->Set("core.sweep.setting_ms.p50", Summarize(traced.setting_ms).p50,
              "ms");
  ReportSummary(report, "service.queue_ms", "ms", Summarize(traced.queue_ms));
  report->Set("service.exec_ms.p50", Summarize(traced.exec_ms).p50, "ms");
  const double sweeps = static_cast<double>(traced.sweep_ms.size());
  if (sweeps > 0) {
    report->Set("service.sweep_lanes", traced.lanes / sweeps, "count");
  }
  ReportDeviceReuse(report, before, after);
  ReportGpuLayers(report, ReadTrace(recorder), traced.settings_run, {});
  ReportTraceOverhead(report, Summarize(untraced.sweep_ms).p50,
                      Summarize(traced.sweep_ms).p50, "grid");
  ReportSimtProbes(config, state->inputs.front(), &recorder, report);
  WriteTrace(config, recorder, report);
  CompareReferences(state->inputs, config.nproc, kCountedSweeps,
                      SweepReference, &checker, &counts);
  counts.Report(report);
  report->Finish(checker);
}

}  // namespace perfbench
