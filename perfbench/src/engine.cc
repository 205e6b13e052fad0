// `engine_gpu`, `engine_mc`, `engine_cpu`: closed loop, one caller, direct
// core::Cluster calls at n=64k on one backend each: GPU-FAST (the default
// ClusterOptions::Gpu() path, so a fresh Device per call, as a library user
// gets), MC-FAST or 1-core FAST. One backend per workload keeps a
// regression confined to one engine from being diluted by the other two.
// The traced pass of every engine workload runs all three backends on each
// seed, which the per-layer figures (parallel.mc_speedup among them) need.
// The wire, service, store and cache are bypassed.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kEngineRows = 64000;

struct Backend {
  const char* name;   // per-layer prefix: core.<name>.*
  const char* label;  // per-backend end-to-end name: <label>_ms.*
  core::ClusterOptions options;
};

// GPU first: the traced pass reads the GPU figures from backend 0.
std::vector<Backend> AllBackends() {
  return {
      {"gpu", "gpu_fast", core::ClusterOptions::Gpu()},
      {"mc", "mc_fast", core::ClusterOptions::MultiCore()},
      {"cpu", "cpu_fast", core::ClusterOptions::Cpu()},
  };
}

// The backends a pass runs: every one when tracing, else `name`'s alone.
std::vector<Backend> PassBackends(const std::string& name, bool trace) {
  std::vector<Backend> backends = AllBackends();
  if (!trace) {
    std::erase_if(backends,
                  [&name](const Backend& b) { return b.name != name; });
  }
  return backends;
}

// Operations cycle over this many keys: key j runs clustering seed j + 1
// on input j % kInputs. Iteration counts vary from about 7 to 27 across
// seeds, so every run times the same fixed mix of trajectories, and the
// reference runs of the check are bounded by the key count.
constexpr int64_t kEngineKeys = 64;
static_assert(kEngineKeys % kInputs == 0);

int OpDataset(int64_t op) { return static_cast<int>(op % kInputs); }
core::ProclusParams OpParams(int64_t op) {
  core::ProclusParams params;
  params.seed = static_cast<uint64_t>(op % kEngineKeys + 1);
  return params;
}

// Per backend of the pass: wall ms per call and RunStats phase ms summed.
struct PassSamples {
  std::vector<std::vector<double>> call_ms{3};
  std::vector<std::map<std::string, double>> phase_ms{3};
};

// Runs operations first_op, first_op + 1, ... until `seconds` have passed,
// each on every backend of `backends`; returns the next operation index.
int64_t RunPass(const std::vector<Backend>& backends,
                const std::vector<data::Matrix>& inputs, int64_t first_op,
                double seconds, obs::TraceRecorder* trace, Checker* checker,
                Report* report, PassSamples* samples) {
  const double deadline = NowSeconds() + seconds;
  int64_t op = first_op;
  for (; NowSeconds() < deadline; ++op) {
    const data::Matrix& data = inputs[OpDataset(op)];
    const core::ProclusParams params = OpParams(op);
    for (size_t b = 0; b < backends.size(); ++b) {
      core::ClusterOptions options = backends[b].options;
      options.trace = trace;
      core::ProclusResult result;
      ++report->attempted;
      proclus::Status status;
      const double start = NowSeconds();
      {
        obs::TraceSpan span(trace, "cluster", "bench");
        span.AddArg(obs::TraceArg::Str("backend", backends[b].name));
        status = core::Cluster(data, params, options, &result);
      }
      const double ms = (NowSeconds() - start) * 1e3;
      if (!status.ok()) {
        std::fprintf(stderr, "perfbench: %s call failed: %s\n",
                     backends[b].name, status.ToString().c_str());
      }
      if (!status.ok() ||
          !checker->Check(data, params, result, OpDataset(op))) {
        ++report->failed;
        continue;
      }
      samples->call_ms[b].push_back(ms);
      AddPhases(result.stats, &samples->phase_ms[b]);
    }
  }
  return op;
}

// Set-up: the inputs plus one untimed warm-up call on each backend.
std::unique_ptr<std::vector<data::Matrix>> SetUp(
    const Config& config, const std::vector<Backend>& backends) {
  auto inputs = std::make_unique<std::vector<data::Matrix>>(
      MakeInputs(config, kEngineRows));
  for (const Backend& backend : backends) {
    core::ProclusResult result;
    MustCluster(inputs->front(), WarmUpParams(), backend.options, &result);
  }
  return inputs;
}

}  // namespace

void RunEngine(const Config& config, const std::string& backend,
               Report* report) {
  obs::TraceRecorder recorder;
  const std::vector<Backend> backends = PassBackends(backend, config.trace);
  const std::unique_ptr<std::vector<data::Matrix>> inputs =
      TimedSetup<std::vector<data::Matrix>>(
          config, report,
          [&config, &backends] { return SetUp(config, backends); });
  Checker checker(config.corrupt);
  NoteInputs(report, *inputs);
  std::string ran;
  for (const Backend& b : backends) ran += std::string(" ") + b.label;
  report->Note("engine: " + std::to_string(kInputs) + " inputs of n=" +
               std::to_string(inputs->front().rows()) +
               " d=15, k=10 l=5, closed loop, 1 caller, cycling over " +
               std::to_string(kEngineKeys) + " (dataset, seed) keys on:" +
               ran);
  RunCounts counts;

  if (!config.trace) {
    PassSamples samples;
    RunPass(backends, *inputs, 0, config.seconds, nullptr, &checker, report,
            &samples);
    const Summary calls = Summarize(samples.call_ms[0]);
    ReportSummary(report, "op_ms", "ms", calls);
    ReportSummary(report, std::string(backends[0].label) + "_ms", "ms", calls);
    CompareReferences(*inputs, config.nproc, kCountedReferences,
                      SingleReference, &checker, &counts);
    report->Finish(checker);
    return;
  }

  // Untraced then traced; the GPU-FAST medians of the two give the tracing
  // overhead, and every per-layer figure comes from the traced pass.
  PassSamples untraced;
  const int64_t next = RunPass(backends, *inputs, 0, config.seconds * 0.4,
                               nullptr, &checker, report, &untraced);
  PassSamples traced;
  RunPass(backends, *inputs, next, config.seconds * 0.6, &recorder, &checker,
          report, &traced);

  std::vector<double> call_p50(backends.size());
  for (size_t b = 0; b < backends.size(); ++b) {
    const Summary s = Summarize(traced.call_ms[b]);
    call_p50[b] = s.p50;
    ReportSummary(report, std::string("core.") + backends[b].name + ".call_ms",
                  "ms", s);
    if (b == 0) continue;  // GPU phases come with the simt figures below
    const double runs = static_cast<double>(traced.call_ms[b].size());
    for (const auto& [phase, ms] : traced.phase_ms[b]) {
      report->Set(std::string("core.") + backends[b].name + ".phase_ms." +
                      phase,
                  runs > 0 ? ms / runs : 0.0, "ms");
    }
  }
  ReportGpuLayers(report, ReadTrace(recorder),
                  static_cast<int64_t>(traced.call_ms[0].size()),
                  traced.phase_ms[0]);
  if (call_p50[1] > 0) {
    report->Set("parallel.mc_speedup", call_p50[2] / call_p50[1], "x");
    report->Note("parallel.mc_speedup = core.cpu.call_ms.p50 / "
                 "core.mc.call_ms.p50 = " +
                 std::to_string(call_p50[2]) + " / " +
                 std::to_string(call_p50[1]));
  }
  ReportTraceOverhead(report, Summarize(untraced.call_ms[0]).p50,
                      call_p50[0], "GPU-FAST call");
  ReportSimtProbes(config, inputs->front(), &recorder, report);
  WriteTrace(config, recorder, report);
  CompareReferences(*inputs, config.nproc, kCountedReferences,
                    SingleReference, &checker, &counts);
  counts.Report(report);
  report->Finish(checker);
}

}  // namespace perfbench
