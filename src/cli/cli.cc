#include "cli/cli.h"

#include <charconv>
#include <chrono>
#include <csignal>
#include <fstream>
#include <optional>
#include <thread>

#include "common/timer.h"
#include "core/multi_param.h"
#include "obs/trace.h"
#include "service/proclus_service.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/normalize.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "net/client.h"
#include "net/fault.h"
#include "net/server.h"
#include "store/pds_format.h"

namespace proclus::cli {

namespace {

Status ParseInt(const std::string& value, const std::string& flag,
                int64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), *out);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    return Status::InvalidArgument("expected an integer for " + flag +
                                   ", got '" + value + "'");
  }
  return Status::OK();
}

Status ParseDouble(const std::string& value, const std::string& flag,
                   double* out) {
  char* end = nullptr;
  *out = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("expected a number for " + flag +
                                   ", got '" + value + "'");
  }
  return Status::OK();
}

}  // namespace

std::string UsageText() {
  return R"(proclus_cli - projected clustering with (GPU-FAST-)PROCLUS

Input (one required):
  --input FILE          headerless CSV of floats, one point per row, or a
                        binary .pds dataset (by extension; docs/store.md)
  --labels              the CSV's last column is an integer class label
  --generate N,D,C      synthesize N points, D dims, C subspace clusters

Algorithm:
  --k INT               number of clusters (default 10)
  --l INT               average dimensions per cluster (default 5)
  --A NUM --B NUM       sampling constants (default 100 / 10)
  --min-dev NUM         bad-medoid threshold (default 0.7)
  --itr-pat INT         patience (default 5)
  --seed INT            random seed (default 42)
  --backend NAME        cpu | mc | gpu (default gpu)
  --strategy NAME       baseline | fast | faststar (default fast)
  --threads INT         workers for mc (default: hardware)
  --explore             run the 9-combination (k,l) grid with full reuse
  --simtcheck           run gpu kernels under the simtcheck race & memory
                        checker (docs/simt.md); findings fail the run.
                        PROCLUS_SIMTCHECK=1 in the environment does the
                        same without the flag

Batch mode (proclus_cli batch ...):
  submits jobs to an in-process ProclusService (persistent devices, shared
  worker pool) instead of one blocking run; accepts all flags above plus:
  --jobs K:L[,K:L...]   the jobs to run (default: the configured --k/--l)
  --sweep               submit the --jobs list as one work-sharing sweep
  --shards INT          device-lane budget for --sweep; gpu sweeps shard
                        across up to this many pooled devices (0 = auto)
  --workers INT         concurrent service workers (default 2)
  --gpu-devices INT     pooled devices for gpu jobs (default 1)
  --timeout-ms NUM      per-job deadline, queue wait included (default none)

Serve mode (proclus_cli serve ...):
  hosts the TCP serving layer (docs/serving.md) over an in-process
  ProclusService until SIGINT/SIGTERM, then drains; accepts the batch
  tuning flags above (--timeout-ms = default per-job deadline) plus:
  --host ADDR           listen address (default 127.0.0.1)
  --port INT            listen port; 0 picks one (printed on stdout)
  --max-connections INT concurrent connection budget (default 32)
  --queue-capacity INT  service queue bound -> RESOURCE_EXHAUSTED
                        backpressure when full (default 256)
  --dataset-id NAME     id for the pre-registered --generate/--input
                        dataset (default "default")
  --fault-plan FILE     serve with deterministic fault injection per the
                        JSON plan (docs/serving.md); for chaos testing
  --store-dir DIR       dataset-store spill directory (docs/store.md);
                        datasets evicted under memory pressure reload from
                        here transparently (default: memory-only)
  --store-budget-mb INT resident-bytes budget; past it, unpinned LRU
                        datasets spill to --store-dir (default 0 = none)
  --result-cache-mb INT in-memory budget for the content-addressed result
                        cache (docs/serving.md): identical resubmits are
                        answered from cache, identical concurrent submits
                        run once (default 0 = caching off)
  --result-cache-dir DIR spill directory for evicted cached results
                        (.pcr files; default: evicted results are dropped)

Upload mode (proclus_cli upload ...):
  streams the --input/--generate dataset (normalized unless
  --no-normalize, same as a run) to a running server over the chunked
  binary upload path (docs/store.md) and prints its content hash;
  takes --host/--port (required) and --dataset-id for the target.

Convert mode (proclus_cli convert ...):
  writes the --input/--generate dataset to --output as a binary .pds
  file. Pure format conversion — never normalizes, so a converted CSV
  clusters bit-identically to the original.

Output:
  --output FILE         write per-point cluster ids (-1 = outlier)
  --trace-out FILE      write a Chrome trace_event JSON of the run
                        (open in chrome://tracing or ui.perfetto.dev)
  --no-normalize        skip min-max normalization
  --help                this text
)";
}

Status ParseArgs(const std::vector<std::string>& args, CliConfig* config) {
  if (config == nullptr) {
    return Status::InvalidArgument("config must not be null");
  }
  *config = CliConfig();
  config->options.backend = core::ComputeBackend::kGpu;
  config->options.strategy = core::Strategy::kFast;

  auto next_value = [&args](size_t* i, const std::string& flag,
                            std::string* value) -> Status {
    if (*i + 1 >= args.size()) {
      return Status::InvalidArgument("missing value for " + flag);
    }
    *value = args[++*i];
    return Status::OK();
  };

  size_t start = 0;
  if (!args.empty() && args[0] == "batch") {
    config->batch = true;
    start = 1;
  } else if (!args.empty() && args[0] == "serve") {
    config->serve = true;
    start = 1;
  } else if (!args.empty() && args[0] == "upload") {
    config->upload = true;
    start = 1;
  } else if (!args.empty() && args[0] == "convert") {
    config->convert = true;
    start = 1;
  }

  for (size_t i = start; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string value;
    int64_t int_value = 0;
    if (arg == "--help" || arg == "-h") {
      config->show_help = true;
      return Status::OK();
    } else if (arg == "--input") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &config->input_path));
    } else if (arg == "--labels") {
      config->input_has_labels = true;
    } else if (arg == "--generate") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      config->generate = true;
      const size_t c1 = value.find(',');
      const size_t c2 = value.find(',', c1 + 1);
      if (c1 == std::string::npos || c2 == std::string::npos) {
        return Status::InvalidArgument("--generate expects N,D,C");
      }
      int64_t d = 0;
      int64_t clusters = 0;
      PROCLUS_RETURN_NOT_OK(
          ParseInt(value.substr(0, c1), arg, &config->gen_n));
      PROCLUS_RETURN_NOT_OK(
          ParseInt(value.substr(c1 + 1, c2 - c1 - 1), arg, &d));
      PROCLUS_RETURN_NOT_OK(ParseInt(value.substr(c2 + 1), arg, &clusters));
      config->gen_d = static_cast<int>(d);
      config->gen_clusters = static_cast<int>(clusters);
    } else if (arg == "--k") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseInt(value, arg, &int_value));
      config->params.k = static_cast<int>(int_value);
    } else if (arg == "--l") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseInt(value, arg, &int_value));
      config->params.l = static_cast<int>(int_value);
    } else if (arg == "--A") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseDouble(value, arg, &config->params.a));
    } else if (arg == "--B") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseDouble(value, arg, &config->params.b));
    } else if (arg == "--min-dev") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(
          ParseDouble(value, arg, &config->params.min_dev));
    } else if (arg == "--itr-pat") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseInt(value, arg, &int_value));
      config->params.itr_pat = static_cast<int>(int_value);
    } else if (arg == "--seed") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseInt(value, arg, &int_value));
      config->params.seed = static_cast<uint64_t>(int_value);
    } else if (arg == "--backend") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(
          core::BackendFromToken(value, &config->options.backend));
    } else if (arg == "--strategy") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(
          core::StrategyFromToken(value, &config->options.strategy));
    } else if (arg == "--threads") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseInt(value, arg, &int_value));
      config->options.num_threads = static_cast<int>(int_value);
    } else if (arg == "--explore") {
      config->explore = true;
    } else if (arg == "--simtcheck") {
      config->simtcheck = true;
    } else if (arg == "--jobs") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      size_t pos = 0;
      while (pos <= value.size()) {
        size_t comma = value.find(',', pos);
        if (comma == std::string::npos) comma = value.size();
        const std::string entry = value.substr(pos, comma - pos);
        const size_t colon = entry.find(':');
        if (colon == std::string::npos) {
          return Status::InvalidArgument("--jobs expects K:L[,K:L...], got '" +
                                         entry + "'");
        }
        int64_t k = 0;
        int64_t l = 0;
        PROCLUS_RETURN_NOT_OK(ParseInt(entry.substr(0, colon), arg, &k));
        PROCLUS_RETURN_NOT_OK(ParseInt(entry.substr(colon + 1), arg, &l));
        config->batch_jobs.emplace_back(static_cast<int>(k),
                                        static_cast<int>(l));
        pos = comma + 1;
      }
    } else if (arg == "--sweep") {
      config->batch_sweep = true;
    } else if (arg == "--shards") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseInt(value, arg, &int_value));
      config->batch_shards = static_cast<int>(int_value);
      config->batch_tuning_seen = true;
    } else if (arg == "--workers") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseInt(value, arg, &int_value));
      config->batch_workers = static_cast<int>(int_value);
      config->batch_tuning_seen = true;
    } else if (arg == "--gpu-devices") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseInt(value, arg, &int_value));
      config->batch_gpu_devices = static_cast<int>(int_value);
      config->batch_tuning_seen = true;
    } else if (arg == "--timeout-ms") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseDouble(value, arg, &config->batch_timeout_ms));
      config->batch_tuning_seen = true;
    } else if (arg == "--host") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &config->serve_host));
      config->serve_flag_seen = true;
    } else if (arg == "--port") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseInt(value, arg, &int_value));
      config->serve_port = static_cast<int>(int_value);
      config->serve_flag_seen = true;
    } else if (arg == "--max-connections") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseInt(value, arg, &int_value));
      config->serve_max_connections = static_cast<int>(int_value);
      config->serve_flag_seen = true;
    } else if (arg == "--queue-capacity") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseInt(value, arg, &int_value));
      config->serve_queue_capacity = static_cast<int>(int_value);
      config->serve_flag_seen = true;
    } else if (arg == "--dataset-id") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &config->serve_dataset_id));
      config->serve_flag_seen = true;
    } else if (arg == "--fault-plan") {
      PROCLUS_RETURN_NOT_OK(
          next_value(&i, arg, &config->serve_fault_plan_path));
      config->serve_flag_seen = true;
    } else if (arg == "--store-dir") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &config->store_dir));
      config->store_flag_seen = true;
    } else if (arg == "--store-budget-mb") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseInt(value, arg, &config->store_budget_mb));
      config->store_flag_seen = true;
    } else if (arg == "--result-cache-dir") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &config->result_cache_dir));
      config->result_cache_flag_seen = true;
    } else if (arg == "--result-cache-mb") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &value));
      PROCLUS_RETURN_NOT_OK(ParseInt(value, arg, &config->result_cache_mb));
      config->result_cache_flag_seen = true;
    } else if (arg == "--output") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &config->output_path));
    } else if (arg == "--trace-out") {
      PROCLUS_RETURN_NOT_OK(next_value(&i, arg, &config->trace_out_path));
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      config->trace_out_path = arg.substr(std::string("--trace-out=").size());
      if (config->trace_out_path.empty()) {
        return Status::InvalidArgument("missing value for --trace-out");
      }
    } else if (arg == "--no-normalize") {
      config->normalize = false;
    } else {
      return Status::InvalidArgument("unknown flag: " + arg +
                                     " (see --help)");
    }
  }
  if (config->input_path.empty() && !config->generate && !config->serve) {
    return Status::InvalidArgument(
        "either --input or --generate is required (see --help)");
  }
  if (!config->input_path.empty() && config->generate) {
    return Status::InvalidArgument("--input and --generate are exclusive");
  }
  if (!config->batch && !config->serve &&
      (!config->batch_jobs.empty() || config->batch_sweep ||
       config->batch_tuning_seen)) {
    return Status::InvalidArgument(
        "--jobs/--sweep/--shards/--workers/--gpu-devices/--timeout-ms "
        "require batch mode (proclus_cli batch ...)");
  }
  if (config->serve &&
      (!config->batch_jobs.empty() || config->batch_sweep)) {
    return Status::InvalidArgument(
        "--jobs/--sweep make no sense in serve mode; clients submit jobs");
  }
  if (config->serve && (config->explore || !config->output_path.empty())) {
    return Status::InvalidArgument(
        "--explore/--output make no sense in serve mode");
  }
  if (!config->serve && !config->upload && config->serve_flag_seen) {
    return Status::InvalidArgument(
        "--host/--port/--max-connections/--queue-capacity/--dataset-id/"
        "--fault-plan require serve or upload mode");
  }
  if (!config->serve && config->store_flag_seen) {
    return Status::InvalidArgument(
        "--store-dir/--store-budget-mb require serve mode "
        "(proclus_cli serve ...)");
  }
  if (config->store_budget_mb < 0) {
    return Status::InvalidArgument("--store-budget-mb must be >= 0");
  }
  if (!config->serve && config->result_cache_flag_seen) {
    return Status::InvalidArgument(
        "--result-cache-mb/--result-cache-dir require serve mode "
        "(proclus_cli serve ...)");
  }
  if (config->result_cache_mb < 0) {
    return Status::InvalidArgument("--result-cache-mb must be >= 0");
  }
  if (!config->result_cache_dir.empty() && config->result_cache_mb == 0) {
    return Status::InvalidArgument(
        "--result-cache-dir requires --result-cache-mb > 0");
  }
  if (config->upload && config->serve_port <= 0) {
    return Status::InvalidArgument("upload mode requires --port");
  }
  if (config->upload && (config->explore || !config->output_path.empty())) {
    return Status::InvalidArgument(
        "--explore/--output make no sense in upload mode");
  }
  if (config->convert && config->explore) {
    return Status::InvalidArgument(
        "--explore makes no sense in convert mode");
  }
  if (config->convert && config->output_path.empty()) {
    return Status::InvalidArgument(
        "convert mode requires --output FILE.pds");
  }
  if (config->batch && config->explore) {
    return Status::InvalidArgument("--explore and batch mode are exclusive");
  }
  if (config->batch && config->batch_jobs.empty()) {
    config->batch_jobs.emplace_back(config->params.k, config->params.l);
  }
  if (config->simtcheck) {
    if (!config->serve && config->options.backend != core::ComputeBackend::kGpu) {
      return Status::InvalidArgument("--simtcheck requires --backend gpu");
    }
    if (!config->serve) config->options.gpu_sanitize = true;
  }
  return Status::OK();
}

namespace {

void PrintResult(const core::ProclusResult& result,
                 const data::Dataset& dataset, double wall_seconds,
                 std::ostream& out) {
  out << "iterations: " << result.stats.iterations
      << "  iterative cost: " << result.iterative_cost
      << "  refined cost: " << result.refined_cost << "\n";
  out << "wall time: " << wall_seconds * 1e3 << " ms";
  if (result.stats.modeled_gpu_seconds > 0.0) {
    out << "  (modeled device time: "
        << result.stats.modeled_gpu_seconds * 1e3 << " ms)";
  }
  out << "\n";
  out << eval::FormatClusterTable(eval::Digest(dataset.points, result));
  out << "outliers: " << result.NumOutliers() << "\n";
  if (result.stats.sanitizer_checked_accesses > 0) {
    out << "simtcheck: " << result.stats.sanitizer_checked_accesses
        << " accesses checked, " << result.stats.sanitizer_findings
        << " finding(s)\n";
  }
  if (dataset.has_ground_truth()) {
    out << "ARI vs labels: "
        << eval::AdjustedRandIndex(dataset.labels, result.assignment)
        << "\n";
  }
}

Status WriteAssignment(const std::vector<int>& assignment,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  for (const int c : assignment) out << c << '\n';
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

// Writes the recorded trace to `path` and reports it. No-op without a
// recorder.
Status WriteTrace(const obs::TraceRecorder* trace, const std::string& path,
                  std::ostream& out) {
  if (trace == nullptr) return Status::OK();
  PROCLUS_RETURN_NOT_OK(trace->WriteFile(path));
  out << "trace written to " << path << " (" << trace->event_count()
      << " events)\n";
  return Status::OK();
}

// Batch mode: run the configured jobs through a ProclusService so they
// share the worker pool and persistent devices, then report per-job lines
// and the service's aggregate counters.
Status RunBatch(const CliConfig& config, const data::Dataset& dataset,
                obs::TraceRecorder* trace, std::ostream& out) {
  service::ServiceOptions service_options;
  service_options.num_workers = config.batch_workers;
  service_options.gpu_devices = config.batch_gpu_devices;
  service_options.default_timeout_seconds = config.batch_timeout_ms / 1e3;
  service_options.sanitize_devices |= config.simtcheck;
  service_options.trace = trace;
  service::ProclusService service(service_options);
  PROCLUS_RETURN_NOT_OK(service.RegisterDataset("cli", dataset.points));

  std::vector<core::ParamSetting> settings;
  settings.reserve(config.batch_jobs.size());
  for (const auto& [k, l] : config.batch_jobs) settings.push_back({k, l});

  std::vector<service::JobHandle> handles;
  if (config.batch_sweep) {
    service::JobSpec spec;
    spec.kind = service::JobKind::kSweep;
    spec.dataset_id = "cli";
    spec.params = config.params;
    spec.sweep = core::SweepSpec{settings, core::ReuseLevel::kWarmStart,
                                 config.batch_shards};
    spec.options = config.options;
    handles.resize(1);
    PROCLUS_RETURN_NOT_OK(service.Submit(std::move(spec), &handles[0]));
  } else {
    handles.resize(settings.size());
    for (size_t i = 0; i < settings.size(); ++i) {
      service::JobSpec spec;
      spec.dataset_id = "cli";
      spec.params = config.params;
      spec.params.k = settings[i].k;
      spec.params.l = settings[i].l;
      spec.options = config.options;
      PROCLUS_RETURN_NOT_OK(service.Submit(std::move(spec), &handles[i]));
    }
  }

  const core::ProclusResult* last_result = nullptr;
  Status first_failure = Status::OK();
  size_t setting_idx = 0;
  for (const service::JobHandle& handle : handles) {
    const service::JobResult& result = handle.Wait();
    if (!result.status.ok()) {
      out << "job " << handle.id() << ": " << service::JobPhaseName(
                 handle.phase())
          << " (" << result.status.ToString() << ")\n";
      for (const std::string& report : result.sanitizer_reports) {
        out << "  " << report << "\n";
      }
      if (first_failure.ok()) first_failure = result.status;
      setting_idx += config.batch_sweep ? settings.size() : 1;
      continue;
    }
    for (const core::ProclusResult& r : result.results) {
      out << "k=" << settings[setting_idx].k
          << " l=" << settings[setting_idx].l
          << "  refined cost: " << r.refined_cost
          << "  outliers: " << r.NumOutliers();
      if (result.warm_device) out << "  [warm device]";
      out << "\n";
      last_result = &r;
      ++setting_idx;
    }
  }

  const service::ServiceStats stats = service.stats();
  out << "batch: " << stats.completed << " completed, " << stats.failed
      << " failed, " << stats.timed_out << " timed out; device reuse "
      << stats.device_reuse_hits << "/" << stats.device_acquires;
  if (stats.sweep_shards_total > 0) {
    out << "; sweep shards " << stats.sweep_shards_total;
  }
  if (stats.modeled_gpu_seconds_total > 0.0) {
    out << "; modeled device time "
        << stats.modeled_gpu_seconds_total * 1e3 << " ms";
  }
  out << "\n";

  if (!config.output_path.empty() && last_result != nullptr) {
    PROCLUS_RETURN_NOT_OK(
        WriteAssignment(last_result->assignment, config.output_path));
    out << "assignment written to " << config.output_path << "\n";
  }
  PROCLUS_RETURN_NOT_OK(WriteTrace(trace, config.trace_out_path, out));
  return first_failure;
}

bool IsPdsPath(const std::string& path) {
  const std::string ext = store::kPdsExtension;
  return path.size() > ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

// Loads the configured input into `dataset`: --generate synthesizes (the
// same pipeline serve-mode registration uses), a .pds path reads the
// binary format, anything else parses as CSV. Normalization is the
// caller's business.
Status LoadInput(const CliConfig& config, data::Dataset* dataset) {
  *dataset = data::Dataset();
  if (config.generate) {
    data::GeneratorConfig gen;
    gen.n = config.gen_n;
    gen.d = config.gen_d;
    gen.num_clusters = config.gen_clusters;
    gen.subspace_dim = std::max(2, config.gen_d / 3);
    gen.seed = config.params.seed;
    return data::GenerateSubspaceData(gen, dataset);
  }
  if (IsPdsPath(config.input_path)) {
    if (config.input_has_labels) {
      return Status::InvalidArgument(
          ".pds files carry no labels; --labels applies to CSV input only");
    }
    return store::ReadPds(config.input_path, &dataset->points);
  }
  return data::ReadCsv(config.input_path, config.input_has_labels, dataset);
}

// Set by the SIGINT/SIGTERM handler serve mode installs; polled by the
// RunServe wait loop. sig_atomic_t is the only type a handler may touch.
volatile std::sig_atomic_t g_serve_stop_requested = 0;

void HandleServeStopSignal(int /*signum*/) { g_serve_stop_requested = 1; }

}  // namespace

Status RunServe(const CliConfig& config, std::ostream& out) {
  // Constructed before (so destroyed after) the service and server that
  // hold pointers into it.
  std::optional<net::FaultInjector> fault;
  if (!config.serve_fault_plan_path.empty()) {
    net::FaultPlan plan;
    PROCLUS_RETURN_NOT_OK(
        net::FaultPlan::FromFile(config.serve_fault_plan_path, &plan));
    fault.emplace(plan);
  }

  service::ServiceOptions service_options;
  service_options.num_workers = config.batch_workers;
  service_options.gpu_devices = config.batch_gpu_devices;
  service_options.queue_capacity = config.serve_queue_capacity;
  service_options.default_timeout_seconds = config.batch_timeout_ms / 1e3;
  service_options.sanitize_devices |= config.simtcheck;
  service_options.store_dir = config.store_dir;
  service_options.store_budget_bytes =
      config.store_budget_mb * (int64_t{1} << 20);
  service_options.result_cache_bytes =
      config.result_cache_mb * (int64_t{1} << 20);
  service_options.result_cache_dir = config.result_cache_dir;
  if (fault.has_value()) {
    service_options.device_fault_hook = fault->DeviceFaultHook();
  }
  service::ProclusService service(service_options);
  if (!config.store_dir.empty()) {
    out << "dataset store at " << config.store_dir;
    if (config.store_budget_mb > 0) {
      out << " (budget " << config.store_budget_mb << " MiB)";
    }
    out << "\n";
  }
  if (config.result_cache_mb > 0) {
    out << "result cache on (budget " << config.result_cache_mb << " MiB";
    if (!config.result_cache_dir.empty()) {
      out << ", spill to " << config.result_cache_dir;
    }
    out << ")\n";
  }

  if (config.generate || !config.input_path.empty()) {
    data::Dataset dataset;
    PROCLUS_RETURN_NOT_OK(LoadInput(config, &dataset));
    if (config.normalize) data::MinMaxNormalize(&dataset.points);
    const int64_t n = dataset.n();
    const int64_t d = dataset.d();
    PROCLUS_RETURN_NOT_OK(service.RegisterDataset(
        config.serve_dataset_id, std::move(dataset.points)));
    out << "registered dataset '" << config.serve_dataset_id << "' (" << n
        << " x " << d << ")\n";
  }

  net::ServerOptions server_options;
  server_options.host = config.serve_host;
  server_options.port = config.serve_port;
  server_options.max_connections = config.serve_max_connections;
  if (fault.has_value()) server_options.fault = &*fault;
  net::ProclusServer server(&service, server_options);
  PROCLUS_RETURN_NOT_OK(server.Start());
  if (fault.has_value()) {
    out << "fault injection enabled (seed " << fault->plan().seed << ", plan "
        << config.serve_fault_plan_path << ")\n";
  }
  // The smoke stage in tools/ci.sh greps this line for the bound port, so
  // it must come out before the process blocks.
  out << "serving on " << server.host() << ":" << server.port() << "\n"
      << std::flush;

  g_serve_stop_requested = 0;
  std::signal(SIGINT, HandleServeStopSignal);
  std::signal(SIGTERM, HandleServeStopSignal);
  while (g_serve_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  out << "stop requested; draining\n" << std::flush;
  server.Stop();
  service.Shutdown();
  const service::ServiceStats stats = service.stats();
  out << "drained: " << stats.submitted << " submitted, " << stats.completed
      << " completed, " << stats.failed << " failed, " << stats.cancelled
      << " cancelled, " << stats.timed_out << " timed out, "
      << stats.rejected << " rejected\n"
      << std::flush;
  if (fault.has_value()) {
    out << "faults injected: " << fault->injected_total() << "\n"
        << std::flush;
  }
  return Status::OK();
}

Status RunUpload(const CliConfig& config, std::ostream& out) {
  data::Dataset dataset;
  PROCLUS_RETURN_NOT_OK(LoadInput(config, &dataset));
  // Same default normalization as a run, so an uploaded dataset clusters
  // identically to `proclus_cli --input ...` on the same file.
  if (config.normalize) data::MinMaxNormalize(&dataset.points);
  net::ProclusClient client;
  PROCLUS_RETURN_NOT_OK(client.Connect(config.serve_host, config.serve_port));
  std::string hash;
  bool deduped = false;
  PROCLUS_RETURN_NOT_OK(client.UploadDataset(
      config.serve_dataset_id, dataset.points, /*chunk_bytes=*/0, &hash,
      &deduped));
  out << "uploaded '" << config.serve_dataset_id << "' (" << dataset.n()
      << " x " << dataset.d() << ", hash " << hash
      << (deduped ? ", deduplicated)" : ")") << "\n";
  return Status::OK();
}

Status RunConvert(const CliConfig& config, std::ostream& out) {
  data::Dataset dataset;
  PROCLUS_RETURN_NOT_OK(LoadInput(config, &dataset));
  PROCLUS_RETURN_NOT_OK(store::WritePds(dataset.points, config.output_path));
  out << "wrote " << dataset.n() << " x " << dataset.d() << " to "
      << config.output_path << "\n";
  return Status::OK();
}

Status RunCli(const CliConfig& config, std::ostream& out) {
  if (config.show_help) {
    out << UsageText();
    return Status::OK();
  }
  if (config.serve) return RunServe(config, out);
  if (config.upload) return RunUpload(config, out);
  if (config.convert) return RunConvert(config, out);

  data::Dataset dataset;
  PROCLUS_RETURN_NOT_OK(LoadInput(config, &dataset));
  if (config.generate) {
    out << "generated " << dataset.n() << " points, " << dataset.d()
        << " dims, " << config.gen_clusters << " clusters\n";
  } else {
    out << "loaded " << dataset.n() << " points, " << dataset.d()
        << " dims from " << config.input_path << "\n";
  }
  if (config.normalize) data::MinMaxNormalize(&dataset.points);

  out << "variant: "
      << core::VariantName(config.options.backend, config.options.strategy)
      << "\n";

  obs::TraceRecorder trace_recorder;
  obs::TraceRecorder* trace =
      config.trace_out_path.empty() ? nullptr : &trace_recorder;

  if (config.batch) return RunBatch(config, dataset, trace, out);

  if (config.explore) {
    const core::SweepSpec sweep = core::SweepSpec::Grid(
        config.params, dataset.points.cols(), core::ReuseLevel::kWarmStart);
    const std::vector<core::ParamSetting>& grid = sweep.settings;
    core::MultiParamOptions mp;
    mp.cluster = config.options;
    mp.cluster.trace = trace;
    core::MultiParamResult output;
    PROCLUS_RETURN_NOT_OK(core::RunMultiParam(dataset.points, config.params,
                                              sweep, mp, &output));
    out << "explored " << grid.size() << " settings in "
        << output.total_seconds * 1e3 << " ms\n";
    for (size_t i = 0; i < grid.size(); ++i) {
      out << "k=" << grid[i].k << " l=" << grid[i].l
          << "  refined cost: " << output.results[i].refined_cost
          << "  outliers: " << output.results[i].NumOutliers() << "\n";
    }
    if (!config.output_path.empty()) {
      // Write the assignment of the last setting.
      PROCLUS_RETURN_NOT_OK(WriteAssignment(
          output.results.back().assignment, config.output_path));
      out << "assignment written to " << config.output_path << "\n";
    }
    return WriteTrace(trace, config.trace_out_path, out);
  }

  StopWatch watch;
  core::ClusterOptions options = config.options;
  options.trace = trace;
  core::ProclusResult result;
  const Status run_status =
      core::Cluster(dataset.points, config.params, options, &result);
  if (!run_status.ok()) {
    // simtcheck failures carry the detailed violation reports; show them
    // before the non-zero exit.
    for (const std::string& report : result.stats.sanitizer_reports) {
      out << report << "\n";
    }
    return run_status;
  }
  PrintResult(result, dataset, watch.ElapsedSeconds(), out);
  if (!config.output_path.empty()) {
    PROCLUS_RETURN_NOT_OK(
        WriteAssignment(result.assignment, config.output_path));
    out << "assignment written to " << config.output_path << "\n";
  }
  return WriteTrace(trace, config.trace_out_path, out);
}

}  // namespace proclus::cli
