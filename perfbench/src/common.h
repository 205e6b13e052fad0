#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

// Shared pieces of the repository benchmark: run configuration, the metric
// report, sample summaries, the correctness checker, trace digestion and
// the simulator probes every workload reports. The benchmark only calls the
// library's public API and times each layer from outside; it adds no timing
// inside src/.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/api.h"
#include "core/params.h"
#include "core/result.h"
#include "data/matrix.h"
#include "obs/trace.h"
#include "service/proclus_service.h"

namespace perfbench {

namespace core = proclus::core;
namespace data = proclus::data;
namespace obs = proclus::obs;

// One benchmark run, as given on the command line.
struct Config {
  std::string workload;
  uint64_t seed = 1;      // workload seed: every input is generated from it
  double seconds = 10.0;  // measured window of the run
  bool trace = false;     // false: end-to-end pass; true: traced pass
  double scale = 1.0;     // multiplies every dataset size (smoke test: tiny)
  bool corrupt = false;   // corrupt the first result before it is checked
  std::string out_dir;    // trace files land here
  int nproc = 1;          // CPUs this process may run on
};

// Set-up is repeated this many times per end-to-end run; setup_s is the
// median. The traced pass sets up once.
inline constexpr int kSetupRepeats = 3;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload measured: metrics in insertion order, the operation
// counts, and human-readable notes (sample counts, ratio bases, settings).
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::string trace_file;  // traced pass only

  // Adds or overwrites `name`.
  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line) { notes.push_back(line); }
  // Folds a checker's verdicts in: invalid results make the run incorrect,
  // digest mismatches are only counted; sets failed_frac.
  void Finish(const class Checker& checker);
};

// Median and tail of a latency sample. The tail is the highest percentile
// that still has at least ten samples beyond it: the sample with exactly
// ten larger ones (or the maximum when there are ten samples or fewer).
struct Summary {
  int64_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
};
Summary Summarize(std::vector<double> samples);

// Sets "<name>.p50" and "<name>.tail" and notes the tail's percentile and
// sample count.
void ReportSummary(Report* report, const std::string& name,
                   const std::string& unit, const Summary& summary);

double Median(std::vector<double> values);

// FNV-1a digest of a clustering's medoids, dimensions and assignment.
uint64_t ResultDigest(const core::ProclusResult& result);
// FNV-1a digest of a matrix's values (proves two seeds give two inputs).
uint64_t MatrixDigest(const data::Matrix& matrix);

// Notes one digest over all inputs ("input_digest: <16 hex digits>").
void NoteInputs(Report* report, const std::vector<data::Matrix>& inputs);

// The paper's default synthetic shape (d=15, 10 clusters in 5-dim
// subspaces, stddev 5), min-max normalized, generated from `seed`.
data::Matrix MakeData(int64_t n, uint64_t seed);

// Every workload cycles its operations over this many datasets, so a run's
// figures average over several inputs rather than hinge on one.
inline constexpr int kInputs = 16;

// Parameters of the untimed warm-up operation that ends every set-up:
// capped at 6 iterations, the fewest any run stops after (one improving
// iteration plus itr_pat=5), so set-up work does not depend on how the
// input's trajectory happens to go.
core::ProclusParams WarmUpParams();

// The run's kInputs datasets of `rows` (scaled) rows, from config.seed.
std::vector<data::Matrix> MakeInputs(const Config& config, int64_t rows);

// Rows scaled by Config::scale, never below a size PROCLUS can run on.
int64_t ScaledRows(const Config& config, int64_t rows);

// Runs fn(0..count-1) on `threads` host threads and waits for all of them.
void RunParallel(int64_t count, int threads,
                 const std::function<void(int64_t)>& fn);

// A checked clustering: which of the run's inputs, which seed, which sweep
// setting (0 for single runs), and its digest.
struct Observed {
  int dataset = 0;
  uint64_t seed = 0;
  int setting = 0;
  uint64_t digest = 0;
};

// Checks results outside the timed region: eval::ValidateResult must pass
// (an invalid result fails the run), and after the measured window every
// assignment digest is compared with the 1-core FAST reference for the same
// data and seed (a mismatch is only counted).
class Checker {
 public:
  explicit Checker(bool corrupt_first) : corrupt_next_(corrupt_first) {}

  // Validates `result` and remembers its digest. Returns false when the
  // result is invalid.
  bool Check(const data::Matrix& data, const core::ProclusParams& params,
             const core::ProclusResult& result, int dataset, int setting = 0);

  const std::vector<Observed>& observed() const { return observed_; }
  void AddMismatches(int64_t count) { digest_mismatches_ += count; }
  int64_t invalid() const { return invalid_; }
  int64_t digest_mismatches() const { return digest_mismatches_; }

 private:
  bool corrupt_next_;
  int64_t invalid_ = 0;
  int64_t digest_mismatches_ = 0;
  std::vector<Observed> observed_;
};

// Work counts of the reference runs. They repeat exactly for a workload
// seed; a change means the trajectory changed, not the speed.
struct RunCounts {
  int64_t runs = 0;
  int64_t iterations = 0;
  int64_t euclidean_distances = 0;
  int64_t segmental_distances = 0;

  void Add(const core::RunStats& stats);
  // Sets core.iterations, core.euclidean_distances, core.segmental_distances.
  void Report(perfbench::Report* report) const;
};

// Single runs sum the work counts over this many references.
inline constexpr size_t kCountedReferences = 16;

// The reference results of one (dataset, seed) key, indexed by
// Observed::setting (a single run has one).
using ReferenceFn = std::function<std::vector<core::ProclusResult>(
    const data::Matrix& data, uint64_t seed)>;

// The 1-core FAST run of `seed` on `data`: the reference of a single run.
std::vector<core::ProclusResult> SingleReference(const data::Matrix& data,
                                                 uint64_t seed);

// Computes the reference of every distinct (dataset, seed) the checker saw,
// on `threads` threads, and counts digest mismatches. The work counts of the
// first `counted_keys` keys in operation order go to `counts`, so they do
// not depend on how many operations a run fits.
void CompareReferences(const std::vector<data::Matrix>& inputs, int threads,
                       size_t counted_keys, const ReferenceFn& reference,
                       Checker* checker, RunCounts* counts);

// core::Cluster for reference runs: a failure there is a
// harness error, so it ends the process with a non-zero exit code.
void MustCluster(const data::Matrix& data, const core::ProclusParams& params,
                 const core::ClusterOptions& options,
                 core::ProclusResult* result);

// Sets obs.trace_overhead_frac (traced over untraced, minus one) with both
// bases.
void ReportTraceOverhead(Report* report, double untraced_ms, double traced_ms,
                         const std::string& what);

// Sets service.device_reuse_ratio and its base service.device_acquires
// from two ServiceStats snapshots.
void ReportDeviceReuse(Report* report,
                       const proclus::service::ServiceStats& before,
                       const proclus::service::ServiceStats& after);

// Per-kernel totals and per-span totals read back from a trace.
struct TraceTotals {
  struct Kernel {
    double threads = 0.0;
    double modeled_ms = 0.0;
  };
  std::map<std::string, Kernel> kernels;  // category "kernel"
  int64_t launches = 0;
  double threads = 0.0;
  double modeled_ms = 0.0;
  // Wall ms summed per span name, for the engines' "backend" spans.
  std::map<std::string, double> backend_ms;
};
TraceTotals ReadTrace(const obs::TraceRecorder& recorder);

// Sets the simt.* and core.gpu.phase_ms.* metrics from a traced pass that
// executed `gpu_runs` GPU clusterings. `phase_ms` holds the GPU phase wall
// ms summed over those runs (keys are RunStats phase names); empty means
// "derive from the trace's backend spans".
void ReportGpuLayers(Report* report, const TraceTotals& totals,
                     int64_t gpu_runs, std::map<std::string, double> phase_ms);

// Adds the RunStats phase walls of `stats` (ms) to `phase_ms`.
void AddPhases(const core::RunStats& stats,
               std::map<std::string, double>* phase_ms);

// Simulator probes, run on explicit devices with explicit host_workers:
//   simt.device_setup_ms — median construct+destroy of a Device;
//   simt.worker_speedup  — GPU-FAST on `data` at 1 host worker over
//                          nproc host workers, with both bases.
// Device set-up is wrapped in the benchmark's own "device_setup" span.
void ReportSimtProbes(const Config& config, const data::Matrix& data,
                      obs::TraceRecorder* trace, Report* report);

// Writes the trace to <out_dir>/trace-<workload>-seed<seed>.json and notes
// the path.
void WriteTrace(const Config& config, const obs::TraceRecorder& recorder,
                Report* report);

// Times `make` kSetupRepeats times (once when tracing), sets setup_s to the
// median and returns the last state.
template <typename State>
std::unique_ptr<State> TimedSetup(
    const Config& config, Report* report,
    const std::function<std::unique_ptr<State>()>& make);

double NowSeconds();

// Sets setup_s to the median of `seconds` and notes every value.
void ReportSetup(Report* report, const std::vector<double>& seconds);

template <typename State>
std::unique_ptr<State> TimedSetup(
    const Config& config, Report* report,
    const std::function<std::unique_ptr<State>()>& make) {
  const int repeats = config.trace ? 1 : kSetupRepeats;
  std::vector<double> seconds;
  std::unique_ptr<State> state;
  for (int i = 0; i < repeats; ++i) {
    state.reset();  // tear the previous set-up down before timing the next
    const double start = NowSeconds();
    state = make();
    seconds.push_back(NowSeconds() - start);
  }
  ReportSetup(report, seconds);
  return state;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
