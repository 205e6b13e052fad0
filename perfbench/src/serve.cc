// `serve`: open loop at a fixed rate against a loopback ProclusServer. The
// server has 2 GPU devices, 2 workers and the result cache on; the n=16k
// datasets are shipped once through the chunked upload path. Requests are
// GPU-FAST singles, half interactive, each with a distinct seed, except a
// fixed share that deterministically repeats an earlier request's key, so
// cache hits run beside cache misses (execute, insert). Latency is timed
// from each request's due time. The client is the benchmark's own, on
// net::ProclusClient: it returns per-request server timings and every
// result, which are checked after the measured window.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "service/proclus_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace net = proclus::net;
namespace service = proclus::service;

constexpr int64_t kServeRows = 16000;
// Offered requests per second: 20% of the ~75 req/s saturation measured on
// a 4-core host, which leaves the queue headroom when a shared host slows
// the simulator. Edit it to measure saturation again.
constexpr double kServeRate = 15.0;
// Share of arrivals that repeat an earlier arrival's key (cache hits).
constexpr double kRepeatShare = 0.25;
// Latency limit for net.slo_frac.
constexpr double kSloMs = 100.0;
constexpr int kMaxConnections = 4;
constexpr int64_t kUploadChunkBytes = 256 * 1024;
constexpr uint64_t kFirstRequestSeed = 1000;

struct Arrival {
  // Index of the distinct request: dataset key % kInputs, seed
  // kFirstRequestSeed + key.
  int64_t key = 0;
  bool interactive = false;
};

// The whole run's arrivals, decided from the workload seed alone.
std::vector<Arrival> Schedule(uint64_t seed, int64_t count) {
  proclus::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<Arrival> arrivals(count);
  int64_t next_key = 0;
  for (int64_t j = 0; j < count; ++j) {
    arrivals[j].interactive = j % 2 == 0;
    const bool repeat = j > 0 && rng.NextDouble() < kRepeatShare;
    arrivals[j].key = repeat ? arrivals[rng.UniformInt(j)].key : next_key++;
  }
  return arrivals;
}

int KeyDataset(int64_t key) { return static_cast<int>(key % kInputs); }
std::string DatasetId(int dataset) {
  return "perfbench-" + std::to_string(dataset);
}
core::ProclusParams KeyParams(int64_t key) {
  core::ProclusParams params;
  params.seed = kFirstRequestSeed + static_cast<uint64_t>(key);
  return params;
}

net::Request SubmitRequest(int dataset, const core::ProclusParams& params,
                           bool interactive) {
  net::Request request;
  request.type = net::RequestType::kSubmitSingle;
  request.dataset_id = DatasetId(dataset);
  request.params = params;
  request.options = core::ClusterOptions::Gpu();
  request.priority = interactive ? service::JobPriority::kInteractive
                                 : service::JobPriority::kBulk;
  request.wait = true;
  return request;
}

struct ServeState {
  std::vector<data::Matrix> inputs;
  std::vector<Arrival> arrivals;
  double upload_seconds = 0.0;
  // Declared in this order so the server stops before the service goes.
  std::unique_ptr<service::ProclusService> service;
  std::unique_ptr<net::ProclusServer> server;
};

// Set-up: the inputs, the service and server, the chunked upload of every
// input, and one untimed warm-up request (a seed no arrival uses).
std::unique_ptr<ServeState> SetUp(const Config& config, int64_t arrivals,
                                  obs::TraceRecorder* trace) {
  auto state = std::make_unique<ServeState>();
  state->inputs = MakeInputs(config, kServeRows);
  state->arrivals = Schedule(config.seed, arrivals);

  service::ServiceOptions options;
  options.num_workers = 2;
  options.gpu_devices = 2;
  options.prewarm_devices = true;
  options.result_cache_bytes = int64_t{256} << 20;
  options.trace = trace;
  state->service = std::make_unique<service::ProclusService>(options);
  state->server = std::make_unique<net::ProclusServer>(state->service.get());
  proclus::Status status = state->server->Start();
  net::ProclusClient client;
  if (status.ok()) status = client.Connect("127.0.0.1", state->server->port());
  const double start = NowSeconds();
  for (int d = 0; status.ok() && d < kInputs; ++d) {
    obs::TraceSpan span(trace, "client.upload", "bench");
    status = client.UploadDataset(DatasetId(d), state->inputs[d],
                                  kUploadChunkBytes);
  }
  state->upload_seconds = NowSeconds() - start;
  // The warm-up is set-up work: keep it out of the traced figures.
  if (trace != nullptr) trace->set_enabled(false);
  net::WireJobResult warm_up;
  if (status.ok()) {
    status = client.SubmitSingle(SubmitRequest(0, WarmUpParams(), true),
                                 &warm_up);
  }
  if (trace != nullptr) trace->set_enabled(true);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: serve set-up failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  return state;
}

struct Outcome {
  bool ok = false;
  bool hit = false;
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  double queue_seconds = 0.0;
  double exec_seconds = 0.0;
  core::ProclusResult result;
};

// Sends arrivals [begin, end) at kServeRate from up to kMaxConnections
// connections and returns one outcome per arrival.
std::vector<Outcome> SendArrivals(const Config& config, const ServeState& state,
                                  int64_t begin, int64_t end,
                                  obs::TraceRecorder* trace) {
  std::vector<Outcome> outcomes(end - begin);
  std::atomic<int64_t> next{begin};
  const double t0 = NowSeconds() + 0.05;
  const int port = state.server->port();
  auto sender = [&] {
    net::ProclusClient client;
    const proclus::Status connected = client.Connect("127.0.0.1", port);
    for (int64_t j = next++; j < end; j = next++) {
      Outcome& out = outcomes[j - begin];
      out.due = t0 + static_cast<double>(j - begin) / kServeRate;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(0.0, out.due - NowSeconds())));
      const Arrival& arrival = state.arrivals[j];
      const net::Request request =
          SubmitRequest(KeyDataset(arrival.key), KeyParams(arrival.key),
                        arrival.interactive);
      net::WireJobResult wire;
      out.sent = NowSeconds();
      proclus::Status status = connected;
      if (status.ok()) {
        obs::TraceSpan span(trace, "client.submit_single", "bench");
        status = client.SubmitSingle(request, &wire);
      }
      out.done = NowSeconds();
      out.ok = status.ok() && wire.results.size() == 1;
      if (!out.ok) {
        std::fprintf(stderr, "perfbench: request %lld failed: %s\n",
                     static_cast<long long>(j), status.ToString().c_str());
        continue;
      }
      out.hit = wire.cache_hit;
      out.queue_seconds = wire.queue_seconds;
      out.exec_seconds = wire.exec_seconds;
      out.result = std::move(wire.results[0]);
    }
  };
  const int connections = std::min(kMaxConnections, config.nproc);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) threads.emplace_back(sender);
  for (std::thread& t : threads) t.join();
  return outcomes;
}

struct PassSamples {
  std::vector<double> latency_ms;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> queue_ms;  // misses
  std::vector<double> exec_ms;   // misses
  std::vector<double> overhead_ms;
  double max_lag_ms = 0.0;
  int64_t within_slo = 0;
  int64_t arrivals = 0;
};

// Checks every outcome (outside the timed window) and collects samples.
void Collect(const ServeState& state, int64_t begin,
             const std::vector<Outcome>& outcomes, Checker* checker,
             Report* report, PassSamples* samples) {
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& out = outcomes[i];
    const int64_t key = state.arrivals[begin + i].key;
    ++report->attempted;
    ++samples->arrivals;
    samples->max_lag_ms =
        std::max(samples->max_lag_ms, (out.sent - out.due) * 1e3);
    if (!out.ok ||
        !checker->Check(state.inputs[KeyDataset(key)], KeyParams(key),
                        out.result, KeyDataset(key))) {
      ++report->failed;
      continue;
    }
    const double latency_ms = (out.done - out.due) * 1e3;
    samples->latency_ms.push_back(latency_ms);
    (out.hit ? samples->hit_ms : samples->miss_ms).push_back(latency_ms);
    if (!out.hit) {
      samples->queue_ms.push_back(out.queue_seconds * 1e3);
      samples->exec_ms.push_back(out.exec_seconds * 1e3);
    }
    samples->overhead_ms.push_back(
        (out.done - out.sent - out.queue_seconds - out.exec_seconds) * 1e3);
    if (latency_ms <= kSloMs) ++samples->within_slo;
  }
}

PassSamples RunPass(const Config& config, const ServeState& state,
                    int64_t begin, int64_t end, obs::TraceRecorder* trace,
                    Checker* checker, Report* report) {
  const std::vector<Outcome> outcomes =
      SendArrivals(config, state, begin, end, trace);
  PassSamples samples;
  Collect(state, begin, outcomes, checker, report, &samples);
  return samples;
}

net::WireHealth Health(const ServeState& state) {
  net::ProclusClient client;
  net::WireHealth health;
  proclus::Status status = client.Connect("127.0.0.1", state.server->port());
  if (status.ok()) status = client.FetchHealth(&health);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: health failed: %s\n",
                 status.ToString().c_str());
  }
  return health;
}

}  // namespace

void RunServe(const Config& config, Report* report) {
  obs::TraceRecorder recorder;
  obs::TraceRecorder* trace = config.trace ? &recorder : nullptr;
  const int64_t arrivals =
      std::max<int64_t>(1, static_cast<int64_t>(kServeRate * config.seconds));
  const std::unique_ptr<ServeState> state = TimedSetup<ServeState>(
      config, report,
      [&config, arrivals, trace] { return SetUp(config, arrivals, trace); });
  Checker checker(config.corrupt);
  NoteInputs(report, state->inputs);
  report->Note("serve: " + std::to_string(kInputs) + " inputs of n=" +
               std::to_string(state->inputs.front().rows()) +
               " d=15, open loop at " + std::to_string(kServeRate) +
               " req/s from " +
               std::to_string(std::min(kMaxConnections, config.nproc)) +
               " connections, " + std::to_string(arrivals) +
               " arrivals, repeat share " + std::to_string(kRepeatShare) +
               ", SLO " + std::to_string(kSloMs) +
               " ms; server: 2 GPU devices, 2 workers, result cache on");
  RunCounts counts;

  if (!config.trace) {
    const PassSamples s =
        RunPass(config, *state, 0, arrivals, nullptr, &checker, report);
    const Summary latency = Summarize(s.latency_ms);
    ReportSummary(report, "op_ms", "ms", latency);
    ReportSummary(report, "request_ms", "ms", latency);
    report->Set("miss_ms.p50", Summarize(s.miss_ms).p50, "ms");
    report->Set("hit_ms.p50", Summarize(s.hit_ms).p50, "ms");
    report->Set("slo_frac", static_cast<double>(s.within_slo) / s.arrivals,
                "frac");
    report->Note("hit/miss samples: " + std::to_string(s.hit_ms.size()) +
                 " / " + std::to_string(s.miss_ms.size()));
    CompareReferences(state->inputs, config.nproc, kCountedReferences,
                      SingleReference, &checker, &counts);
    report->Finish(checker);
    return;
  }

  const int64_t split = arrivals * 2 / 5;
  recorder.set_enabled(false);
  const PassSamples untraced =
      RunPass(config, *state, 0, split, nullptr, &checker, report);
  recorder.set_enabled(true);
  const net::WireHealth before = Health(*state);
  const proclus::store::StoreStats store_before =
      state->service->dataset_store()->stats();
  const service::ServiceStats service_before = state->service->stats();
  const PassSamples traced =
      RunPass(config, *state, split, arrivals, trace, &checker, report);
  const net::WireHealth after = Health(*state);
  const proclus::store::StoreStats store_after =
      state->service->dataset_store()->stats();
  const service::ServiceStats service_after = state->service->stats();

  report->Set("service.cache.hit_ms.p50", Summarize(traced.hit_ms).p50, "ms");
  report->Set("service.cache.miss_ms.p50", Summarize(traced.miss_ms).p50,
              "ms");
  ReportSummary(report, "service.queue_ms", "ms", Summarize(traced.queue_ms));
  report->Set("service.exec_ms.p50", Summarize(traced.exec_ms).p50, "ms");
  const int64_t hits = after.cache_hits - before.cache_hits;
  const int64_t lookups = hits + after.cache_misses - before.cache_misses;
  report->Set("service.cache.lookups", static_cast<double>(lookups), "count");
  if (lookups > 0) {
    report->Set("service.cache.hit_ratio",
                static_cast<double>(hits) / lookups, "frac");
  }
  report->Note("service.cache.hit_ratio = " + std::to_string(hits) +
               " hits / " + std::to_string(lookups) + " lookups");
  report->Set("service.cache.dedup_joins",
              static_cast<double>(after.cache_dedup_joins -
                                  before.cache_dedup_joins),
              "count");
  report->Set("service.cache.inserts",
              static_cast<double>(after.cache_inserts - before.cache_inserts),
              "count");
  report->Set("service.cache.evictions",
              static_cast<double>(after.cache_evictions -
                                  before.cache_evictions),
              "count");
  ReportDeviceReuse(report, service_before, service_after);
  ReportSummary(report, "net.overhead_ms", "ms", Summarize(traced.overhead_ms));
  report->Set("net.generator_lag_ms.max", traced.max_lag_ms, "ms");
  report->Set("net.slo_frac",
              traced.arrivals > 0
                  ? static_cast<double>(traced.within_slo) / traced.arrivals
                  : 0.0,
              "frac");
  double upload_mb = 0.0;
  for (const data::Matrix& input : state->inputs) {
    upload_mb += static_cast<double>(input.size()) * sizeof(float) / 1e6;
  }
  if (state->upload_seconds > 0) {
    report->Set("store.upload_mb_per_s", upload_mb / state->upload_seconds,
                "MB/s");
  }
  report->Set("store.hits",
              static_cast<double>(store_after.hits - store_before.hits),
              "count");
  report->Set("store.misses",
              static_cast<double>(store_after.misses - store_before.misses),
              "count");
  ReportGpuLayers(report, ReadTrace(recorder),
                  static_cast<int64_t>(traced.miss_ms.size()), {});
  ReportTraceOverhead(report, Summarize(untraced.miss_ms).p50,
                      Summarize(traced.miss_ms).p50, "cache-miss request");
  ReportSimtProbes(config, state->inputs.front(), &recorder, report);
  WriteTrace(config, recorder, report);
  CompareReferences(state->inputs, config.nproc, kCountedReferences,
                      SingleReference, &checker, &counts);
  counts.Report(report);
  report->Finish(checker);
}

}  // namespace perfbench
