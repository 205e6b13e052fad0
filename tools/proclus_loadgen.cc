// Open-loop load generator for `proclus_cli serve` (docs/serving.md).
// Drives configurable traffic — worker connections, offered rps, an
// interactive/bulk and single/sweep mix — against a running ProclusServer
// and reports due-time latency percentiles plus the server's own
// "net.*"/"service.*" metrics.
//
// Exit status: 0 when every non-rejected request completed; 1 when any
// request failed or hit a transport error (the CI smoke stage keys off
// this); 2 on bad flags.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "net/loadgen.h"

namespace {

const char kUsage[] =
    R"(proclus_loadgen - open-loop load generator for proclus_cli serve

Target:
  --host ADDR           server address (default 127.0.0.1)
  --port INT            server port (required)

Traffic:
  --connections INT     worker connections (default 4)
  --rps NUM             offered arrivals/second, open loop (default 20)
  --duration NUM        seconds of traffic (default 2)
  --interactive NUM     fraction submitted interactive (default 0.5)
  --sweeps NUM          fraction submitted as (k,l) sweeps (default 0)
  --repeat-fraction NUM fraction of arrivals that deterministically
                        resubmit an earlier arrival's request (default 0);
                        > 0 gives every arrival a distinct clustering seed
                        so repeats exercise the server's result cache —
                        the report then separates hit/miss latencies
  --shards INT          sweep shard budget, 0 = auto (default 0)
  --timeout-ms NUM      per-request deadline (default: server default)
  --mix-seed INT        seed of the deterministic mix (default 1)

Retries (docs/serving.md "Failure semantics & retries"):
  --retries INT         retries per request after the first attempt
                        (default 0 = off); transport errors and retryable
                        rejections back off and resend
  --retry-budget-ms NUM wall-time budget per request across retries
                        (default 0 = attempts-only)

Work per request:
  --dataset-id NAME     dataset to reference (default "loadgen")
  --no-register         do not register the dataset first (it must exist)
  --upload              generate the dataset client-side and ship it over
                        the chunked binary upload path (docs/store.md)
                        instead of register-by-spec
  --gen N,D,C           registered dataset's spec (default 4000,12,5)
  --k INT --l INT       clustering parameters (default 10 / 5)
  --seed INT            clustering seed (default 42)
  --backend NAME        cpu | mc | gpu (default gpu)

  --help                this text
)";

bool ParseI64(const std::string& value, int64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), *out);
  return ec == std::errc() && ptr == value.data() + value.size();
}

bool ParseF64(const std::string& value, double* out) {
  char* end = nullptr;
  *out = std::strtod(value.c_str(), &end);
  return end != value.c_str() && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using proclus::net::LoadgenOptions;
  using proclus::net::LoadgenReport;

  const std::vector<std::string> args(argv + 1, argv + argc);
  LoadgenOptions options;
  options.port = 0;

  auto fail = [](const std::string& message) {
    std::fprintf(stderr, "%s (see --help)\n", message.c_str());
    return 2;
  };

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (arg == "--no-register") {
      options.register_dataset = false;
      continue;
    }
    if (arg == "--upload") {
      options.upload_dataset = true;
      continue;
    }
    if (i + 1 >= args.size()) return fail("missing value for " + arg);
    const std::string& value = args[++i];
    int64_t i64 = 0;
    double f64 = 0.0;
    if (arg == "--host") {
      options.host = value;
    } else if (arg == "--port" && ParseI64(value, &i64)) {
      options.port = static_cast<int>(i64);
    } else if (arg == "--connections" && ParseI64(value, &i64)) {
      options.connections = static_cast<int>(i64);
    } else if (arg == "--rps" && ParseF64(value, &f64)) {
      options.rps = f64;
    } else if (arg == "--duration" && ParseF64(value, &f64)) {
      options.duration_seconds = f64;
    } else if (arg == "--interactive" && ParseF64(value, &f64)) {
      options.interactive_fraction = f64;
    } else if (arg == "--sweeps" && ParseF64(value, &f64)) {
      options.sweep_fraction = f64;
    } else if (arg == "--repeat-fraction" && ParseF64(value, &f64)) {
      options.repeat_fraction = f64;
    } else if (arg == "--shards" && ParseI64(value, &i64)) {
      options.sweep.max_shards = static_cast<int>(i64);
    } else if (arg == "--timeout-ms" && ParseF64(value, &f64)) {
      options.timeout_ms = f64;
    } else if (arg == "--mix-seed" && ParseI64(value, &i64)) {
      options.seed = static_cast<uint64_t>(i64);
    } else if (arg == "--retries" && ParseI64(value, &i64)) {
      options.retry.max_retries = static_cast<int>(i64);
    } else if (arg == "--retry-budget-ms" && ParseF64(value, &f64)) {
      options.retry.budget_ms = f64;
    } else if (arg == "--dataset-id") {
      options.dataset_id = value;
    } else if (arg == "--gen") {
      const size_t c1 = value.find(',');
      const size_t c2 = value.find(',', c1 + 1);
      int64_t n = 0;
      int64_t d = 0;
      int64_t clusters = 0;
      if (c1 == std::string::npos || c2 == std::string::npos ||
          !ParseI64(value.substr(0, c1), &n) ||
          !ParseI64(value.substr(c1 + 1, c2 - c1 - 1), &d) ||
          !ParseI64(value.substr(c2 + 1), &clusters)) {
        return fail("--gen expects N,D,C");
      }
      options.generate.n = n;
      options.generate.d = static_cast<int>(d);
      options.generate.clusters = static_cast<int>(clusters);
    } else if (arg == "--k" && ParseI64(value, &i64)) {
      options.params.k = static_cast<int>(i64);
    } else if (arg == "--l" && ParseI64(value, &i64)) {
      options.params.l = static_cast<int>(i64);
    } else if (arg == "--seed" && ParseI64(value, &i64)) {
      options.params.seed = static_cast<uint64_t>(i64);
    } else if (arg == "--backend") {
      const proclus::Status parsed =
          proclus::core::BackendFromToken(value, &options.options.backend);
      if (!parsed.ok()) return fail(parsed.message());
    } else {
      return fail("unknown or malformed flag: " + arg);
    }
  }
  if (options.port <= 0) return fail("--port is required");

  LoadgenReport report;
  const proclus::Status status = RunLoadgen(options, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  PrintReport(report, std::cout);
  return (report.failed == 0 && report.transport_errors == 0) ? 0 : 1;
}
