// Loopback end-to-end tests: a ProclusServer over a real TCP socket pair,
// exercised with the blocking ProclusClient. The central claim is the
// determinism contract crossing the wire intact — a client-submitted job
// is bit-identical to the same job submitted in-process — plus the
// admission-control behaviors (backpressure, deadlines, shedding) and the
// async status/cancel lifecycle.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "core/multi_param.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/job.h"
#include "service/proclus_service.h"

namespace proclus::net {
namespace {

data::Dataset TestData(uint64_t seed = 33) {
  data::GeneratorConfig config;
  config.n = 600;
  config.d = 8;
  config.num_clusters = 4;
  config.subspace_dim = 4;
  config.seed = seed;
  data::Dataset ds = data::GenerateSubspaceDataOrDie(config);
  data::MinMaxNormalize(&ds.points);
  return ds;
}

core::ProclusParams TestParams() {
  core::ProclusParams p;
  p.k = 4;
  p.l = 4;
  p.a = 10.0;
  p.b = 3.0;
  return p;
}

void ExpectSameClustering(const core::ProclusResult& a,
                          const core::ProclusResult& b) {
  EXPECT_EQ(a.medoids, b.medoids);
  EXPECT_EQ(a.dimensions, b.dimensions);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.iterative_cost, b.iterative_cost);
  EXPECT_EQ(a.refined_cost, b.refined_cost);
}

// Service + started server + connected client, torn down in order.
struct Loopback {
  explicit Loopback(service::ServiceOptions service_options = {},
                    ServerOptions server_options = {}) {
    service = std::make_unique<service::ProclusService>(service_options);
    server = std::make_unique<ProclusServer>(service.get(), server_options);
    Status status = server->Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
    status = client.Connect("127.0.0.1", server->port());
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  std::unique_ptr<service::ProclusService> service;
  std::unique_ptr<ProclusServer> server;
  ProclusClient client;
};

TEST(LoopbackTest, SingleSubmitBitIdenticalToInProcess) {
  const data::Dataset ds = TestData();
  Loopback loop;
  ASSERT_TRUE(loop.service->RegisterDataset("d", ds.points).ok());

  // In-process reference through the very same service instance.
  service::JobSpec spec;
  spec.dataset_id = "d";
  spec.params = TestParams();
  spec.options = core::ClusterOptions::Cpu();
  service::JobHandle handle;
  ASSERT_TRUE(loop.service->Submit(std::move(spec), &handle).ok());
  const service::JobResult& direct = handle.Wait();
  ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();

  Request request;
  request.type = RequestType::kSubmitSingle;
  request.dataset_id = "d";
  request.params = TestParams();
  request.options = core::ClusterOptions::Cpu();
  WireJobResult wire;
  const Status submitted = loop.client.SubmitSingle(request, &wire);
  ASSERT_TRUE(submitted.ok()) << submitted.ToString();
  ASSERT_EQ(wire.results.size(), 1u);
  ExpectSameClustering(direct.results[0], wire.results[0]);
}

TEST(LoopbackTest, GpuSweepBitIdenticalToInProcess) {
  const data::Dataset ds = TestData();
  const std::vector<core::ParamSetting> settings = {{3, 3}, {4, 4}, {5, 4}};
  Loopback loop;
  ASSERT_TRUE(loop.service->RegisterDataset("d", ds.points).ok());

  service::JobSpec spec;
  spec.kind = service::JobKind::kSweep;
  spec.dataset_id = "d";
  spec.params = TestParams();
  spec.sweep.settings = settings;
  spec.sweep.reuse = core::ReuseLevel::kWarmStart;
  spec.options = core::ClusterOptions::Gpu();
  service::JobHandle handle;
  ASSERT_TRUE(loop.service->Submit(std::move(spec), &handle).ok());
  const service::JobResult& direct = handle.Wait();
  ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();
  ASSERT_EQ(direct.results.size(), settings.size());

  Request request;
  request.type = RequestType::kSubmitSweep;
  request.dataset_id = "d";
  request.params = TestParams();
  request.sweep.settings = settings;
  request.sweep.reuse = core::ReuseLevel::kWarmStart;
  request.options = core::ClusterOptions::Gpu();
  WireJobResult wire;
  const Status submitted = loop.client.SubmitSweep(request, &wire);
  ASSERT_TRUE(submitted.ok()) << submitted.ToString();
  ASSERT_EQ(wire.results.size(), settings.size());
  for (size_t i = 0; i < settings.size(); ++i) {
    ExpectSameClustering(direct.results[i], wire.results[i]);
  }
  EXPECT_EQ(wire.setting_seconds.size(), settings.size());
  EXPECT_GE(wire.exec_seconds, 0.0);
  // A gpu sweep runs through the sweep scheduler; the lane count it used
  // crosses the wire (>= 1) and matches the in-process submission's.
  EXPECT_GE(wire.sweep_shards, 1);
  EXPECT_EQ(wire.sweep_shards, direct.sweep_shards);
}

TEST(LoopbackTest, ServerSideGenerateMatchesLocalGenerator) {
  // A dataset registered by spec must equal generating it client-side:
  // same generator, same subspace_dim policy, same normalization.
  Loopback loop;
  GenerateSpec gen;
  gen.n = 500;
  gen.d = 9;
  gen.clusters = 4;
  gen.seed = 21;
  ASSERT_TRUE(loop.client.RegisterGenerated("remote", gen).ok());

  data::GeneratorConfig config;
  config.n = gen.n;
  config.d = gen.d;
  config.num_clusters = gen.clusters;
  config.subspace_dim = std::max(2, gen.d / 3);
  config.seed = gen.seed;
  data::Dataset local = data::GenerateSubspaceDataOrDie(config);
  data::MinMaxNormalize(&local.points);
  ASSERT_TRUE(loop.client.RegisterDataset("local", local.points).ok());

  Request request;
  request.type = RequestType::kSubmitSingle;
  request.params = TestParams();
  request.options = core::ClusterOptions::Cpu();
  request.dataset_id = "remote";
  WireJobResult remote_result;
  ASSERT_TRUE(loop.client.SubmitSingle(request, &remote_result).ok());
  request.dataset_id = "local";
  WireJobResult local_result;
  ASSERT_TRUE(loop.client.SubmitSingle(request, &local_result).ok());
  ASSERT_EQ(remote_result.results.size(), 1u);
  ASSERT_EQ(local_result.results.size(), 1u);
  ExpectSameClustering(remote_result.results[0], local_result.results[0]);
}

TEST(LoopbackTest, UnknownDatasetFailsWithoutRetry) {
  Loopback loop;
  Request request;
  request.type = RequestType::kSubmitSingle;
  request.dataset_id = "nope";
  request.params = TestParams();
  request.options = core::ClusterOptions::Cpu();
  Response response;
  ASSERT_TRUE(loop.client.Call(request, &response).ok());
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.retryable);
}

TEST(LoopbackTest, DeadlineExceededCrossesTheWire) {
  const data::Dataset ds = TestData();
  service::ServiceOptions service_options;
  service_options.num_workers = 1;
  Loopback loop(service_options);
  ASSERT_TRUE(loop.service->RegisterDataset("d", ds.points).ok());

  // Occupy the single worker so the timed request spends its whole budget
  // in the queue.
  service::JobSpec blocker;
  blocker.kind = service::JobKind::kSweep;
  blocker.dataset_id = "d";
  blocker.params = TestParams();
  blocker.sweep.settings = {{3, 3}, {4, 4}, {5, 4}, {4, 3}, {5, 5},
                            {3, 4}, {4, 5}, {5, 3}, {3, 5}, {4, 4}};
  blocker.sweep.reuse = core::ReuseLevel::kNone;
  blocker.options = core::ClusterOptions::Cpu(core::Strategy::kBaseline);
  service::JobHandle blocker_handle;
  ASSERT_TRUE(loop.service->Submit(std::move(blocker), &blocker_handle).ok());
  // The timed request must spend its whole budget queued behind the
  // blocker, so do not send it until the blocker actually holds the worker
  // (a fast blocker could otherwise finish before the wire request lands).
  while (blocker_handle.phase() == service::JobPhase::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Request request;
  request.type = RequestType::kSubmitSingle;
  request.dataset_id = "d";
  request.params = TestParams();
  request.options = core::ClusterOptions::Cpu();
  request.timeout_ms = 1.0;
  Response response;
  ASSERT_TRUE(loop.client.Call(request, &response).ok());
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.code, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(response.error.retryable);
  blocker_handle.Wait();
}

TEST(LoopbackTest, QueueFullSurfacesRetryableResourceExhausted) {
  const data::Dataset ds = TestData();
  service::ServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.queue_capacity = 1;
  Loopback loop(service_options);
  ASSERT_TRUE(loop.service->RegisterDataset("d", ds.points).ok());

  // Async-submit a pile of slow jobs; with one worker and one queue slot
  // most must bounce with the retryable backpressure signal.
  Request request;
  request.type = RequestType::kSubmitSingle;
  request.dataset_id = "d";
  request.params = TestParams();
  request.options = core::ClusterOptions::Cpu(core::Strategy::kBaseline);
  request.wait = false;

  int accepted = 0;
  int rejected = 0;
  std::vector<uint64_t> job_ids;
  for (int i = 0; i < 8; ++i) {
    Response response;
    ASSERT_TRUE(loop.client.Call(request, &response).ok());
    if (response.ok) {
      ++accepted;
      job_ids.push_back(response.job_id);
    } else {
      ASSERT_EQ(response.error.code, StatusCode::kResourceExhausted);
      EXPECT_TRUE(response.error.retryable);
      ++rejected;
    }
  }
  EXPECT_GE(accepted, 1);
  EXPECT_GE(rejected, 1);

  // The shed load shows up in the server's metrics.
  json::JsonValue metrics;
  ASSERT_TRUE(loop.client.FetchMetrics(&metrics).ok());
  const json::JsonValue* counters = metrics.Find("counters");
  ASSERT_NE(counters, nullptr);
  const json::JsonValue* shed = counters->Find("net.resource_exhausted");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->AsInt(), rejected);

  // Accepted jobs all finish; the system recovered, later submits succeed.
  for (const uint64_t job_id : job_ids) {
    for (;;) {
      Response response;
      ASSERT_TRUE(loop.client.GetStatus(job_id, false, &response).ok());
      ASSERT_TRUE(response.ok) << response.error.message;
      if (response.phase == "done") break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  WireJobResult wire;
  request.wait = true;
  EXPECT_TRUE(loop.client.SubmitSingle(request, &wire).ok());
}

TEST(LoopbackTest, AsyncStatusAndCancelLifecycle) {
  const data::Dataset ds = TestData();
  service::ServiceOptions service_options;
  service_options.num_workers = 1;
  Loopback loop(service_options);
  ASSERT_TRUE(loop.service->RegisterDataset("d", ds.points).ok());

  // A job that occupies the lone worker until the test cancels it, plus
  // the async job under test, so the latter is still queued when we cancel
  // it however slowly the host runs.
  Request blocker;
  blocker.type = RequestType::kSubmitSweep;
  blocker.dataset_id = "d";
  blocker.params = TestParams();
  for (int i = 0; i < 200; ++i) {
    blocker.sweep.settings.insert(blocker.sweep.settings.end(),
                                  {{3, 3}, {4, 4}, {5, 4}});
  }
  blocker.sweep.reuse = core::ReuseLevel::kNone;
  blocker.options = core::ClusterOptions::Cpu(core::Strategy::kBaseline);
  blocker.wait = false;
  uint64_t blocker_id = 0;
  ASSERT_TRUE(loop.client.SubmitAsync(blocker, &blocker_id).ok());

  Request request;
  request.type = RequestType::kSubmitSingle;
  request.dataset_id = "d";
  request.params = TestParams();
  request.options = core::ClusterOptions::Cpu();
  request.wait = false;
  uint64_t job_id = 0;
  ASSERT_TRUE(loop.client.SubmitAsync(request, &job_id).ok());
  EXPECT_NE(job_id, 0u);

  Response status;
  ASSERT_TRUE(loop.client.GetStatus(job_id, true, &status).ok());
  ASSERT_TRUE(status.ok);
  EXPECT_TRUE(status.phase == "queued" || status.phase == "running")
      << status.phase;
  EXPECT_FALSE(status.has_result);

  ASSERT_TRUE(loop.client.Cancel(job_id).ok());
  for (;;) {
    ASSERT_TRUE(loop.client.GetStatus(job_id, true, &status).ok());
    if (status.phase == "cancelled") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // A terminal-failed job reports its status as the response error.
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(status.error.code, StatusCode::kCancelled);

  // Unknown ids are invalid at the request level.
  Response unknown;
  ASSERT_TRUE(loop.client.GetStatus(999999, false, &unknown).ok());
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.error.code, StatusCode::kInvalidArgument);

  ASSERT_TRUE(loop.client.Cancel(blocker_id).ok());
}

TEST(LoopbackTest, OverBudgetConnectionIsShedWithRetryableError) {
  ServerOptions server_options;
  server_options.max_connections = 1;
  Loopback loop({}, server_options);  // loop.client holds the only slot

  ProclusClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", loop.server->port()).ok());
  Request request;
  request.type = RequestType::kMetrics;
  Response response;
  ASSERT_TRUE(second.Call(request, &response).ok());
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.code, StatusCode::kResourceExhausted);
  EXPECT_TRUE(response.error.retryable);

  // The admitted connection still works.
  json::JsonValue metrics;
  ASSERT_TRUE(loop.client.FetchMetrics(&metrics).ok());
  const json::JsonValue* counters = metrics.Find("counters");
  ASSERT_NE(counters, nullptr);
  const json::JsonValue* shed = counters->Find("net.connections_shed");
  ASSERT_NE(shed, nullptr);
  EXPECT_GE(shed->AsInt(), 1);
}

TEST(LoopbackTest, MetricsExposeNetAndServiceFamilies) {
  const data::Dataset ds = TestData();
  Loopback loop;
  ASSERT_TRUE(loop.service->RegisterDataset("d", ds.points).ok());

  Request request;
  request.type = RequestType::kSubmitSingle;
  request.dataset_id = "d";
  request.params = TestParams();
  request.options = core::ClusterOptions::Cpu();
  WireJobResult wire;
  ASSERT_TRUE(loop.client.SubmitSingle(request, &wire).ok());

  json::JsonValue metrics;
  ASSERT_TRUE(loop.client.FetchMetrics(&metrics).ok());
  const json::JsonValue* counters = metrics.Find("counters");
  const json::JsonValue* gauges = metrics.Find("gauges");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(counters->Find("net.requests"), nullptr);
  EXPECT_GE(counters->Find("net.requests")->AsInt(), 2);
  ASSERT_NE(counters->Find("net.submit_wait"), nullptr);
  EXPECT_EQ(counters->Find("net.submit_wait")->AsInt(), 1);
  ASSERT_NE(gauges->Find("service.completed"), nullptr);
  EXPECT_EQ(gauges->Find("service.completed")->AsDouble(), 1.0);
}

TEST(LoopbackTest, SanitizingServerRunsGpuJobsCleanAndPublishesTheCounter) {
  // A server whose service pool runs every device in simtcheck mode: real
  // GPU jobs must come back clean (the production kernels are race-free),
  // the per-job sanitizer figures must cross the wire, and the service's
  // findings counter must show up in the metrics snapshot.
  const data::Dataset ds = TestData();
  service::ServiceOptions service_options;
  service_options.sanitize_devices = true;
  Loopback loop(service_options);
  ASSERT_TRUE(loop.service->RegisterDataset("d", ds.points).ok());

  Request request;
  request.type = RequestType::kSubmitSingle;
  request.dataset_id = "d";
  request.params = TestParams();
  request.options = core::ClusterOptions::Gpu();
  request.options.gpu_sanitize = true;
  WireJobResult wire;
  const Status submitted = loop.client.SubmitSingle(request, &wire);
  ASSERT_TRUE(submitted.ok()) << submitted.ToString();
  ASSERT_EQ(wire.results.size(), 1u);
  EXPECT_EQ(wire.sanitizer_findings, 0);
  EXPECT_TRUE(wire.sanitizer_reports.empty());
  // The run really executed under the checker.
  EXPECT_GT(wire.sanitizer_checked_accesses, 0);

  json::JsonValue metrics;
  ASSERT_TRUE(loop.client.FetchMetrics(&metrics).ok());
  const json::JsonValue* gauges = metrics.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->Find("service.sanitizer_findings_total"), nullptr);
  EXPECT_EQ(gauges->Find("service.sanitizer_findings_total")->AsDouble(),
            0.0);
}

TEST(LoopbackTest, StopDrainsInFlightWaitJobs) {
  const data::Dataset ds = TestData();
  Loopback loop;
  ASSERT_TRUE(loop.service->RegisterDataset("d", ds.points).ok());

  Request request;
  request.type = RequestType::kSubmitSweep;
  request.dataset_id = "d";
  request.params = TestParams();
  request.sweep.settings = {{3, 3}, {4, 4}, {5, 4}};
  request.sweep.reuse = core::ReuseLevel::kNone;
  request.options = core::ClusterOptions::Cpu(core::Strategy::kBaseline);

  Status submit_status;
  WireJobResult wire;
  std::thread submitter([&] {
    submit_status = loop.client.SubmitSweep(request, &wire);
  });
  // Let the request reach the server, then stop it mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  loop.server->Stop();
  submitter.join();
  EXPECT_TRUE(submit_status.ok()) << submit_status.ToString();
  EXPECT_EQ(wire.results.size(), 3u);
}

TEST(LoopbackTest, HealthProbeReportsServerState) {
  service::ServiceOptions service_options;
  service_options.queue_capacity = 64;
  ServerOptions server_options;
  server_options.max_connections = 8;
  Loopback loop(service_options, server_options);

  WireHealth health;
  const Status fetched = loop.client.FetchHealth(&health);
  ASSERT_TRUE(fetched.ok()) << fetched.ToString();
  EXPECT_EQ(health.queue_depth, 0);
  EXPECT_EQ(health.queue_capacity, 64);
  EXPECT_EQ(health.active_connections, 1);
  EXPECT_EQ(health.max_connections, 8);
  EXPECT_EQ(health.devices_total, loop.service->device_capacity());
  EXPECT_EQ(health.devices_leased, 0);
  EXPECT_FALSE(health.draining);
  EXPECT_EQ(health.faults_injected_total, 0)
      << "no fault plan installed, nothing may have been injected";
}

TEST(LoopbackTest, MalformedFrameGetsErrorAndConnectionSurvives) {
  Loopback loop;
  // Hand-roll a frame with JSON garbage via a raw socket.
  Socket raw;
  ASSERT_TRUE(Connect("127.0.0.1", loop.server->port(), &raw).ok());
  const std::string garbage = "{]";
  const unsigned char header[4] = {0, 0, 0,
                                   static_cast<unsigned char>(garbage.size())};
  ASSERT_TRUE(raw.SendAll(header, 4).ok());
  ASSERT_TRUE(raw.SendAll(garbage.data(), garbage.size()).ok());
  unsigned char response_header[4];
  ASSERT_TRUE(raw.RecvAll(response_header, 4).ok());
  const uint32_t len = (static_cast<uint32_t>(response_header[0]) << 24) |
                       (static_cast<uint32_t>(response_header[1]) << 16) |
                       (static_cast<uint32_t>(response_header[2]) << 8) |
                       static_cast<uint32_t>(response_header[3]);
  std::string payload(len, '\0');
  ASSERT_TRUE(raw.RecvAll(payload.data(), len).ok());
  Response decoded;
  ASSERT_TRUE(DecodeResponse(payload, &decoded).ok());
  EXPECT_FALSE(decoded.ok);
  EXPECT_EQ(decoded.error.code, StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace proclus::net
