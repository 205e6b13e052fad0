// Single-flight stress: many threads submitting the identical job must
// trigger exactly one execution, with every waiter notified exactly once —
// including under cancellation and under queue-full backpressure. Run
// under TSAN by tools/ci.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/api.h"
#include "core/multi_param.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "service/job.h"
#include "service/proclus_service.h"
#include "service/result_cache.h"

namespace proclus::service {
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

// A job slow enough that submit-side races resolve before it finishes: a
// multi-setting sweep with no reuse.
JobSpec SlowJob(const data::Matrix& data, uint64_t seed = 42) {
  core::SweepSpec sweep;
  sweep.settings = {{3, 3}, {4, 4}, {5, 4}, {4, 5}};
  sweep.reuse = core::ReuseLevel::kNone;
  core::ProclusParams params = TestParams();
  params.seed = seed;
  return JobSpec::Sweep(data, params, sweep,
                        core::ClusterOptions::Cpu(core::Strategy::kBaseline));
}

// A job that keeps the lone worker busy until the test cancels it: the
// same slow sweep, repeated far beyond any test's lifetime. Cancellation is
// checked between settings, so Cancel() frees the worker promptly.
JobSpec BlockerJob(const data::Matrix& data) {
  JobSpec spec = SlowJob(data, /*seed=*/1);
  const std::vector<core::ParamSetting> settings = spec.sweep.settings;
  for (int i = 0; i < 500; ++i) {
    spec.sweep.settings.insert(spec.sweep.settings.end(), settings.begin(),
                               settings.end());
  }
  return spec;
}

ServiceOptions CachingOptions() {
  ServiceOptions options;
  options.result_cache_bytes = 32 << 20;
  options.sanitize_devices = false;
  return options;
}

void SpinUntilRunning(const JobHandle& handle) {
  while (handle.phase() == JobPhase::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Shared notification counters. Wait() can return before the completion
// callbacks have flushed (they run outside the job lock, possibly on a
// worker thread), so the counters are heap-owned — captured by value into
// every callback — and asserted only after SpinUntilCounted.
using Counters = std::vector<std::atomic<int>>;

std::shared_ptr<Counters> MakeCounters(int n) {
  auto counters = std::make_shared<Counters>(n);
  for (auto& c : *counters) c.store(0);
  return counters;
}

// Waits (bounded) for every counter to reach at least one, then a grace
// period in which a double notification would land.
void SpinUntilCounted(const Counters& counters) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (const auto& c : counters) {
    while (c.load() == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(ResultCacheStressTest, ConcurrentIdenticalSubmitsExecuteOnce) {
  const data::Dataset ds = TestData();
  ProclusService service(CachingOptions());

  constexpr int kThreads = 12;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<JobHandle> handles(kThreads);
  std::vector<Status> submit_status(kThreads);
  auto callback_counts = MakeCounters(kThreads);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, callback_counts, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      submit_status[t] = service.Submit(SlowJob(ds.points), &handles[t]);
      if (submit_status[t].ok()) {
        handles[t].OnComplete([callback_counts, t](const JobResult&) {
          (*callback_counts)[t].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  int executed = 0;
  int served = 0;
  const JobResult* reference = nullptr;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(submit_status[t].ok()) << submit_status[t].ToString();
    const JobResult& result = handles[t].Wait();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_EQ(result.results.size(), 4u);
    if (reference == nullptr) {
      reference = &result;
    } else {
      for (size_t i = 0; i < result.results.size(); ++i) {
        EXPECT_EQ(reference->results[i].medoids, result.results[i].medoids);
        EXPECT_EQ(reference->results[i].assignment,
                  result.results[i].assignment);
        EXPECT_EQ(reference->results[i].refined_cost,
                  result.results[i].refined_cost);
      }
    }
    if (result.cache_hit) {
      ++served;
      // A served job never ran: no start order, no execution.
      EXPECT_EQ(result.start_sequence, -1);
    } else {
      ++executed;
      EXPECT_GE(result.start_sequence, 0);
    }
  }
  EXPECT_EQ(executed, 1) << "single-flight must run the job exactly once";
  EXPECT_EQ(served, kThreads - 1);

  const ResultCacheStats stats = service.result_cache_stats();
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits + stats.dedup_joins, kThreads - 1);

  // Every waiter notified exactly once.
  SpinUntilCounted(*callback_counts);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ((*callback_counts)[t].load(), 1) << "thread " << t;
  }
}

TEST(ResultCacheStressTest, DedupWorksUnderQueueFullBackpressure) {
  const data::Dataset ds = TestData();
  ServiceOptions options = CachingOptions();
  options.num_workers = 1;
  options.queue_capacity = 1;
  ProclusService service(options);

  // Occupy the lone worker until the test releases it, then fill the one
  // queue slot with the leader.
  JobHandle blocker;
  ASSERT_TRUE(service.Submit(BlockerJob(ds.points), &blocker).ok());
  SpinUntilRunning(blocker);
  JobHandle leader;
  ASSERT_TRUE(service.Submit(SlowJob(ds.points, /*seed=*/2), &leader).ok());

  // Identical submits join the leader's flight without needing a slot —
  // dedup keeps absorbing load exactly when the queue is full.
  constexpr int kJoiners = 8;
  std::vector<JobHandle> joiners(kJoiners);
  std::vector<Status> joined(kJoiners);
  std::vector<std::thread> threads;
  for (int t = 0; t < kJoiners; ++t) {
    threads.emplace_back([&, t] {
      joined[t] = service.Submit(SlowJob(ds.points, /*seed=*/2), &joiners[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kJoiners; ++t) {
    EXPECT_TRUE(joined[t].ok()) << joined[t].ToString();
  }

  // A *different* job, though, is shed: the queue really is full. (The
  // leader is still queued — the lone worker is pinned by the blocker.)
  ASSERT_EQ(leader.phase(), JobPhase::kQueued);
  JobHandle distinct;
  const Status shed =
      service.Submit(SlowJob(ds.points, /*seed=*/3), &distinct);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);

  blocker.Cancel();
  EXPECT_EQ(blocker.Wait().status.code(), StatusCode::kCancelled);
  ASSERT_TRUE(leader.Wait().status.ok());
  for (int t = 0; t < kJoiners; ++t) {
    const JobResult& result = joiners[t].Wait();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.cache_hit);
    EXPECT_EQ(result.start_sequence, -1);
  }
  EXPECT_EQ(service.result_cache_stats().dedup_joins, kJoiners);
}

TEST(ResultCacheStressTest, CancelledLeaderFansCancellationToJoiners) {
  const data::Dataset ds = TestData();
  ServiceOptions options = CachingOptions();
  options.num_workers = 1;
  ProclusService service(options);

  JobHandle blocker;
  ASSERT_TRUE(service.Submit(BlockerJob(ds.points), &blocker).ok());
  SpinUntilRunning(blocker);

  JobHandle leader;
  ASSERT_TRUE(service.Submit(SlowJob(ds.points, /*seed=*/2), &leader).ok());
  constexpr int kJoiners = 8;
  std::vector<JobHandle> joiners(kJoiners);
  auto callback_counts = MakeCounters(kJoiners);
  for (int t = 0; t < kJoiners; ++t) {
    ASSERT_TRUE(
        service.Submit(SlowJob(ds.points, /*seed=*/2), &joiners[t]).ok());
    joiners[t].OnComplete([callback_counts, t](const JobResult&) {
      (*callback_counts)[t].fetch_add(1, std::memory_order_relaxed);
    });
  }

  // Cancel the still-queued leader: shared fate — every joiner finishes
  // kCancelled with the leader's status, notified exactly once.
  leader.Cancel();
  EXPECT_EQ(leader.Wait().status.code(), StatusCode::kCancelled);
  SpinUntilCounted(*callback_counts);
  for (int t = 0; t < kJoiners; ++t) {
    EXPECT_EQ(joiners[t].Wait().status.code(), StatusCode::kCancelled);
    EXPECT_EQ(joiners[t].phase(), JobPhase::kCancelled);
    EXPECT_EQ((*callback_counts)[t].load(), 1);
  }
  // The key is not poisoned (nothing was cached for it): a fresh identical
  // submit misses, leads and succeeds.
  blocker.Cancel();
  JobHandle retry;
  ASSERT_TRUE(service.Submit(SlowJob(ds.points, /*seed=*/2), &retry).ok());
  const JobResult& retried = retry.Wait();
  ASSERT_TRUE(retried.status.ok()) << retried.status.ToString();
  EXPECT_FALSE(retried.cache_hit);
}

TEST(ResultCacheStressTest, CancelledJoinerDoesNotDisturbTheFlight) {
  const data::Dataset ds = TestData();
  ServiceOptions options = CachingOptions();
  options.num_workers = 1;
  ProclusService service(options);

  JobHandle blocker;
  ASSERT_TRUE(service.Submit(BlockerJob(ds.points), &blocker).ok());
  SpinUntilRunning(blocker);

  JobHandle leader;
  ASSERT_TRUE(service.Submit(SlowJob(ds.points, /*seed=*/2), &leader).ok());
  JobHandle cancelled_joiner;
  JobHandle surviving_joiner;
  ASSERT_TRUE(
      service.Submit(SlowJob(ds.points, /*seed=*/2), &cancelled_joiner).ok());
  ASSERT_TRUE(
      service.Submit(SlowJob(ds.points, /*seed=*/2), &surviving_joiner).ok());
  auto cancelled_callbacks = MakeCounters(1);
  cancelled_joiner.OnComplete([cancelled_callbacks](const JobResult&) {
    (*cancelled_callbacks)[0].fetch_add(1, std::memory_order_relaxed);
  });

  cancelled_joiner.Cancel();
  EXPECT_EQ(cancelled_joiner.Wait().status.code(), StatusCode::kCancelled);
  blocker.Cancel();

  // Leader and the other joiner are unaffected and agree bit-for-bit.
  const JobResult& lead_result = leader.Wait();
  ASSERT_TRUE(lead_result.status.ok()) << lead_result.status.ToString();
  const JobResult& joined_result = surviving_joiner.Wait();
  ASSERT_TRUE(joined_result.status.ok()) << joined_result.status.ToString();
  EXPECT_TRUE(joined_result.cache_hit);
  ASSERT_EQ(joined_result.results.size(), lead_result.results.size());
  for (size_t i = 0; i < lead_result.results.size(); ++i) {
    EXPECT_EQ(lead_result.results[i].assignment,
              joined_result.results[i].assignment);
  }
  // The cancelled joiner was notified exactly once (by its cancellation,
  // not again by the flight fan-out).
  SpinUntilCounted(*cancelled_callbacks);
  EXPECT_EQ((*cancelled_callbacks)[0].load(), 1);
}

TEST(ResultCacheStressTest, ShutdownDrainSettlesOpenFlights) {
  const data::Dataset ds = TestData();
  ServiceOptions options = CachingOptions();
  options.num_workers = 1;
  auto service = std::make_unique<ProclusService>(options);

  JobHandle blocker;
  ASSERT_TRUE(
      service->Submit(SlowJob(ds.points, /*seed=*/1), &blocker).ok());
  JobHandle leader;
  ASSERT_TRUE(service->Submit(SlowJob(ds.points, /*seed=*/2), &leader).ok());
  JobHandle joiner;
  ASSERT_TRUE(service->Submit(SlowJob(ds.points, /*seed=*/2), &joiner).ok());

  // Shutdown drains the queue: the leader still runs, so the joiner must
  // be fanned the real result, not hang on an orphaned flight.
  service->Shutdown();
  ASSERT_TRUE(leader.Wait().status.ok());
  const JobResult& joined_result = joiner.Wait();
  ASSERT_TRUE(joined_result.status.ok()) << joined_result.status.ToString();
  EXPECT_TRUE(joined_result.cache_hit);
  service.reset();
}

}  // namespace
}  // namespace proclus::service
