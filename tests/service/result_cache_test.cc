// Unit tests of ResultCache (LRU/eviction, .pcr spill format, admission
// semantics) plus the bit-identity battery: a warm cache hit must be
// byte-for-byte the cold run's clustering on every backend, for single
// jobs and for serial and sharded sweeps, including a hit served through a
// .pcr spill-reload.

#include "service/result_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/api.h"
#include "core/multi_param.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "service/job.h"
#include "service/proclus_service.h"

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

void ExpectSameClustering(const core::ProclusResult& a,
                          const core::ProclusResult& b) {
  EXPECT_EQ(a.medoids, b.medoids);
  EXPECT_EQ(a.dimensions, b.dimensions);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.iterative_cost, b.iterative_cost);
  EXPECT_EQ(a.refined_cost, b.refined_cost);
}

ResultCacheKey TestKey(uint64_t dataset_hash = 7,
                       uint64_t clustering_seed = 42) {
  core::ProclusParams params = TestParams();
  params.seed = clustering_seed;
  return ResultCache::MakeKey(dataset_hash, JobKind::kSingle, params,
                              core::ClusterOptions::Cpu(), core::SweepSpec());
}

// A small distinguishable payload.
std::shared_ptr<const CachedResult> TestPayload(int tag) {
  auto payload = std::make_shared<CachedResult>();
  core::ProclusResult r;
  r.medoids = {tag, tag + 1, tag + 2};
  r.dimensions = {{0, 1}, {2, 3}, {1, tag % 4}};
  r.assignment = {0, 1, 2, 0, 1};
  r.iterative_cost = 1.5 * tag;
  r.refined_cost = 0.75 * tag;
  payload->results.push_back(r);
  payload->setting_seconds = {0.125 * tag};
  return payload;
}

class ResultCacheFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "proclus_rcache_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(ResultCacheFileTest, PcrRoundTrip) {
  const ResultCacheKey key = TestKey();
  const auto payload = TestPayload(3);
  const std::string path = (dir_ / "roundtrip.pcr").string();
  ASSERT_TRUE(WritePcr(key, *payload, path).ok());

  CachedResult loaded;
  ASSERT_TRUE(ReadPcr(path, key, &loaded).ok());
  ASSERT_EQ(loaded.results.size(), 1u);
  ExpectSameClustering(payload->results[0], loaded.results[0]);
  EXPECT_EQ(loaded.setting_seconds, payload->setting_seconds);
}

TEST_F(ResultCacheFileTest, PcrRejectsCorruptPayload) {
  const ResultCacheKey key = TestKey();
  const std::string path = (dir_ / "corrupt.pcr").string();
  ASSERT_TRUE(WritePcr(key, *TestPayload(3), path).ok());

  // Flip one payload byte past the header: the CRC must catch it.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(kPcrHeaderBytes + 4));
  char byte = 0;
  f.seekg(static_cast<std::streamoff>(kPcrHeaderBytes + 4));
  f.read(&byte, 1);
  byte ^= 0x20;
  f.seekp(static_cast<std::streamoff>(kPcrHeaderBytes + 4));
  f.write(&byte, 1);
  f.close();

  CachedResult loaded;
  EXPECT_FALSE(ReadPcr(path, key, &loaded).ok());
}

TEST_F(ResultCacheFileTest, PcrRejectsWrongKey) {
  // A renamed/misplaced spill file must never serve another request: the
  // embedded canonical key text is verified, not just the filename hash.
  const ResultCacheKey key = TestKey(/*dataset_hash=*/7);
  const ResultCacheKey other = TestKey(/*dataset_hash=*/8);
  const std::string path = (dir_ / "wrongkey.pcr").string();
  ASSERT_TRUE(WritePcr(key, *TestPayload(3), path).ok());
  CachedResult loaded;
  EXPECT_FALSE(ReadPcr(path, other, &loaded).ok());
}

TEST_F(ResultCacheFileTest, PcrSizeClaimBeyondFileIsRejected) {
  // A valid v2 header for the right key whose size word claims 4 GiB, in a
  // 32-byte file: the reader must compare the claim against the real file
  // size instead of allocating the claimed payload.
  const ResultCacheKey key = TestKey();
  unsigned char header[kPcrHeaderBytes] = {'P', 'C', 'R', '1'};
  const uint64_t claimed = uint64_t{1} << 32;
  header[4] = static_cast<unsigned char>(kPcrVersion);  // little-endian u32
  for (int i = 0; i < 8; ++i) {
    header[8 + i] = static_cast<unsigned char>(key.hash >> (8 * i));
    header[16 + i] = static_cast<unsigned char>(claimed >> (8 * i));
  }
  // CRC32 of an empty payload is 0, and the reserved word stays 0.
  const std::string path = (dir_ / "huge.pcr").string();
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(header), sizeof(header));
  ASSERT_EQ(std::filesystem::file_size(path), kPcrHeaderBytes);

  CachedResult loaded;
  const Status read = ReadPcr(path, key, &loaded);
  EXPECT_EQ(read.code(), StatusCode::kIoError);
  EXPECT_NE(read.message().find("payload size mismatch"), std::string::npos)
      << read.ToString();
}

TEST(ResultCacheTest, AdmitFinishHitCycle) {
  ResultCache cache(ResultCacheOptions{});
  const ResultCacheKey key = TestKey();

  std::shared_ptr<const CachedResult> hit;
  EXPECT_EQ(cache.AdmitOrJoin(key, &hit, nullptr),
            ResultCache::Admission::kLead);
  EXPECT_EQ(cache.stats().misses, 1);

  // A second identical admit while the flight is open joins it.
  Status joined_status = Status::InvalidArgument("not yet delivered");
  std::shared_ptr<const CachedResult> joined_payload;
  EXPECT_EQ(cache.AdmitOrJoin(
                key, &hit,
                [&](const Status& s,
                    std::shared_ptr<const CachedResult> payload) {
                  joined_status = s;
                  joined_payload = std::move(payload);
                }),
            ResultCache::Admission::kJoined);
  EXPECT_EQ(cache.stats().dedup_joins, 1);

  cache.FinishFlight(key, Status::OK(), TestPayload(5));
  EXPECT_TRUE(joined_status.ok());
  ASSERT_NE(joined_payload, nullptr);
  ExpectSameClustering(TestPayload(5)->results[0],
                       joined_payload->results[0]);
  EXPECT_EQ(cache.stats().inserts, 1);

  // And a resubmit after the flight is a plain hit.
  EXPECT_EQ(cache.AdmitOrJoin(key, &hit, nullptr),
            ResultCache::Admission::kHit);
  ASSERT_NE(hit, nullptr);
  ExpectSameClustering(TestPayload(5)->results[0], hit->results[0]);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(ResultCacheTest, FailedFlightCachesNothing) {
  ResultCache cache(ResultCacheOptions{});
  const ResultCacheKey key = TestKey();
  std::shared_ptr<const CachedResult> hit;
  ASSERT_EQ(cache.AdmitOrJoin(key, &hit, nullptr),
            ResultCache::Admission::kLead);
  Status delivered = Status::OK();
  ASSERT_EQ(cache.AdmitOrJoin(
                key, &hit,
                [&](const Status& s, std::shared_ptr<const CachedResult>) {
                  delivered = s;
                }),
            ResultCache::Admission::kJoined);
  cache.FinishFlight(key, Status::Cancelled("leader cancelled"), nullptr);
  EXPECT_EQ(delivered.code(), StatusCode::kCancelled);
  EXPECT_EQ(cache.stats().inserts, 0);
  EXPECT_EQ(cache.stats().entries, 0);
  // The next identical submit leads a fresh flight (no poisoned entry).
  EXPECT_EQ(cache.AdmitOrJoin(key, &hit, nullptr),
            ResultCache::Admission::kLead);
  cache.FinishFlight(key, Status::OK(), TestPayload(1));
}

TEST(ResultCacheTest, LruEvictionUnderBudgetAndEvictByHex) {
  ResultCacheOptions options;
  // Small budget: roughly two TestPayload entries fit, not three.
  options.budget_bytes = 2 * TestPayload(0)->EstimateBytes() +
                         TestPayload(0)->EstimateBytes() / 2;
  ResultCache cache(options);
  const ResultCacheKey k1 = TestKey(1);
  const ResultCacheKey k2 = TestKey(2);
  const ResultCacheKey k3 = TestKey(3);
  std::shared_ptr<const CachedResult> hit;
  for (const ResultCacheKey* key : {&k1, &k2, &k3}) {
    ASSERT_EQ(cache.AdmitOrJoin(*key, &hit, nullptr),
              ResultCache::Admission::kLead);
    cache.FinishFlight(*key, Status::OK(), TestPayload(7));
  }
  EXPECT_EQ(cache.stats().inserts, 3);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_LE(cache.stats().bytes, options.budget_bytes);
  // k1 was least recently used — it is the evicted one; no dir, so the
  // lookup misses and leads a fresh flight. Re-inserting it pushes the
  // cache over budget again, evicting the new LRU entry (k2).
  EXPECT_EQ(cache.AdmitOrJoin(k1, &hit, nullptr),
            ResultCache::Admission::kLead);
  cache.FinishFlight(k1, Status::OK(), TestPayload(7));
  EXPECT_EQ(cache.AdmitOrJoin(k2, &hit, nullptr),
            ResultCache::Admission::kLead);
  cache.FinishFlight(k2, Status::Cancelled("abandoned"), nullptr);

  // Explicit eviction by wire handle: k3 is resident.
  bool evicted = false;
  ASSERT_TRUE(cache.EvictByHex(k3.Hex(), &evicted).ok());
  EXPECT_TRUE(evicted);
  ASSERT_TRUE(cache.EvictByHex(k3.Hex(), &evicted).ok());
  EXPECT_FALSE(evicted);  // already gone
  EXPECT_FALSE(cache.EvictByHex("not-a-hex-key", &evicted).ok());
}

TEST_F(ResultCacheFileTest, EvictionSpillsAndReloads) {
  ResultCacheOptions options;
  options.budget_bytes = TestPayload(0)->EstimateBytes() + 64;  // one entry
  options.dir = dir_.string();
  ResultCache cache(options);
  const ResultCacheKey k1 = TestKey(1);
  const ResultCacheKey k2 = TestKey(2);
  std::shared_ptr<const CachedResult> hit;
  for (const ResultCacheKey* key : {&k1, &k2}) {
    ASSERT_EQ(cache.AdmitOrJoin(*key, &hit, nullptr),
              ResultCache::Admission::kLead);
    cache.FinishFlight(*key, Status::OK(), TestPayload(9));
  }
  // k1 was evicted to make room for k2 — and spilled, because a dir is
  // configured.
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().spills, 1);

  // Looking k1 up again reloads it from the .pcr file: a hit, not a lead.
  hit = nullptr;
  EXPECT_EQ(cache.AdmitOrJoin(k1, &hit, nullptr),
            ResultCache::Admission::kHit);
  ASSERT_NE(hit, nullptr);
  ExpectSameClustering(TestPayload(9)->results[0], hit->results[0]);
  EXPECT_EQ(cache.stats().disk_loads, 1);
}

TEST_F(ResultCacheFileTest, CorruptSpillFileIsAMissAndHeals) {
  ResultCacheOptions options;
  options.budget_bytes = TestPayload(0)->EstimateBytes() + 64;
  options.dir = dir_.string();
  ResultCache cache(options);
  const ResultCacheKey k1 = TestKey(1);
  const ResultCacheKey k2 = TestKey(2);
  std::shared_ptr<const CachedResult> hit;
  for (const ResultCacheKey* key : {&k1, &k2}) {
    ASSERT_EQ(cache.AdmitOrJoin(*key, &hit, nullptr),
              ResultCache::Admission::kLead);
    cache.FinishFlight(*key, Status::OK(), TestPayload(9));
  }
  // Truncate k1's spill file to garbage.
  const std::string path =
      (dir_ / (k1.Hex() + std::string(kPcrExtension))).string();
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << "garbage";

  // The lookup misses (and removes the corpse) instead of serving junk.
  EXPECT_EQ(cache.AdmitOrJoin(k1, &hit, nullptr),
            ResultCache::Admission::kLead);
  EXPECT_FALSE(std::filesystem::exists(path));
  cache.FinishFlight(k1, Status::OK(), TestPayload(9));
}

// --- bit-identity battery ----------------------------------------------------

// Submits `spec` twice against a caching service and asserts the second
// submit is a cache hit whose clustering is byte-identical to the first
// (cold) run's.
void ExpectWarmHitBitIdentical(ProclusService* service, const JobSpec& spec) {
  JobHandle cold;
  ASSERT_TRUE(service->Submit(spec, &cold).ok());
  const JobResult& cold_result = cold.Wait();
  ASSERT_TRUE(cold_result.status.ok()) << cold_result.status.ToString();
  EXPECT_FALSE(cold_result.cache_hit);
  EXPECT_EQ(cold_result.cache_key.size(), 16u);

  JobHandle warm;
  ASSERT_TRUE(service->Submit(spec, &warm).ok());
  const JobResult& warm_result = warm.Wait();
  ASSERT_TRUE(warm_result.status.ok()) << warm_result.status.ToString();
  EXPECT_TRUE(warm_result.cache_hit);
  EXPECT_EQ(warm_result.cache_key, cold_result.cache_key);
  ASSERT_EQ(warm_result.results.size(), cold_result.results.size());
  for (size_t i = 0; i < cold_result.results.size(); ++i) {
    ExpectSameClustering(cold_result.results[i], warm_result.results[i]);
  }
  EXPECT_EQ(warm_result.setting_seconds, cold_result.setting_seconds);
}

ServiceOptions CachingOptions() {
  ServiceOptions options;
  options.result_cache_bytes = 32 << 20;
  // Keep this battery deterministic and fast: no sanitizer (it would gate
  // GPU jobs out of the cache).
  options.sanitize_devices = false;
  return options;
}

TEST(ResultCacheE2eTest, WarmHitBitIdenticalOnCpu) {
  const data::Dataset ds = TestData();
  ProclusService service(CachingOptions());
  ExpectWarmHitBitIdentical(
      &service,
      JobSpec::Single(ds.points, TestParams(), core::ClusterOptions::Cpu()));
}

TEST(ResultCacheE2eTest, WarmHitBitIdenticalOnMultiCore) {
  const data::Dataset ds = TestData();
  ProclusService service(CachingOptions());
  ExpectWarmHitBitIdentical(
      &service, JobSpec::Single(ds.points, TestParams(),
                                core::ClusterOptions::MultiCore()));
}

TEST(ResultCacheE2eTest, WarmHitBitIdenticalOnGpu) {
  const data::Dataset ds = TestData();
  ProclusService service(CachingOptions());
  ExpectWarmHitBitIdentical(
      &service,
      JobSpec::Single(ds.points, TestParams(), core::ClusterOptions::Gpu()));
}

TEST(ResultCacheE2eTest, WarmHitBitIdenticalOnSerialSweep) {
  const data::Dataset ds = TestData();
  ServiceOptions options = CachingOptions();
  options.gpu_devices = 1;  // one device: the sweep runs serially
  ProclusService service(options);
  core::SweepSpec sweep;
  sweep.settings = {{3, 3}, {4, 4}, {5, 4}};
  ExpectWarmHitBitIdentical(
      &service, JobSpec::Sweep(ds.points, TestParams(), sweep,
                               core::ClusterOptions::Gpu()));
}

TEST(ResultCacheE2eTest, WarmHitBitIdenticalOnShardedSweep) {
  const data::Dataset ds = TestData();
  ServiceOptions options = CachingOptions();
  options.gpu_devices = 3;  // shard the sweep across the device pool
  ProclusService service(options);
  core::SweepSpec sweep;
  sweep.settings = {{3, 3}, {4, 4}, {5, 4}, {4, 5}, {5, 5}, {3, 4}};
  sweep.max_shards = 3;
  ExpectWarmHitBitIdentical(
      &service, JobSpec::Sweep(ds.points, TestParams(), sweep,
                               core::ClusterOptions::Gpu()));
}

TEST(ResultCacheE2eTest, SerialAndShardedSweepAgreeAndShareNoKey) {
  // The same sweep spec submitted with different max_shards has a
  // different cache key (max_shards is folded in conservatively), but the
  // determinism contract still makes the clusterings bit-identical — so a
  // hit under one key equals a cold run under the other.
  const data::Dataset ds = TestData();
  ServiceOptions options = CachingOptions();
  options.gpu_devices = 3;
  ProclusService service(options);

  core::SweepSpec serial;
  serial.settings = {{3, 3}, {4, 4}, {5, 4}};
  serial.max_shards = 1;
  core::SweepSpec sharded = serial;
  sharded.max_shards = 3;

  JobHandle a;
  ASSERT_TRUE(service
                  .Submit(JobSpec::Sweep(ds.points, TestParams(), serial,
                                         core::ClusterOptions::Gpu()),
                          &a)
                  .ok());
  const JobResult& serial_result = a.Wait();
  ASSERT_TRUE(serial_result.status.ok());

  JobHandle b;
  ASSERT_TRUE(service
                  .Submit(JobSpec::Sweep(ds.points, TestParams(), sharded,
                                         core::ClusterOptions::Gpu()),
                          &b)
                  .ok());
  const JobResult& sharded_result = b.Wait();
  ASSERT_TRUE(sharded_result.status.ok());
  EXPECT_FALSE(sharded_result.cache_hit);  // distinct key: not served
  EXPECT_NE(serial_result.cache_key, sharded_result.cache_key);
  ASSERT_EQ(serial_result.results.size(), sharded_result.results.size());
  for (size_t i = 0; i < serial_result.results.size(); ++i) {
    ExpectSameClustering(serial_result.results[i], sharded_result.results[i]);
  }
}

TEST_F(ResultCacheFileTest, ServiceHitAfterSpillReloadBitIdentical) {
  // Budget sized so the second (different) result evicts the first to
  // disk; the resubmit of the first must then hit through the .pcr reload
  // and still be bit-identical to its cold run.
  const data::Dataset ds = TestData();
  const core::ClusterOptions options = core::ClusterOptions::Cpu();

  core::ProclusParams params_a = TestParams();
  params_a.seed = 11;
  core::ProclusParams params_b = TestParams();
  params_b.seed = 12;

  ServiceOptions service_options;
  service_options.sanitize_devices = false;
  // Matches one ~600-point single-job payload but not two.
  service_options.result_cache_bytes = 4 * 1024;
  service_options.result_cache_dir = dir_.string();
  ProclusService service(service_options);

  JobHandle cold_a;
  ASSERT_TRUE(
      service.Submit(JobSpec::Single(ds.points, params_a, options), &cold_a)
          .ok());
  const JobResult cold = cold_a.Wait();
  ASSERT_TRUE(cold.status.ok());

  JobHandle cold_b;
  ASSERT_TRUE(
      service.Submit(JobSpec::Single(ds.points, params_b, options), &cold_b)
          .ok());
  ASSERT_TRUE(cold_b.Wait().status.ok());
  ASSERT_GE(service.result_cache_stats().spills, 1)
      << "budget did not force a spill; shrink result_cache_bytes";

  JobHandle warm_a;
  ASSERT_TRUE(
      service.Submit(JobSpec::Single(ds.points, params_a, options), &warm_a)
          .ok());
  const JobResult& warm = warm_a.Wait();
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_GE(service.result_cache_stats().disk_loads, 1);
  ASSERT_EQ(warm.results.size(), 1u);
  ExpectSameClustering(cold.results[0], warm.results[0]);
}

TEST(ResultCacheE2eTest, CheckedRunsBypassTheCache) {
  // On a sanitizing service every GPU job runs under the checker — serving
  // one from the cache would skip the check, so GPU jobs are not cacheable
  // there. CPU jobs still are.
  const data::Dataset ds = TestData();
  ServiceOptions service_options;
  service_options.result_cache_bytes = 32 << 20;
  service_options.sanitize_devices = true;
  ProclusService service(service_options);

  for (int round = 0; round < 2; ++round) {
    JobHandle checked;
    ASSERT_TRUE(service
                    .Submit(JobSpec::Single(ds.points, TestParams(),
                                            core::ClusterOptions::Gpu()),
                            &checked)
                    .ok());
    const JobResult& result = checked.Wait();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_FALSE(result.cache_hit);
    EXPECT_TRUE(result.cache_key.empty());
    EXPECT_GT(result.sanitizer_checked_accesses, 0)
        << "checked run did not actually execute under the checker";
  }
  EXPECT_EQ(service.result_cache_stats().inserts, 0);

  // A CPU job on the same service caches normally.
  ExpectWarmHitBitIdentical(
      &service,
      JobSpec::Single(ds.points, TestParams(), core::ClusterOptions::Cpu()));
}

TEST(ResultCacheE2eTest, FailedJobsAreNeverCached) {
  const data::Dataset ds = TestData();
  ProclusService service(CachingOptions());
  core::ProclusParams bad = TestParams();
  bad.k = static_cast<int>(ds.n()) + 10;  // more medoids than points
  for (int round = 0; round < 2; ++round) {
    JobHandle handle;
    const Status submitted = service.Submit(
        JobSpec::Single(ds.points, bad, core::ClusterOptions::Cpu()),
        &handle);
    if (!submitted.ok()) continue;  // rejected at validation: equally fine
    const JobResult& result = handle.Wait();
    EXPECT_FALSE(result.status.ok());
    EXPECT_FALSE(result.cache_hit);
  }
  EXPECT_EQ(service.result_cache_stats().inserts, 0);
}

TEST(ResultCacheE2eTest, MetricsPublishCacheFamily) {
  const data::Dataset ds = TestData();
  ProclusService service(CachingOptions());
  JobHandle h1;
  ASSERT_TRUE(service
                  .Submit(JobSpec::Single(ds.points, TestParams(),
                                          core::ClusterOptions::Cpu()),
                          &h1)
                  .ok());
  h1.Wait();
  JobHandle h2;
  ASSERT_TRUE(service
                  .Submit(JobSpec::Single(ds.points, TestParams(),
                                          core::ClusterOptions::Cpu()),
                          &h2)
                  .ok());
  h2.Wait();

  obs::MetricsRegistry registry;
  service.PublishMetrics(&registry);
  EXPECT_EQ(registry.counter("service.cache.hits")->value(), 1);
  EXPECT_EQ(registry.counter("service.cache.misses")->value(), 1);
  EXPECT_EQ(registry.counter("service.cache.inserts")->value(), 1);
  EXPECT_EQ(registry.gauge("service.cache.entries")->value(), 1.0);
  EXPECT_GT(registry.gauge("service.cache.bytes")->value(), 0.0);
}

}  // namespace
}  // namespace proclus::service
