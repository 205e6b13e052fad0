#include "service/result_cache.h"

#include <cstdio>
#include <utility>

#include "common/hash.h"
#include "common/json.h"
#include "common/macros.h"
#include "core/canonical.h"
#include "core/serialization.h"
#include "store/checksummed_file.h"

namespace proclus::service {
namespace {

using json::JsonValue;

// Words: key hash, payload bytes. The size word must equal what the file
// really holds.
Status CheckPayloadSize(uint64_t /*key_hash*/, uint64_t claimed,
                        size_t payload_bytes, const std::string& path) {
  if (claimed != payload_bytes) {
    return Status::IoError("corrupt .pcr header (payload size mismatch: "
                           "header claims " + std::to_string(claimed) +
                           " bytes, file holds " +
                           std::to_string(payload_bytes) + "): " + path);
  }
  return Status::OK();
}

constexpr store::ChecksummedFormat kPcr = {"PCR1", kPcrVersion, kPcrExtension,
                                           &CheckPayloadSize};

}  // namespace

std::string ResultCacheKey::Hex() const { return Hex64(hash); }

int64_t CachedResult::EstimateBytes() const {
  int64_t bytes = 64;
  for (const core::ProclusResult& r : results) {
    bytes += 128;  // struct + vector headers
    bytes += static_cast<int64_t>(r.medoids.size()) * 4;
    bytes += static_cast<int64_t>(r.assignment.size()) * 4;
    for (const std::vector<int>& dims : r.dimensions) {
      bytes += 24 + static_cast<int64_t>(dims.size()) * 4;
    }
  }
  bytes += static_cast<int64_t>(setting_seconds.size()) * 8;
  return bytes;
}

Status WritePcr(const ResultCacheKey& key, const CachedResult& payload,
                const std::string& path) {
  JsonValue v = JsonValue::Object();
  v.Set("key", JsonValue::Str(key.text));
  core::EncodeResultList(payload.results, payload.setting_seconds, &v);
  const std::string body = json::Dump(v);
  return store::WriteChecksummedFile(kPcr, key.hash, body.size(), body.data(),
                                     body.size(), path);
}

Status ReadPcr(const std::string& path, const ResultCacheKey& key,
               CachedResult* payload) {
  PROCLUS_CHECK(payload != nullptr);
  store::ChecksummedFile file;
  PROCLUS_RETURN_NOT_OK(store::ReadChecksummedFile(kPcr, path, &file));
  if (file.word0 != key.hash) {
    return Status::IoError("cached result hash mismatch: " + path);
  }
  JsonValue v;
  std::string error;
  if (!json::Parse(std::string(reinterpret_cast<const char*>(file.payload),
                               file.payload_bytes),
                   &v, &error)) {
    return Status::IoError("corrupt .pcr payload (" + error + "): " + path);
  }
  const JsonValue* stored_key = v.Find("key");
  if (stored_key == nullptr || stored_key->AsString() != key.text) {
    // A hash collision or a file renamed across keys: never serve it.
    return Status::IoError("cached result key mismatch: " + path);
  }
  PROCLUS_RETURN_NOT_OK(core::DecodeResultList(v, &payload->results,
                                               &payload->setting_seconds));
  if (payload->results.empty()) {
    return Status::IoError("corrupt .pcr payload (no results): " + path);
  }
  return Status::OK();
}

ResultCache::ResultCache(ResultCacheOptions options)
    : options_(std::move(options)) {}

ResultCacheKey ResultCache::MakeKey(uint64_t dataset_hash, JobKind kind,
                                    const core::ProclusParams& params,
                                    const core::ClusterOptions& options,
                                    const core::SweepSpec& sweep) {
  ResultCacheKey key;
  key.text = "proclus-job v1 dataset=" + Hex64(dataset_hash);
  key.text += kind == JobKind::kSweep ? " kind=sweep " : " kind=single ";
  core::AppendCanonicalParams(params, &key.text);
  key.text.push_back(' ');
  core::AppendCanonicalOptions(options, &key.text);
  if (kind == JobKind::kSweep) {
    key.text.push_back(' ');
    core::AppendCanonicalSweep(sweep, &key.text);
  }
  key.hash = Fnv1a64(key.text);
  return key;
}

std::string ResultCache::PathForHash(uint64_t hash) const {
  return store::ContentAddressedPath(options_.dir, hash, kPcrExtension);
}

ResultCache::Admission ResultCache::AdmitOrJoin(
    const ResultCacheKey& key, std::shared_ptr<const CachedResult>* hit,
    Waiter waiter) {
  PROCLUS_CHECK(key.valid());
  PROCLUS_CHECK(hit != nullptr);
  obs::TraceSpan span(options_.trace, "cache.lookup", "cache");
  span.AddArg(obs::TraceArg::Str("key", key.Hex()));
  MutexLock lock(&mutex_);
  auto it = entries_.find(key.text);
  if (it != entries_.end()) {
    it->second.last_use = ++use_clock_;
    counters_.hits++;
    *hit = it->second.payload;
    span.AddArg(obs::TraceArg::Str("outcome", "hit"));
    return Admission::kHit;
  }
  auto flight = flights_.find(key.text);
  if (flight != flights_.end()) {
    flight->second.waiters.push_back(std::move(waiter));
    counters_.dedup_joins++;
    span.AddArg(obs::TraceArg::Str("outcome", "join"));
    return Admission::kJoined;
  }
  if (!options_.dir.empty()) {
    std::shared_ptr<const CachedResult> loaded = LoadSpillLocked(key);
    if (loaded != nullptr) {
      counters_.hits++;
      counters_.disk_loads++;
      *hit = std::move(loaded);
      span.AddArg(obs::TraceArg::Str("outcome", "load"));
      return Admission::kHit;
    }
  }
  counters_.misses++;
  flights_.emplace(key.text, Flight());
  span.AddArg(obs::TraceArg::Str("outcome", "lead"));
  return Admission::kLead;
}

void ResultCache::FinishFlight(const ResultCacheKey& key, const Status& status,
                               std::shared_ptr<const CachedResult> payload) {
  PROCLUS_CHECK(key.valid());
  std::vector<Waiter> waiters;
  {
    MutexLock lock(&mutex_);
    auto flight = flights_.find(key.text);
    if (flight != flights_.end()) {
      waiters = std::move(flight->second.waiters);
      flights_.erase(flight);
    }
    if (status.ok() && payload != nullptr) {
      obs::TraceSpan span(options_.trace, "cache.insert", "cache");
      span.AddArg(obs::TraceArg::Str("key", key.Hex()));
      InsertLocked(key, payload);
    }
  }
  // Waiters take job mutexes; never invoke them with the cache lock held.
  for (Waiter& waiter : waiters) {
    if (waiter) waiter(status, payload);
  }
}

Status ResultCache::EvictByHex(const std::string& hex, bool* evicted) {
  if (evicted != nullptr) *evicted = false;
  if (hex.size() != 16 ||
      hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return Status::InvalidArgument("malformed cache key (want 16 hex digits): " +
                                   hex);
  }
  uint64_t hash = 0;
  for (const char c : hex) {
    hash = hash << 4 |
           static_cast<uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  MutexLock lock(&mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (Fnv1a64(it->first) != hash) continue;
    resident_bytes_ -= it->second.bytes;
    counters_.evictions++;
    entries_.erase(it);
    if (evicted != nullptr) *evicted = true;
    break;
  }
  if (!options_.dir.empty()) {
    if (std::remove(PathForHash(hash).c_str()) == 0 && evicted != nullptr) {
      *evicted = true;
    }
  }
  return Status::OK();
}

ResultCacheStats ResultCache::stats() const {
  MutexLock lock(&mutex_);
  ResultCacheStats snapshot = counters_;
  snapshot.entries = static_cast<int64_t>(entries_.size());
  snapshot.bytes = resident_bytes_;
  return snapshot;
}

void ResultCache::PublishMetrics(obs::MetricsRegistry* registry) const {
  PROCLUS_CHECK(registry != nullptr);
  const ResultCacheStats s = stats();
  // Literal full names: the prolint metric-taxonomy rule requires each to
  // appear in the docs/observability.md full-name table.
  registry->gauge("service.cache.entries")
      ->Set(static_cast<double>(s.entries));
  registry->gauge("service.cache.bytes")->Set(static_cast<double>(s.bytes));
  const auto set_counter = [registry](obs::Counter* c, int64_t value) {
    c->Increment(value - c->value());
  };
  set_counter(registry->counter("service.cache.hits"), s.hits);
  set_counter(registry->counter("service.cache.misses"), s.misses);
  set_counter(registry->counter("service.cache.inserts"), s.inserts);
  set_counter(registry->counter("service.cache.evictions"), s.evictions);
  set_counter(registry->counter("service.cache.dedup_joins"), s.dedup_joins);
  set_counter(registry->counter("service.cache.spills"), s.spills);
  set_counter(registry->counter("service.cache.disk_loads"), s.disk_loads);
}

void ResultCache::InsertLocked(const ResultCacheKey& key,
                               std::shared_ptr<const CachedResult> payload) {
  Entry& entry = entries_[key.text];
  if (entry.payload != nullptr) {
    // Replacing an identical-key entry (e.g. re-insert after EvictByHex
    // raced an in-flight run): drop the old accounting first.
    resident_bytes_ -= entry.bytes;
  }
  entry.payload = std::move(payload);
  entry.bytes = entry.payload->EstimateBytes();
  entry.on_disk = false;
  entry.last_use = ++use_clock_;
  resident_bytes_ += entry.bytes;
  counters_.inserts++;
  EnforceBudgetLocked();
}

void ResultCache::EnforceBudgetLocked() {
  if (options_.budget_bytes <= 0) return;
  while (resident_bytes_ > options_.budget_bytes && !entries_.empty()) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (!options_.dir.empty()) {
      SpillLocked(victim->first, &victim->second);
    }
    resident_bytes_ -= victim->second.bytes;
    counters_.evictions++;
    entries_.erase(victim);
  }
}

void ResultCache::SpillLocked(const std::string& text, Entry* entry) {
  if (entry->on_disk) return;
  ResultCacheKey key;
  key.text = text;
  key.hash = Fnv1a64(text);
  obs::TraceSpan span(options_.trace, "cache.spill", "cache");
  span.AddArg(obs::TraceArg::Str("key", key.Hex()));
  const Status st = WritePcr(key, *entry->payload, PathForHash(key.hash));
  if (st.ok()) {
    entry->on_disk = true;
    counters_.spills++;
  }
  span.AddArg(obs::TraceArg::Str("outcome", st.ok() ? "ok" : "error"));
}

std::shared_ptr<const CachedResult> ResultCache::LoadSpillLocked(
    const ResultCacheKey& key) {
  const std::string path = PathForHash(key.hash);
  {
    std::FILE* probe = std::fopen(path.c_str(), "rb");
    if (probe == nullptr) return nullptr;  // plain miss, no span
    std::fclose(probe);
  }
  obs::TraceSpan span(options_.trace, "cache.load", "cache");
  span.AddArg(obs::TraceArg::Str("key", key.Hex()));
  auto loaded = std::make_shared<CachedResult>();
  const Status st = ReadPcr(path, key, loaded.get());
  if (!st.ok()) {
    // Corruption is a miss; remove the file so the next insert heals it.
    std::remove(path.c_str());
    span.AddArg(obs::TraceArg::Str("outcome", "corrupt"));
    return nullptr;
  }
  std::shared_ptr<const CachedResult> payload = std::move(loaded);
  Entry& entry = entries_[key.text];
  entry.payload = payload;
  entry.bytes = payload->EstimateBytes();
  entry.on_disk = true;
  entry.last_use = ++use_clock_;
  resident_bytes_ += entry.bytes;
  EnforceBudgetLocked();
  span.AddArg(obs::TraceArg::Str("outcome", "ok"));
  return payload;
}

}  // namespace proclus::service
