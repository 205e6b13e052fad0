#ifndef PROCLUS_SERVICE_RESULT_CACHE_H_
#define PROCLUS_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/api.h"
#include "core/multi_param.h"
#include "core/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/job.h"
#include "store/checksummed_file.h"

namespace proclus::service {

struct ResultCacheOptions {
  // In-memory budget across cached payloads; 0 disables residency limits
  // (nothing is ever evicted). When an insert pushes the total past the
  // budget, least-recently-used entries are spilled to `dir` (if set) and
  // dropped until the total fits.
  int64_t budget_bytes = 0;
  // Directory evicted results spill to as content-addressed `<hash>.pcr`
  // files (next to the dataset store's `.pds` files in a typical
  // deployment). Empty = memory-only: evicted results are simply dropped —
  // unlike datasets, results are recomputable, so dropping loses time, not
  // data.
  std::string dir;
  // Optional recorder for "cache" category spans (lookup/insert/spill/load).
  obs::TraceRecorder* trace = nullptr;
};

// Content address of one clustering request: the dataset's 64-bit content
// hash (store::DatasetStore::ContentHash) combined with the canonical text
// of every request field that could shape the result (core/canonical.h).
// `text` is the full canonical line and is the cache's identity — exact
// string match, so hash collisions can never alias two requests. `hash` is
// Fnv1a64 of `text` (common/hash.h); it names the spill file and is what
// crosses the wire as the `cache_key` hex string.
struct ResultCacheKey {
  uint64_t hash = 0;
  std::string text;

  bool valid() const { return !text.empty(); }
  // 16 lowercase hex digits of `hash`.
  std::string Hex() const;
};

// What the cache stores per key: the bit-exact clustering output(s). Run
// statistics and timings are deliberately not part of the payload — a hit
// reports its own (near-zero) timings, while medoids/dimensions/assignment/
// costs are byte-identical to the cold run's.
struct CachedResult {
  // kSingle: exactly one entry. kSweep: one per setting, in input order.
  std::vector<core::ProclusResult> results;
  // kSweep: wall-clock seconds per setting from the cold run (the §5.3
  // figure callers chart); empty for kSingle.
  std::vector<double> setting_seconds;

  // Payload size estimate used for budget accounting.
  int64_t EstimateBytes() const;
};

// Monotonic cache counters plus current occupancy, readable at any time.
struct ResultCacheStats {
  int64_t entries = 0;
  int64_t bytes = 0;
  int64_t hits = 0;         // resident or spill-reloaded lookups
  int64_t misses = 0;       // lookups that started a new flight
  int64_t inserts = 0;
  int64_t evictions = 0;
  int64_t dedup_joins = 0;  // lookups that joined an in-flight computation
  int64_t spills = 0;       // .pcr files written
  int64_t disk_loads = 0;   // hits served through a .pcr reload
};

// Content-addressed cache of clustering results with single-flight
// deduplication, shared by all of a ProclusService's workers and submitting
// threads.
//
// Lookup/insert discipline (the service's side of the contract):
//   - Submit calls AdmitOrJoin once per cacheable job. kHit hands back the
//     payload immediately; kJoined parks a waiter on the in-flight leader;
//     kLead makes this job the leader — it MUST eventually call
//     FinishFlight exactly once (success or failure), or joiners hang.
//   - FinishFlight with an OK status + payload inserts the payload (this is
//     the only insert path — results enter the cache inside the leader
//     job's terminal transition, never half-done) and fans it out to every
//     waiter. A non-OK status (failed / cancelled / timed out / sanitizer
//     findings) caches nothing and fans the status out.
//
// Soundness rests on the determinism contract (core/api.h): a fixed
// (dataset, params, options) input yields one bit-exact output on every
// backend, so serving a stored result is indistinguishable from re-running.
//
// Thread-safety: all public methods are safe to call concurrently. One
// mutex guards the index and the flight table; waiters are always invoked
// with no cache lock held. The mutex is a near-leaf in the lock hierarchy
// (docs/concurrency.md): Submit and the job terminal path call in with no
// job/queue lock held, and the only locks taken under it are the obs
// leaves (spill/load spans).
class ResultCache {
 public:
  // Receives the flight outcome: OK + payload on success, the leader's
  // terminal status + null payload otherwise. Runs on the thread that
  // finished the leader (a worker or a canceller) — keep it short.
  using Waiter =
      std::function<void(const Status&, std::shared_ptr<const CachedResult>)>;

  // Outcome of AdmitOrJoin.
  enum class Admission { kHit, kJoined, kLead };

  explicit ResultCache(ResultCacheOptions options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Builds the content address for one job shape. `sweep` is folded in only
  // for kSweep. Deterministic across processes and runs.
  static ResultCacheKey MakeKey(uint64_t dataset_hash, JobKind kind,
                                const core::ProclusParams& params,
                                const core::ClusterOptions& options,
                                const core::SweepSpec& sweep);

  // Single atomic lookup-or-join-or-lead (one lock acquisition, so a
  // concurrent FinishFlight can never slip between a lookup and a join):
  //   kHit    — `*hit` is set; `waiter` is not retained.
  //   kJoined — an identical job is in flight; `waiter` fires when it
  //             finishes. `*hit` untouched.
  //   kLead   — no cached entry and no flight; the caller is now the
  //             leader and must call FinishFlight. `waiter` not retained.
  // A miss probes `<dir>/<hash>.pcr` when a spill directory is configured;
  // a valid spill file counts as a hit (disk_loads) and re-enters memory.
  Admission AdmitOrJoin(const ResultCacheKey& key,
                        std::shared_ptr<const CachedResult>* hit,
                        Waiter waiter) EXCLUDES(mutex_);

  // Terminates the flight for `key`: inserts `payload` when `status` is OK
  // and payload is non-null, then invokes every parked waiter (outside the
  // cache lock). Exactly one call per kLead admission. Safe when the key
  // has no flight (e.g. the cache raced an EvictByHex) — waiterless inserts
  // still happen.
  void FinishFlight(const ResultCacheKey& key, const Status& status,
                    std::shared_ptr<const CachedResult> payload)
      EXCLUDES(mutex_);

  // Drops the entry whose key hashes to `hex` (16 hex digits, as reported
  // in JobResult::cache_key), including its spill file. `*evicted` reports
  // whether anything was found. kInvalidArgument for malformed hex.
  // In-flight computations are unaffected (their insert simply lands as a
  // fresh entry).
  Status EvictByHex(const std::string& hex, bool* evicted) EXCLUDES(mutex_);

  ResultCacheStats stats() const EXCLUDES(mutex_);

  // Publishes the `service.cache.*` metrics family: entries/bytes gauges
  // plus hits/misses/inserts/evictions/dedup_joins/spills/disk_loads
  // counters (docs/observability.md). Names are literal, not
  // prefix-composed, so the prolint metric-taxonomy rule pins each one to
  // its documentation row.
  void PublishMetrics(obs::MetricsRegistry* registry) const EXCLUDES(mutex_);

  const ResultCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    std::shared_ptr<const CachedResult> payload;
    int64_t bytes = 0;
    bool on_disk = false;
    uint64_t last_use = 0;
  };
  struct Flight {
    std::vector<Waiter> waiters;
  };

  std::string PathForHash(uint64_t hash) const;
  // Inserts `payload` under `key` (replacing any previous entry) and
  // enforces the budget.
  void InsertLocked(const ResultCacheKey& key,
                    std::shared_ptr<const CachedResult> payload)
      REQUIRES(mutex_);
  // Spills + drops LRU entries until the resident bytes fit the budget.
  void EnforceBudgetLocked() REQUIRES(mutex_);
  // Writes `<dir>/<hash(text)>.pcr` for the entry if absent.
  void SpillLocked(const std::string& text, Entry* entry) REQUIRES(mutex_);
  // Probes the spill file for `key`; re-inserts and returns the payload on
  // success, null on absence or corruption (corruption = miss, the file is
  // removed so the slot heals on the next insert).
  std::shared_ptr<const CachedResult> LoadSpillLocked(
      const ResultCacheKey& key) REQUIRES(mutex_);

  const ResultCacheOptions options_;

  mutable Mutex mutex_;
  // Keyed by the full canonical text (exact identity, collision-proof).
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, Flight> flights_ GUARDED_BY(mutex_);
  int64_t resident_bytes_ GUARDED_BY(mutex_) = 0;
  uint64_t use_clock_ GUARDED_BY(mutex_) = 0;  // LRU timestamps
  ResultCacheStats counters_ GUARDED_BY(mutex_);
};

// Serialization of one CachedResult as a `.pcr` ("proclus cached result")
// file, version 2: a checksummed file (store/checksummed_file.h) with magic
// "PCR1" whose header words are the cache-key hash and the payload size in
// bytes, and whose payload is one JSON object:
//
//   {"key":"<canonical key text>", <core::EncodeResultList members>}
//
// — "results" and, for kSweep, "setting_seconds", encoded exactly as on
// the wire (core/serialization.h).
//
// Readers verify magic/version/size/CRC and that both the header hash and
// the embedded key text equal the key being looked up, so a hash collision
// or a renamed file can never serve a wrong clustering. A version-1 file
// (text payload) fails the version check and is treated as corrupt: a miss
// that removes the file. Writes are atomic (sibling `.tmp` plus rename).
inline constexpr uint32_t kPcrVersion = 2;
inline constexpr size_t kPcrHeaderBytes = store::kChecksummedHeaderBytes;
inline constexpr const char* kPcrExtension = ".pcr";

// Exposed for tests: file-level write/read of the spill format.
Status WritePcr(const ResultCacheKey& key, const CachedResult& payload,
                const std::string& path);
Status ReadPcr(const std::string& path, const ResultCacheKey& key,
               CachedResult* payload);

}  // namespace proclus::service

#endif  // PROCLUS_SERVICE_RESULT_CACHE_H_
