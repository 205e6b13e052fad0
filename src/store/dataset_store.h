#ifndef PROCLUS_STORE_DATASET_STORE_H_
#define PROCLUS_STORE_DATASET_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "data/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace proclus::store {

struct StoreOptions {
  // Directory datasets spill to as content-addressed `<hash>.pds` files.
  // Empty means memory-only: nothing spills, nothing is ever evicted by the
  // budget (evicting without a spill path would lose the data).
  std::string dir;
  // Resident-bytes budget across all loaded payloads; 0 means unbounded.
  // When an insert or reload pushes the resident total past the budget,
  // least-recently-used unpinned entries are spilled to `dir` and dropped
  // from memory until the total fits (or only pinned entries remain).
  int64_t resident_budget_bytes = 0;
  // Optional recorder for "store" category spans (load/spill/verify).
  obs::TraceRecorder* trace = nullptr;
};

// Point-in-time description of one stored dataset (List()).
struct DatasetInfo {
  std::string id;
  uint64_t hash = 0;
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t bytes = 0;  // payload bytes (4 * rows * cols)
  bool resident = false;
  bool pinned = false;
};

// Monotonic store counters, readable at any time.
struct StoreStats {
  int64_t resident_bytes = 0;
  int64_t datasets = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t spills = 0;
  int64_t dedup_hits = 0;
  int64_t upload_bytes_total = 0;
};

class DatasetStore;

// RAII pin on a stored dataset: while any PinnedDataset for an entry is
// alive, the entry's payload stays resident and cannot be evicted. Jobs hold
// one of these from submit until completion. Move-only; the destructor
// unpins. A default-constructed (or moved-from) pin is empty.
class PinnedDataset {
 public:
  PinnedDataset() = default;
  PinnedDataset(const PinnedDataset&) = delete;
  PinnedDataset& operator=(const PinnedDataset&) = delete;
  PinnedDataset(PinnedDataset&& other) noexcept { *this = std::move(other); }
  PinnedDataset& operator=(PinnedDataset&& other) noexcept;
  ~PinnedDataset() { Release(); }

  // Unpins now (idempotent).
  void Release();

  bool valid() const { return data_ != nullptr; }
  // The pinned payload; valid() must be true. The pointer stays valid for
  // the lifetime of this pin (and of any shared_ptr copies taken from it).
  const data::Matrix* get() const { return data_.get(); }
  const std::shared_ptr<const data::Matrix>& shared() const { return data_; }

 private:
  friend class DatasetStore;
  PinnedDataset(DatasetStore* st, std::shared_ptr<void> entry,
                std::shared_ptr<const data::Matrix> data)
      : store_(st), entry_(std::move(entry)), data_(std::move(data)) {}

  DatasetStore* store_ = nullptr;
  std::shared_ptr<void> entry_;  // type-erased DatasetStore::Entry
  std::shared_ptr<const data::Matrix> data_;
};

// In-flight chunked upload (UploadBegin/UploadChunk/UploadCommit). Chunks
// must arrive in order: each chunk's byte offset must equal the bytes
// already received. Commit verifies the declared CRC32 before the dataset
// becomes visible. Abort (or destruction) discards the staging buffer.
class UploadSession {
 public:
  const std::string& dataset_id() const { return dataset_id_; }
  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t total_bytes() const { return total_bytes_; }
  int64_t received_bytes() const { return received_bytes_; }

 private:
  friend class DatasetStore;
  // Cross-object guarding: the mutable fields (received_bytes_, staging_)
  // are written only by DatasetStore's upload methods while holding the
  // STORE's mutex_ — a session has no lock of its own. The accessors above
  // are read-side conveniences for the single connection thread driving the
  // upload; concurrent UploadChunk calls on one session serialize through
  // the store. The analysis cannot attach GUARDED_BY to another object's
  // capability here, so this contract is documented rather than annotated.
  std::string dataset_id_;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  int64_t total_bytes_ = 0;
  int64_t received_bytes_ = 0;
  data::Matrix staging_;
};

// Content-addressed dataset storage with bounded resident memory.
//
// Every dataset is identified two ways: by the caller-chosen `id` (what jobs
// reference) and by a 64-bit content hash of (rows, cols, payload). Two ids
// whose payloads hash identically share one on-disk file (`<hash>.pds` in
// the store directory) — re-uploading the same data is deduplicated.
//
// Residency: payloads live in memory until the resident-bytes budget is
// exceeded, at which point least-recently-used unpinned entries are spilled
// to disk (if not already there) and dropped. Acquire() transparently
// reloads a spilled entry — via mmap, so a reload is zero-copy —
// and returns a pin that guarantees the payload stays valid and resident
// until released. Pinned entries are never evicted; if only pinned entries
// remain, the store is allowed to exceed its budget rather than fail jobs.
//
// Thread-safety: all public methods are safe to call concurrently. A single
// mutex guards the index; file IO for spill/reload happens under it, which
// keeps the eviction logic trivially deadlock-free at the cost of
// serializing loads (fine at the dataset sizes and rates we serve today).
class DatasetStore {
 public:
  explicit DatasetStore(StoreOptions options);
  ~DatasetStore();

  DatasetStore(const DatasetStore&) = delete;
  DatasetStore& operator=(const DatasetStore&) = delete;

  // Registers `points` under `id`, replacing any previous mapping for the
  // id (pins on the replaced entry keep its payload alive until released).
  // Returns the content hash via `hash` (optional). Identical content
  // already present under another id shares its on-disk file.
  Status Put(const std::string& id, data::Matrix points,
             uint64_t* hash = nullptr) EXCLUDES(mutex_);

  // Pins `id`'s payload and returns it, reloading from disk if it was
  // evicted. kInvalidArgument for an unknown id. `content_hash` (optional)
  // receives the entry's 64-bit content hash — the service's result cache
  // keys on it, so a re-uploaded id with different content addresses
  // different cached results.
  Status Acquire(const std::string& id, PinnedDataset* pinned,
                 uint64_t* content_hash = nullptr) EXCLUDES(mutex_);

  bool Contains(const std::string& id) const EXCLUDES(mutex_);

  // Drops `id` from the store entirely (its on-disk file too, unless another
  // id shares the content). kFailedPrecondition while the entry is pinned;
  // kInvalidArgument for an unknown id.
  Status Evict(const std::string& id) EXCLUDES(mutex_);

  // --- chunked uploads -----------------------------------------------------

  // Starts a chunked upload of a rows x cols float32 dataset for `id`.
  Status UploadBegin(const std::string& id, int64_t rows, int64_t cols,
                     std::shared_ptr<UploadSession>* session)
      EXCLUDES(mutex_);
  // Appends `len` bytes of little-endian float32 payload at byte `offset`.
  // Offsets must be strictly sequential (offset == bytes received so far).
  Status UploadChunk(const std::shared_ptr<UploadSession>& session,
                     int64_t offset, const void* bytes, int64_t len)
      EXCLUDES(mutex_);
  // Verifies the payload is complete and matches `crc32`, then registers it
  // as if by Put(). `hash`/`deduped` (optional) report the content hash and
  // whether identical content was already stored.
  Status UploadCommit(const std::shared_ptr<UploadSession>& session,
                      uint32_t crc32, uint64_t* hash = nullptr,
                      bool* deduped = nullptr) EXCLUDES(mutex_);
  // Discards the session's staging buffer. Safe on a committed session.
  void UploadAbort(const std::shared_ptr<UploadSession>& session)
      EXCLUDES(mutex_);

  // --- introspection -------------------------------------------------------

  // All stored datasets, sorted by id.
  std::vector<DatasetInfo> List() const EXCLUDES(mutex_);
  StoreStats stats() const EXCLUDES(mutex_);

  // Publishes `<prefix>.resident_bytes|datasets` gauges and
  // `<prefix>.hits|misses|evictions|spills|dedup_hits|upload_bytes_total`
  // counters (see docs/observability.md).
  void PublishMetrics(obs::MetricsRegistry* registry,
                      const std::string& prefix = "store") const;

  const StoreOptions& options() const { return options_; }

  // 64-bit FNV-1a over (rows, cols, payload bytes) — the store's content
  // address. Public so callers holding a dataset outside the store (e.g. a
  // job submitted with an inline payload) can compute the same address the
  // store would assign it.
  static uint64_t ContentHash(const data::Matrix& points);

 private:
  struct Entry;
  friend class PinnedDataset;

  // Registers `points` under `id`.
  Status PutLocked(const std::string& id, data::Matrix points,
                   uint64_t* hash, bool* deduped) REQUIRES(mutex_);
  // Ensures `entry` has a resident payload, reloading from disk on a miss.
  Status EnsureResidentLocked(Entry* entry) REQUIRES(mutex_);
  // Spills + drops LRU unpinned entries until resident bytes fit the budget.
  void EnforceBudgetLocked() REQUIRES(mutex_);
  // Writes the entry's payload to its content-addressed file if absent.
  Status SpillLocked(Entry* entry) REQUIRES(mutex_);
  void Unpin(const std::shared_ptr<void>& entry) EXCLUDES(mutex_);

  const StoreOptions options_;

  // Near the bottom of the lock hierarchy: taken under a job's mutex (pin
  // release in FinishLocked). The only locks acquired while holding it are
  // the obs leaves — load/spill/verify spans under the lock end up in
  // TraceRecorder::AddComplete (docs/concurrency.md).
  mutable Mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_
      GUARDED_BY(mutex_);
  int64_t resident_bytes_ GUARDED_BY(mutex_) = 0;
  uint64_t use_clock_ GUARDED_BY(mutex_) = 0;  // LRU timestamps
  // hit/miss/eviction/... (resident computed live)
  StoreStats counters_ GUARDED_BY(mutex_);
};

}  // namespace proclus::store

#endif  // PROCLUS_STORE_DATASET_STORE_H_
