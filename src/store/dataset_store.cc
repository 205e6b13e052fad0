#include "store/dataset_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/hash.h"
#include "common/macros.h"
#include "store/checksummed_file.h"
#include "store/pds_format.h"

namespace proclus::store {

// One stored dataset. Guarded by the store mutex except where noted.
struct DatasetStore::Entry {
  std::string id;
  uint64_t hash = 0;
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t bytes = 0;  // payload bytes
  // Resident payload; null when evicted. Pins take shared_ptr copies, so
  // dropping this does not free memory out from under an active pin.
  std::shared_ptr<const data::Matrix> resident;
  bool on_disk = false;
  std::string path;  // content-addressed spill path (empty in memory-only)
  int64_t pins = 0;
  uint64_t last_use = 0;
  // True while reachable from entries_; a replaced entry is detached and no
  // longer participates in eviction or file ownership.
  bool live = true;
};

PinnedDataset& PinnedDataset::operator=(PinnedDataset&& other) noexcept {
  if (this != &other) {
    Release();
    store_ = other.store_;
    entry_ = std::move(other.entry_);
    data_ = std::move(other.data_);
    other.store_ = nullptr;
    other.entry_.reset();
    other.data_.reset();
  }
  return *this;
}

void PinnedDataset::Release() {
  if (store_ != nullptr && entry_ != nullptr) {
    store_->Unpin(entry_);
  }
  store_ = nullptr;
  entry_.reset();
  data_.reset();
}

DatasetStore::DatasetStore(StoreOptions options)
    : options_(std::move(options)) {
  if (!options_.dir.empty()) {
    // Best-effort: a dir that cannot be created surfaces as a descriptive
    // spill/read error later instead of failing construction.
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
  }
}

DatasetStore::~DatasetStore() = default;

uint64_t DatasetStore::ContentHash(const data::Matrix& points) {
  // FNV-1a, 64-bit, over the shape then the raw payload bytes. The shape is
  // included so a 2x6 and a 3x4 matrix with equal payloads hash apart.
  const int64_t shape[2] = {points.rows(), points.cols()};
  return Fnv1a64(points.data(), static_cast<size_t>(points.size()) * 4,
                 Fnv1a64(shape, sizeof(shape)));
}

Status DatasetStore::Put(const std::string& id, data::Matrix points,
                         uint64_t* hash) {
  MutexLock lock(&mutex_);
  return PutLocked(id, std::move(points), hash, nullptr);
}

Status DatasetStore::PutLocked(const std::string& id, data::Matrix points,
                               uint64_t* hash, bool* deduped) {
  if (id.empty()) {
    return Status::InvalidArgument("dataset id must not be empty");
  }
  if (points.empty()) {
    return Status::InvalidArgument("dataset must not be empty");
  }
  uint64_t content_hash = ContentHash(points);
  if (hash != nullptr) *hash = content_hash;
  if (deduped != nullptr) *deduped = false;

  // Identical content already stored (under this or another id)? Reuse its
  // on-disk file; the new id still gets its own entry and residency.
  bool content_on_disk = false;
  for (const auto& [other_id, other] : entries_) {
    if (other->hash == content_hash) {
      if (deduped != nullptr) *deduped = true;
      counters_.dedup_hits++;
      content_on_disk = other->on_disk;
      break;
    }
  }

  auto entry = std::make_shared<Entry>();
  entry->id = id;
  entry->hash = content_hash;
  entry->rows = points.rows();
  entry->cols = points.cols();
  entry->bytes = points.size() * 4;
  entry->resident = std::make_shared<const data::Matrix>(std::move(points));
  entry->on_disk = content_on_disk;
  entry->path = options_.dir.empty()
                    ? ""
                    : ContentAddressedPath(options_.dir, content_hash,
                                           kPdsExtension);
  entry->last_use = ++use_clock_;

  auto it = entries_.find(id);
  if (it != entries_.end()) {
    // Replace: detach the old entry. Active pins hold shared_ptr copies of
    // both the entry and its payload, so in-flight jobs keep computing on
    // the data they pinned.
    it->second->live = false;
    if (it->second->resident != nullptr) {
      resident_bytes_ -= it->second->bytes;
    }
    it->second = entry;
  } else {
    entries_.emplace(id, entry);
  }
  resident_bytes_ += entry->bytes;
  EnforceBudgetLocked();
  return Status::OK();
}

Status DatasetStore::Acquire(const std::string& id, PinnedDataset* pinned,
                             uint64_t* content_hash) {
  PROCLUS_CHECK(pinned != nullptr);
  MutexLock lock(&mutex_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::InvalidArgument("unknown dataset id: " + id);
  }
  Entry* entry = it->second.get();
  // Pin before reloading: the budget enforcement a reload can trigger must
  // never pick the entry being acquired as its eviction victim.
  entry->pins++;
  entry->last_use = ++use_clock_;
  const Status resident = EnsureResidentLocked(entry);
  if (!resident.ok()) {
    entry->pins--;
    return resident;
  }
  *pinned = PinnedDataset(this, it->second, entry->resident);
  if (content_hash != nullptr) *content_hash = entry->hash;
  return Status::OK();
}

bool DatasetStore::Contains(const std::string& id) const {
  MutexLock lock(&mutex_);
  return entries_.count(id) > 0;
}

Status DatasetStore::Evict(const std::string& id) {
  MutexLock lock(&mutex_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::InvalidArgument("unknown dataset id: " + id);
  }
  std::shared_ptr<Entry> entry = it->second;
  if (entry->pins > 0) {
    return Status::FailedPrecondition(
        "dataset is pinned by in-flight jobs: " + id);
  }
  if (entry->resident != nullptr) {
    resident_bytes_ -= entry->bytes;
  }
  entry->live = false;
  entries_.erase(it);
  // Remove the content file unless another live id shares the content.
  if (entry->on_disk) {
    bool shared = false;
    for (const auto& [other_id, other] : entries_) {
      if (other->hash == entry->hash) {
        shared = true;
        break;
      }
    }
    if (!shared) std::remove(entry->path.c_str());
  }
  return Status::OK();
}

Status DatasetStore::EnsureResidentLocked(Entry* entry) {
  if (entry->resident != nullptr) {
    counters_.hits++;
    return Status::OK();
  }
  counters_.misses++;
  PROCLUS_CHECK(entry->on_disk);  // evicted implies spilled
  obs::TraceSpan span(options_.trace, "store.load", "store");
  span.AddArg(obs::TraceArg::Str("id", entry->id));
  span.AddArg(obs::TraceArg::Int("bytes", entry->bytes));
  data::Matrix m;
  PROCLUS_RETURN_NOT_OK(MapPds(entry->path, &m));
  if (m.rows() != entry->rows || m.cols() != entry->cols) {
    return Status::IoError("spilled dataset shape changed on disk: " +
                           entry->path);
  }
  entry->resident = std::make_shared<const data::Matrix>(std::move(m));
  resident_bytes_ += entry->bytes;
  EnforceBudgetLocked();
  return Status::OK();
}

void DatasetStore::EnforceBudgetLocked() {
  if (options_.resident_budget_bytes <= 0 || options_.dir.empty()) return;
  while (resident_bytes_ > options_.resident_budget_bytes) {
    // LRU scan over resident, unpinned entries. O(n) per eviction is fine
    // for the dataset counts a store holds (tens, not millions).
    Entry* victim = nullptr;
    for (const auto& [id, entry] : entries_) {
      if (entry->resident == nullptr || entry->pins > 0) continue;
      if (victim == nullptr || entry->last_use < victim->last_use) {
        victim = entry.get();
      }
    }
    if (victim == nullptr) return;  // everything left is pinned: overshoot
    if (!SpillLocked(victim).ok()) return;  // keep resident over data loss
    victim->resident.reset();
    resident_bytes_ -= victim->bytes;
    counters_.evictions++;
  }
}

Status DatasetStore::SpillLocked(Entry* entry) {
  if (entry->on_disk) return Status::OK();
  PROCLUS_CHECK(!options_.dir.empty() && entry->resident != nullptr);
  obs::TraceSpan span(options_.trace, "store.spill", "store");
  span.AddArg(obs::TraceArg::Str("id", entry->id));
  span.AddArg(obs::TraceArg::Int("bytes", entry->bytes));
  PROCLUS_RETURN_NOT_OK(WritePds(*entry->resident, entry->path));
  entry->on_disk = true;
  counters_.spills++;
  return Status::OK();
}

void DatasetStore::Unpin(const std::shared_ptr<void>& entry) {
  MutexLock lock(&mutex_);
  auto* e = static_cast<Entry*>(entry.get());
  PROCLUS_CHECK(e->pins > 0);
  e->pins--;
  // A release can make an over-budget store (everything was pinned)
  // evictable again.
  if (e->pins == 0) EnforceBudgetLocked();
}

Status DatasetStore::UploadBegin(const std::string& id, int64_t rows,
                                 int64_t cols,
                                 std::shared_ptr<UploadSession>* session) {
  PROCLUS_CHECK(session != nullptr);
  if (id.empty()) {
    return Status::InvalidArgument("dataset id must not be empty");
  }
  if (rows <= 0 || cols <= 0) {
    return Status::InvalidArgument(
        "upload shape must be positive, got " + std::to_string(rows) + "x" +
        std::to_string(cols));
  }
  if (cols > (INT64_MAX / 4) / rows) {
    return Status::InvalidArgument("upload shape overflows byte count");
  }
  auto s = std::make_shared<UploadSession>();
  s->dataset_id_ = id;
  s->rows_ = rows;
  s->cols_ = cols;
  s->total_bytes_ = rows * cols * 4;
  s->staging_ = data::Matrix(rows, cols);
  *session = std::move(s);
  return Status::OK();
}

Status DatasetStore::UploadChunk(const std::shared_ptr<UploadSession>& session,
                                 int64_t offset, const void* bytes,
                                 int64_t len) {
  PROCLUS_CHECK(session != nullptr && (bytes != nullptr || len == 0));
  MutexLock lock(&mutex_);
  UploadSession* s = session.get();
  if (s->staging_.empty() && s->total_bytes_ > 0) {
    return Status::FailedPrecondition("upload session already finished: " +
                                      s->dataset_id_);
  }
  if (len < 0 || (len % 4) != 0) {
    return Status::InvalidArgument(
        "chunk length must be a non-negative multiple of 4, got " +
        std::to_string(len));
  }
  if (offset != s->received_bytes_) {
    return Status::InvalidArgument(
        "chunk offset " + std::to_string(offset) +
        " out of order (expected " + std::to_string(s->received_bytes_) +
        ") for dataset " + s->dataset_id_);
  }
  if (offset + len > s->total_bytes_) {
    return Status::InvalidArgument(
        "chunk overruns payload: offset " + std::to_string(offset) + " + " +
        std::to_string(len) + " > " + std::to_string(s->total_bytes_));
  }
  std::memcpy(reinterpret_cast<unsigned char*>(s->staging_.data()) + offset,
              bytes, static_cast<size_t>(len));
  s->received_bytes_ += len;
  counters_.upload_bytes_total += len;
  return Status::OK();
}

Status DatasetStore::UploadCommit(
    const std::shared_ptr<UploadSession>& session, uint32_t crc32,
    uint64_t* hash, bool* deduped) {
  PROCLUS_CHECK(session != nullptr);
  MutexLock lock(&mutex_);
  UploadSession* s = session.get();
  if (s->staging_.empty() && s->total_bytes_ > 0) {
    return Status::FailedPrecondition("upload session already finished: " +
                                      s->dataset_id_);
  }
  if (s->received_bytes_ != s->total_bytes_) {
    return Status::InvalidArgument(
        "upload incomplete: received " + std::to_string(s->received_bytes_) +
        " of " + std::to_string(s->total_bytes_) + " bytes for dataset " +
        s->dataset_id_);
  }
  {
    obs::TraceSpan span(options_.trace, "store.verify", "store");
    span.AddArg(obs::TraceArg::Str("id", s->dataset_id_));
    uint32_t actual =
        Crc32(s->staging_.data(), static_cast<size_t>(s->total_bytes_));
    if (actual != crc32) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "upload checksum mismatch for dataset %s "
                    "(declared %08x, computed %08x)",
                    s->dataset_id_.c_str(), crc32, actual);
      return Status::InvalidArgument(buf);
    }
  }
  PROCLUS_RETURN_NOT_OK(
      PutLocked(s->dataset_id_, std::move(s->staging_), hash, deduped));
  s->staging_ = data::Matrix();
  return Status::OK();
}

void DatasetStore::UploadAbort(const std::shared_ptr<UploadSession>& session) {
  if (session == nullptr) return;
  MutexLock lock(&mutex_);
  session->staging_ = data::Matrix();
}

std::vector<DatasetInfo> DatasetStore::List() const {
  MutexLock lock(&mutex_);
  std::vector<DatasetInfo> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    DatasetInfo info;
    info.id = id;
    info.hash = entry->hash;
    info.rows = entry->rows;
    info.cols = entry->cols;
    info.bytes = entry->bytes;
    info.resident = entry->resident != nullptr;
    info.pinned = entry->pins > 0;
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const DatasetInfo& a, const DatasetInfo& b) {
              return a.id < b.id;
            });
  return out;
}

StoreStats DatasetStore::stats() const {
  MutexLock lock(&mutex_);
  StoreStats out = counters_;
  out.resident_bytes = resident_bytes_;
  out.datasets = static_cast<int64_t>(entries_.size());
  return out;
}

void DatasetStore::PublishMetrics(obs::MetricsRegistry* registry,
                                  const std::string& prefix) const {
  PROCLUS_CHECK(registry != nullptr);
  StoreStats s = stats();
  registry->gauge(prefix + ".resident_bytes")
      ->Set(static_cast<double>(s.resident_bytes));
  registry->gauge(prefix + ".datasets")->Set(static_cast<double>(s.datasets));
  auto set_counter = [registry, &prefix](const char* name, int64_t value) {
    obs::Counter* c = registry->counter(prefix + "." + name);
    c->Increment(value - c->value());
  };
  set_counter("hits", s.hits);
  set_counter("misses", s.misses);
  set_counter("evictions", s.evictions);
  set_counter("spills", s.spills);
  set_counter("dedup_hits", s.dedup_hits);
  set_counter("upload_bytes_total", s.upload_bytes_total);
}

}  // namespace proclus::store
