#include "simt/device.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <thread>

#include "common/env.h"
#include "common/rng.h"

namespace proclus::simt {

namespace {
constexpr size_t kMinChunkBytes = 8ULL << 20;  // 8 MiB
// Launches of at most this many simulated threads (grid x block) run on the
// calling thread: handing a grid to the host pool costs tens of
// microseconds (waking the workers), more than such a grid takes to
// simulate.
constexpr int64_t kInlineLaunchThreads = 4096;
// Block ranges per host worker on a multi-worker launch. Several per worker
// so that grids with irregular blocks (evaluate, update_h) balance.
constexpr int64_t kRangesPerWorker = 8;
// Yields the calling thread spends waiting for the last ranges of a
// multi-worker launch before it sleeps; sleeping right away would add a
// wake-up to every launch, spinning on would take a core from the devices
// that share the host.
constexpr int kWaitYields = 64;

// One multi-worker launch, shared by the calling thread and the pool tasks.
// Heap-owned by every task: a task that a worker picks up only after the
// grid is done finds no range left and returns without touching the
// launch's (by then gone) body or arenas.
struct GridRun {
  const std::function<void(BlockContext&)>* body;
  LaunchConfig cfg;
  int64_t range;
  std::atomic<int64_t> next{0};  // first block of the next unclaimed range
  std::atomic<int64_t> done{0};  // blocks finished
};

void RunRanges(GridRun& run, std::vector<char>* shared) {
  for (;;) {
    const int64_t lo = run.next.fetch_add(run.range, std::memory_order_relaxed);
    if (lo >= run.cfg.grid_dim) return;
    const int64_t hi = std::min(run.cfg.grid_dim, lo + run.range);
    for (int64_t b = lo; b < hi; ++b) {
      BlockContext block(b, run.cfg, shared);
      (*run.body)(block);
    }
    if (run.done.fetch_add(hi - lo, std::memory_order_release) + (hi - lo) ==
        run.cfg.grid_dim) {
      run.done.notify_all();
    }
  }
}
}  // namespace

bool SimtcheckEnvDefault() {
  return GetEnvInt64("PROCLUS_SIMTCHECK", 0) != 0;
}

Device::Device(DeviceProperties props, DeviceOptions options)
    : props_(props),
      pool_(options.host_workers),
      perf_model_(props),
      shared_arenas_(1, std::vector<char>(kSharedMemoryBytes)) {
  shared_arenas_.reserve(pool_.num_threads());
  if (options.sanitize) sanitizer_ = std::make_unique<Sanitizer>();
}

char* Device::AllocBytes(size_t bytes, size_t alignment) {
  if (bytes == 0) bytes = alignment;
  PROCLUS_CHECK(allocated_bytes_ + bytes <= props_.global_memory_bytes);
  // Find a chunk with room, respecting alignment.
  for (Chunk& chunk : chunks_) {
    const size_t offset = (chunk.used + alignment - 1) / alignment * alignment;
    if (offset + bytes <= chunk.capacity) {
      chunk.used = offset + bytes;
      allocated_bytes_ += bytes;
      peak_allocated_bytes_ = std::max(peak_allocated_bytes_, allocated_bytes_);
      char* ptr = chunk.data.get() + offset;
      std::memset(ptr, 0, bytes);
      if (sanitizer_ != nullptr) sanitizer_->OnAlloc(ptr, bytes);
      return ptr;
    }
  }
  Chunk chunk;
  chunk.capacity = std::max(bytes, kMinChunkBytes);
  chunk.data = std::make_unique<char[]>(chunk.capacity);
  chunk.used = bytes;
  chunks_.push_back(std::move(chunk));
  allocated_bytes_ += bytes;
  peak_allocated_bytes_ = std::max(peak_allocated_bytes_, allocated_bytes_);
  char* ptr = chunks_.back().data.get();
  std::memset(ptr, 0, bytes);
  if (sanitizer_ != nullptr) {
    sanitizer_->OnChunkCreated(ptr, chunks_.back().capacity);
    sanitizer_->OnAlloc(ptr, bytes);
  }
  return ptr;
}

void Device::FreeAll() {
  if (sanitizer_ != nullptr) sanitizer_->OnFreeAll();
  chunks_.clear();
  allocated_bytes_ = 0;
}

void Device::ResetArena() {
  if (sanitizer_ != nullptr) sanitizer_->OnArenaReset();
  for (Chunk& chunk : chunks_) chunk.used = 0;
  allocated_bytes_ = 0;
}

void Device::BeginConcurrentRegion(int num_streams) {
  PROCLUS_CHECK(!in_region_);
  PROCLUS_CHECK(num_streams >= 1);
  in_region_ = true;
  current_stream_ = 0;
  stream_seconds_.assign(num_streams, 0.0);
}

void Device::SetStream(int stream) {
  PROCLUS_CHECK(in_region_);
  PROCLUS_CHECK(stream >= 0 &&
                stream < static_cast<int>(stream_seconds_.size()));
  current_stream_ = stream;
}

void Device::EndConcurrentRegion() {
  PROCLUS_CHECK(in_region_);
  in_region_ = false;
  double sum = 0.0;
  double longest = 0.0;
  for (const double s : stream_seconds_) {
    sum += s;
    longest = std::max(longest, s);
  }
  // The launches were recorded sequentially; fold the overlap back in.
  perf_model_.AdjustTotal(longest - sum);
}

void Device::set_trace(obs::TraceRecorder* trace) {
  trace_ = trace;
  trace_track_ = -1;  // lazily (re-)registered against the new recorder
}

void Device::TraceDeviceEvent(const char* name, const char* category,
                              double seconds,
                              std::vector<obs::TraceArg> args) {
  if (trace_ == nullptr || !trace_->enabled()) return;
  if (trace_track_ < 0) {
    trace_track_ = trace_->RegisterTrack(std::string("device:") + props_.name);
  }
  const double dur_us = seconds * 1e6;
  const double start_us = std::max(trace_cursor_us_, trace_->NowMicros());
  trace_cursor_us_ = start_us + dur_us;
  trace_->AddCompleteOnTrack(trace_track_, name, category, start_us, dur_us,
                             std::move(args));
}

void Device::TraceTransfer(const char* name, double bytes, double seconds) {
  if (trace_ == nullptr || !trace_->enabled()) return;
  TraceDeviceEvent(name, "transfer", seconds,
                   {obs::TraceArg::Double("bytes", bytes),
                    obs::TraceArg::Double("modeled_ms", seconds * 1e3)});
}

void Device::Launch(const char* name, LaunchConfig cfg,
                    const WorkEstimate& work,
                    const std::function<void(BlockContext&)>& body) {
  PROCLUS_CHECK(cfg.grid_dim >= 0);
  PROCLUS_CHECK(cfg.block_dim >= 1);
  PROCLUS_CHECK(cfg.block_dim <= props_.max_threads_per_block);
  const double seconds =
      perf_model_.RecordLaunch(name, cfg.grid_dim, cfg.block_dim, work);
  if (in_region_) stream_seconds_[current_stream_] += seconds;
  if (trace_ != nullptr && trace_->enabled()) {
    const OccupancyInfo occ =
        perf_model_.ComputeOccupancy(cfg.grid_dim, cfg.block_dim);
    TraceDeviceEvent(
        name, "kernel", seconds,
        {obs::TraceArg::Double("modeled_ms", seconds * 1e3),
         obs::TraceArg::Int("grid_dim", cfg.grid_dim),
         obs::TraceArg::Int("block_dim", cfg.block_dim),
         obs::TraceArg::Double("flops", work.flops),
         obs::TraceArg::Double("bytes", work.bytes),
         obs::TraceArg::Double("atomics", work.atomics),
         obs::TraceArg::Double("theoretical_occupancy", occ.theoretical),
         obs::TraceArg::Double("achieved_occupancy", occ.achieved)});
  }
  if (cfg.grid_dim == 0) return;
  if (sanitizer_ != nullptr) {
    // Checked mode: run blocks one at a time on the calling thread so the
    // shadow state needs no locking, in a permutation seeded from the launch
    // sequence number so that a kernel whose result depends on block order
    // differs from its unchecked run even on one core.
    sanitizer_->BeginLaunch(name, cfg.grid_dim, cfg.block_dim);
    std::vector<int64_t> order(cfg.grid_dim);
    std::iota(order.begin(), order.end(), int64_t{0});
    Rng(sanitizer_->launch_id()).Shuffle(order);
    for (const int64_t b : order) {
      BlockContext block(b, cfg, &shared_arenas_[0], sanitizer_.get());
      body(block);
    }
    sanitizer_->EndLaunch();
    return;
  }
  if (pool_.num_threads() == 1 || cfg.grid_dim == 1 ||
      cfg.grid_dim * cfg.block_dim <= kInlineLaunchThreads) {
    for (int64_t b = 0; b < cfg.grid_dim; ++b) {
      BlockContext block(b, cfg, &shared_arenas_[0]);
      body(block);
    }
    return;
  }
  // Multi-worker: the calling thread and up to workers - 1 pool threads
  // claim block ranges from a shared cursor. The caller waits for the
  // blocks, not for the tasks, so a worker that wakes up late costs
  // nothing.
  const int64_t workers =
      std::min<int64_t>(pool_.num_threads(), cfg.grid_dim);
  if (static_cast<int64_t>(shared_arenas_.size()) < workers) {
    shared_arenas_.resize(workers, std::vector<char>(kSharedMemoryBytes));
  }
  auto run = std::make_shared<GridRun>();
  run->body = &body;
  run->cfg = cfg;
  run->range =
      std::max<int64_t>(1, cfg.grid_dim / (workers * kRangesPerWorker));
  for (int64_t w = 1; w < workers; ++w) {
    pool_.Submit([run, shared = &shared_arenas_[w]] {
      RunRanges(*run, shared);
    });
  }
  RunRanges(*run, &shared_arenas_[0]);
  int64_t done = 0;
  for (int spin = 0;
       (done = run->done.load(std::memory_order_acquire)) < cfg.grid_dim;
       ++spin) {
    if (spin < kWaitYields) {
      std::this_thread::yield();
    } else {
      run->done.wait(done, std::memory_order_acquire);
    }
  }
}

}  // namespace proclus::simt
