#ifndef PROCLUS_SIMT_DEVICE_H_
#define PROCLUS_SIMT_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "simt/atomic.h"
#include "simt/device_properties.h"
#include "simt/perf_model.h"
#include "simt/sanitizer.h"

namespace proclus::simt {

class Device;

// Kernel launch geometry: `grid_dim` thread blocks of `block_dim` threads.
struct LaunchConfig {
  int64_t grid_dim = 1;
  int block_dim = 1;
};

// Per-block shared-memory capacity (the 48 KiB of a CUDA SM).
inline constexpr size_t kSharedMemoryBytes = 48 * 1024;

// True when PROCLUS_SIMTCHECK is set to a non-zero value: the default for
// DeviceOptions::sanitize, so `PROCLUS_SIMTCHECK=1 ctest` runs every device
// in checked mode without code changes.
bool SimtcheckEnvDefault();

// Construction-time device knobs.
struct DeviceOptions {
  // Host worker threads that execute thread blocks. 0 selects one per
  // hardware thread (the ThreadPool default); 1 runs every block on the
  // calling thread. Results do not depend on this (see Device::Launch).
  int host_workers = 0;
  // Checked execution (simtcheck): shadow-track every access made through
  // the BlockContext accessors and report GPU-semantics violations (races,
  // out-of-bounds, use-after-reset). Runs blocks one at a time on the
  // calling thread, in a permutation seeded from the launch sequence
  // number, so reports are reproducible and any dependence on block order
  // changes the result. See src/simt/sanitizer.h / docs/simt.md.
  bool sanitize = SimtcheckEnvDefault();
};

// Execution context handed to the kernel body, once per thread block.
//
// The simulator preserves CUDA's intra-block synchronization semantics by
// construction: the per-thread work of one ForEachThread call completes
// before the next call starts, so the boundary between two ForEachThread
// calls *is* a __syncthreads() barrier. Kernels are therefore written as a
// sequence of thread phases, exactly mirroring the paper's pseudo-code
// ("synchronize threads" = start a new ForEachThread phase).
//
// Blocks may run concurrently on host worker threads and in any order, so
// no result may depend on block order. Memory that several blocks of one
// launch update goes through the atomics in simt/atomic.h (or the
// AtomicAdd/... wrappers below), and only with order-independent operations
// (integer add, min, max). Ordered results (member lists, float sums) are
// built from per-block partials that a later launch combines in block-index
// order (docs/simt.md, "Determinism contract").
//
// Kernels access memory through the checked accessors (Load/Store/
// LoadSpan/Atomic*). With sanitize off these are the raw loads and stores
// behind one predictable null check; with sanitize on every access is
// bounds-, liveness- and race-checked by the Sanitizer, and ForEachThread/
// Sync() boundaries advance a phase counter that delimits happens-before.
class BlockContext {
 public:
  BlockContext(int64_t block_idx, const LaunchConfig& cfg,
               std::vector<char>* shared_arena,
               Sanitizer* sanitizer = nullptr)
      : block_idx_(block_idx),
        cfg_(cfg),
        shared_arena_(shared_arena),
        shared_base_(reinterpret_cast<uintptr_t>(shared_arena->data())),
        shared_capacity_(shared_arena->size()),
        sanitizer_(sanitizer) {}

  int64_t block_idx() const { return block_idx_; }
  int64_t grid_dim() const { return cfg_.grid_dim; }
  int block_dim() const { return cfg_.block_dim; }

  // Runs fn(tid) for every thread tid in [0, block_dim). One phase; an
  // implicit barrier separates consecutive phases. The execution cursor
  // (current_tid_/phase_) is only maintained in checked mode: the member
  // stores would otherwise sit in every kernel's hottest loop.
  template <typename Fn>
  void ForEachThread(Fn&& fn) {
    if (sanitizer_ == nullptr) {
      for (int tid = 0; tid < cfg_.block_dim; ++tid) fn(tid);
      return;
    }
    ++phase_;
    for (int tid = 0; tid < cfg_.block_dim; ++tid) {
      current_tid_ = tid;
      fn(tid);
    }
    current_tid_ = Sanitizer::kBlockScopeTid;
    ++phase_;
  }

  // Thread-strided loop over [0, count): "if the for-loop has more
  // iterations than threads per thread block, each thread handles multiple
  // iterations" (paper §4). Iteration i is executed by thread i % block_dim.
  template <typename Fn>
  void ForEachThreadStrided(int64_t count, Fn&& fn) {
    if (sanitizer_ == nullptr) {
      for (int64_t i = 0; i < count; ++i) fn(i);
      return;
    }
    ++phase_;
    const int block_dim = cfg_.block_dim;
    int tid = 0;
    for (int64_t i = 0; i < count; ++i) {
      current_tid_ = tid;
      if (++tid == block_dim) tid = 0;
      fn(i);
    }
    current_tid_ = Sanitizer::kBlockScopeTid;
    ++phase_;
  }

  // A __syncthreads() point. Phases are already sequential per block, so
  // execution is unchanged; in checked mode it advances the phase counter,
  // ordering the accesses before it against the ones after it.
  void Sync() { ++phase_; }

  // --- Checked memory accessors ---------------------------------------------
  //
  // The sanitize-off fast paths must stay lean enough to sit in every
  // kernel's hottest loop: a single predictable branch and the raw access.
  // The checked paths are kept out of line (noinline, cold) so their code
  // never bloats the call sites — inlining them costs ~25% wall time on
  // kernel-bound runs.

  // Reads *ptr. On a violation the report is recorded and T{} is returned
  // without touching the memory (it may be gone after FreeAll).
  template <typename T>
  T Load(const T* ptr) {
    if (__builtin_expect(sanitizer_ == nullptr, 1)) return *ptr;
    return LoadChecked(ptr);
  }

  // Writes *ptr = value. On a violation the store is dropped.
  template <typename T>
  void Store(T* ptr, T value) {
    if (__builtin_expect(sanitizer_ == nullptr, 1)) {
      *ptr = value;
      return;
    }
    StoreChecked(ptr, value);
  }

  // Validates a read of `count` consecutive elements and returns `ptr`, so
  // tight inner loops (the distance subroutines) keep their raw pointers
  // while the span is still bounds/liveness/race-checked as one access. On
  // a violation a zeroed stand-in buffer is returned instead.
  template <typename T>
  const T* LoadSpan(const T* ptr, int64_t count) {
    if (__builtin_expect(sanitizer_ == nullptr, 1)) return ptr;
    return LoadSpanChecked(ptr, count);
  }

  // CUDA-style atomics routed through the block context. With sanitize off
  // these forward to simt/atomic.h for global memory; for addresses inside
  // this block's shared arena a plain read-modify-write is used (only one
  // host thread ever executes a block, and shared memory is private to it),
  // which keeps results bit-identical and avoids atomic overhead. With
  // sanitize on, the access is checked and recorded as atomic — atomics
  // never race with each other but do race with non-atomic accesses.
  template <typename T>
  T AtomicAdd(T* ptr, T value) {
    if (__builtin_expect(sanitizer_ == nullptr, 1)) {
      if (InBlockShared(ptr)) {
        const T old = *ptr;
        *ptr = old + value;
        return old;
      }
      return simt::AtomicAdd(ptr, value);
    }
    return AtomicAddChecked(ptr, value);
  }

  template <typename T>
  T AtomicMin(T* ptr, T value) {
    if (__builtin_expect(sanitizer_ == nullptr, 1)) {
      if (InBlockShared(ptr)) {
        const T old = *ptr;
        if (value < old) *ptr = value;
        return old;
      }
      return simt::AtomicMin(ptr, value);
    }
    return AtomicMinChecked(ptr, value);
  }

  template <typename T>
  T AtomicMax(T* ptr, T value) {
    if (__builtin_expect(sanitizer_ == nullptr, 1)) {
      if (InBlockShared(ptr)) {
        const T old = *ptr;
        if (value > old) *ptr = value;
        return old;
      }
      return simt::AtomicMax(ptr, value);
    }
    return AtomicMaxChecked(ptr, value);
  }

  // atomicInc without wrap-around (slot reservation).
  int32_t AtomicInc(int32_t* ptr) { return AtomicAdd(ptr, int32_t{1}); }
  int64_t AtomicInc(int64_t* ptr) { return AtomicAdd(ptr, int64_t{1}); }

  // Allocates `count` zero-initialized elements of block-shared memory.
  // Valid until the block finishes. Mirrors CUDA __shared__ arrays,
  // including the per-block capacity limit (kSharedMemoryBytes, the 48 KiB
  // of a CUDA SM). Exceeding it aborts like an oversized __shared__ array
  // fails to launch — except in checked mode, where the overflow is
  // reported as a finding and the allocation is patched with host memory so
  // the run can finish and surface the diagnostic.
  template <typename T>
  T* Shared(int64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t bytes = static_cast<size_t>(count) * sizeof(T);
    const size_t offset = (shared_used_ + alignof(T) - 1) / alignof(T) *
                          alignof(T);
    if (offset + bytes > shared_arena_->size()) {
      if (sanitizer_ != nullptr) {
        sanitizer_->ReportSharedOverflow(block_idx_, offset + bytes,
                                         shared_arena_->size());
        return reinterpret_cast<T*>(PatchBytes(bytes));
      }
      PROCLUS_CHECK(offset + bytes <= shared_arena_->size());
    }
    shared_used_ = offset + bytes;
    char* ptr = shared_arena_->data() + offset;
    std::memset(ptr, 0, bytes);
    return reinterpret_cast<T*>(ptr);
  }

 private:
  // Cached arena bounds (plain members, not vector internals) so the
  // sanitize-off atomics resolve shared-vs-global with two hoistable
  // compares in kernel inner loops.
  bool InBlockShared(const void* ptr) const {
    const uintptr_t p = reinterpret_cast<uintptr_t>(ptr);
    return p - shared_base_ < shared_capacity_;
  }

  // Out-of-line checked access paths (sanitize on only). Kept noinline and
  // cold so the fast paths above compile to the raw access plus one branch.
  template <typename T>
  __attribute__((noinline, cold)) T LoadChecked(const T* ptr) {
    if (!Check(ptr, sizeof(T), Sanitizer::AccessKind::kLoad)) return T{};
    return *ptr;
  }

  template <typename T>
  __attribute__((noinline, cold)) void StoreChecked(T* ptr, T value) {
    if (!Check(ptr, sizeof(T), Sanitizer::AccessKind::kStore)) return;
    *ptr = value;
  }

  template <typename T>
  __attribute__((noinline, cold)) const T* LoadSpanChecked(const T* ptr,
                                                           int64_t count) {
    const size_t bytes = static_cast<size_t>(count) * sizeof(T);
    if (!Check(ptr, bytes, Sanitizer::AccessKind::kLoad)) {
      return reinterpret_cast<const T*>(PatchBytes(bytes));
    }
    return ptr;
  }

  template <typename T>
  __attribute__((noinline, cold)) T AtomicAddChecked(T* ptr, T value) {
    if (!Check(ptr, sizeof(T), Sanitizer::AccessKind::kAtomic)) return T{};
    const T old = *ptr;  // sanitize mode is single-threaded
    *ptr = old + value;
    return old;
  }

  template <typename T>
  __attribute__((noinline, cold)) T AtomicMinChecked(T* ptr, T value) {
    if (!Check(ptr, sizeof(T), Sanitizer::AccessKind::kAtomic)) return T{};
    const T old = *ptr;
    if (value < old) *ptr = value;
    return old;
  }

  template <typename T>
  __attribute__((noinline, cold)) T AtomicMaxChecked(T* ptr, T value) {
    if (!Check(ptr, sizeof(T), Sanitizer::AccessKind::kAtomic)) return T{};
    const T old = *ptr;
    if (value > old) *ptr = value;
    return old;
  }

  bool Check(const void* ptr, size_t bytes, Sanitizer::AccessKind kind) {
    if (!patch_buffers_.empty() && InPatch(ptr)) return true;
    return sanitizer_->CheckAccess(ptr, bytes, kind, block_idx_, current_tid_,
                                   phase_, shared_arena_->data(),
                                   shared_arena_->size(), shared_used_);
  }

  bool InPatch(const void* ptr) const {
    const uintptr_t p = reinterpret_cast<uintptr_t>(ptr);
    for (const PatchBuffer& buf : patch_buffers_) {
      const uintptr_t base = reinterpret_cast<uintptr_t>(buf.data.get());
      if (p >= base && p < base + buf.bytes) return true;
    }
    return false;
  }

  // Zeroed stand-in memory handed out when an access or Shared<T> request
  // cannot be satisfied in checked mode; accesses to it are quietly allowed
  // so one finding does not cascade.
  char* PatchBytes(size_t bytes) {
    PatchBuffer buf;
    buf.bytes = bytes > 0 ? bytes : 1;
    buf.data = std::make_unique<char[]>(buf.bytes);  // value-initialized
    patch_buffers_.push_back(std::move(buf));
    return patch_buffers_.back().data.get();
  }

  struct PatchBuffer {
    std::unique_ptr<char[]> data;
    size_t bytes = 0;
  };

  int64_t block_idx_;
  LaunchConfig cfg_;
  std::vector<char>* shared_arena_;
  uintptr_t shared_base_;
  size_t shared_capacity_;
  size_t shared_used_ = 0;
  Sanitizer* sanitizer_ = nullptr;
  // Checked-mode execution cursor: which phase the block is in and which
  // simulated thread is running (kBlockScopeTid outside ForEachThread).
  int32_t phase_ = 0;
  int current_tid_ = Sanitizer::kBlockScopeTid;
  std::vector<PatchBuffer> patch_buffers_;
};

// Simulated GPU. Owns
//   * a bump-pointer global-memory arena (the paper allocates all device
//     memory once up-front and reuses it across iterations; FreeAll() plus
//     peak_allocated_bytes() give the space-usage numbers of Fig. 3f),
//   * a host thread pool on which thread blocks execute,
//   * a PerfModel that prices every launch to produce modeled device time,
//   * optionally a Sanitizer (simtcheck) that shadow-tracks every checked
//     access during launches and host copies.
class Device {
 public:
  explicit Device(DeviceProperties props = DeviceProperties::Gtx1660Ti(),
                  DeviceOptions options = DeviceOptions());

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceProperties& properties() const { return props_; }

  // --- Global memory -------------------------------------------------------

  // Allocates `count` elements of device global memory (zero-initialized).
  // Aborts if the simulated device capacity would be exceeded, matching the
  // paper's observation that GPU memory is the limiting factor at 8M points.
  template <typename T>
  T* Alloc(int64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    return reinterpret_cast<T*>(
        AllocBytes(static_cast<size_t>(count) * sizeof(T), alignof(T)));
  }

  void Memset(void* ptr, int value, size_t bytes) {
    if (sanitizer_ != nullptr &&
        !sanitizer_->CheckHostAccess("memset", ptr, bytes, /*write=*/true)) {
      return;
    }
    std::memset(ptr, value, bytes);
  }

  // Host -> device / device -> host copies. Same address space here, but the
  // transfer is priced by the PCIe model so benches can report transfer cost.
  template <typename T>
  void CopyToDevice(T* dst, const T* src, int64_t count) {
    const size_t bytes = static_cast<size_t>(count) * sizeof(T);
    if (sanitizer_ != nullptr &&
        !sanitizer_->CheckHostAccess("copy_to_device", dst, bytes,
                                     /*write=*/true)) {
      return;
    }
    std::memcpy(dst, src, bytes);
    const double seconds =
        perf_model_.RecordTransfer(static_cast<double>(bytes));
    TraceTransfer("copy_to_device", static_cast<double>(bytes), seconds);
  }
  template <typename T>
  void CopyToHost(T* dst, const T* src, int64_t count) {
    const size_t bytes = static_cast<size_t>(count) * sizeof(T);
    if (sanitizer_ != nullptr &&
        !sanitizer_->CheckHostAccess("copy_to_host", src, bytes,
                                     /*write=*/false)) {
      std::memset(dst, 0, bytes);  // the source may be gone; stand in zeros
      return;
    }
    std::memcpy(dst, src, bytes);
    const double seconds =
        perf_model_.RecordTransfer(static_cast<double>(bytes));
    TraceTransfer("copy_to_host", static_cast<double>(bytes), seconds);
  }

  size_t allocated_bytes() const { return allocated_bytes_; }
  size_t peak_allocated_bytes() const { return peak_allocated_bytes_; }

  // Releases every allocation (arena reset). Returns the chunk memory to
  // the host.
  void FreeAll();

  // Resets the arena for a fresh run but RETAINS the chunk capacity, so the
  // next run allocates from already-touched memory without growing the
  // arena ("warm" device reuse across service jobs). allocated_bytes()
  // drops to 0; peak_allocated_bytes() is preserved. Every allocation is
  // zero-initialized at Alloc time, so reuse is bit-deterministic.
  void ResetArena();

  // --- Kernel launch -------------------------------------------------------

  // Launches `body` once per block in `cfg` and blocks until the grid
  // completes (kernel launches in the paper's host code are implicitly
  // ordered; we keep that semantics). Grids of more than a few thousand
  // simulated threads are split into several block ranges per host worker,
  // claimed dynamically so irregular grids balance; smaller ones run on the
  // calling thread. `work` is the launch's total work estimate for the
  // performance model.
  void Launch(const char* name, LaunchConfig cfg, const WorkEstimate& work,
              const std::function<void(BlockContext&)>& body);

  // --- Concurrent-kernel regions (CUDA streams) ------------------------------

  // The paper (§5.4) notes that independent small kernels could run in
  // concurrent streams to engage more cores. Launches issued between
  // BeginConcurrentRegion and EndConcurrentRegion are attributed to the
  // stream selected with SetStream; the region contributes
  // max over streams (sum of that stream's kernel times) to the modeled
  // device time instead of the plain sum. Functional execution is
  // unchanged (kernels in a region must be independent, as on real
  // hardware). Regions must not nest.
  void BeginConcurrentRegion(int num_streams);
  void SetStream(int stream);
  void EndConcurrentRegion();

  // --- Statistics -----------------------------------------------------------

  const PerfModel& perf_model() const { return perf_model_; }
  double modeled_seconds() const { return perf_model_.modeled_seconds(); }
  void ResetStats() {
    perf_model_.Reset();
    if (sanitizer_ != nullptr) sanitizer_->ResetRunState();
  }

  // --- Checked execution (simtcheck) ----------------------------------------

  bool sanitize_enabled() const { return sanitizer_ != nullptr; }
  // The checker, or nullptr when sanitize is off.
  Sanitizer* sanitizer() { return sanitizer_.get(); }
  const Sanitizer* sanitizer() const { return sanitizer_.get(); }

  // --- Tracing --------------------------------------------------------------

  // Attaches a trace recorder. Every Launch then emits one complete event on
  // a synthetic "device:<name>" track, carrying the modeled seconds,
  // occupancy and byte/flop figures as args; host<->device copies emit
  // transfer events on the same track. The recorder must outlive the device
  // or be detached with set_trace(nullptr). The harness (Cluster, the
  // service) manages this pointer around runs — it is cleared when a traced
  // run finishes.
  void set_trace(obs::TraceRecorder* trace);
  obs::TraceRecorder* trace() const { return trace_; }

 private:
  char* AllocBytes(size_t bytes, size_t alignment);

  // Emits a trace event on the device track spanning `seconds` of modeled
  // time starting at the device's modeled-time cursor, so back-to-back
  // kernels render without overlap. No-op when tracing is off.
  void TraceDeviceEvent(const char* name, const char* category, double seconds,
                        std::vector<obs::TraceArg> args);
  void TraceTransfer(const char* name, double bytes, double seconds);

  DeviceProperties props_;
  parallel::ThreadPool pool_;
  PerfModel perf_model_;
  std::unique_ptr<Sanitizer> sanitizer_;
  // Block-shared memory, one kSharedMemoryBytes arena per host thread that
  // runs blocks (the first for the calling thread), reused across launches.
  // The first is allocated with the device, so its addresses can never be
  // those of an arena chunk released by FreeAll(). Capacity is reserved for
  // every worker up front, so growing it never moves an arena.
  std::vector<std::vector<char>> shared_arenas_;

  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };
  std::vector<Chunk> chunks_;
  size_t allocated_bytes_ = 0;
  size_t peak_allocated_bytes_ = 0;

  // Stream-region state.
  bool in_region_ = false;
  int current_stream_ = 0;
  std::vector<double> stream_seconds_;

  // Tracing state. The cursor is the wall-clock microsecond at which the
  // next device event may start; it only moves forward.
  obs::TraceRecorder* trace_ = nullptr;
  int trace_track_ = -1;
  double trace_cursor_us_ = 0.0;
};

}  // namespace proclus::simt

#endif  // PROCLUS_SIMT_DEVICE_H_
