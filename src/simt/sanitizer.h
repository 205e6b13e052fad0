#ifndef PROCLUS_SIMT_SANITIZER_H_
#define PROCLUS_SIMT_SANITIZER_H_

// simtcheck: a compute-sanitizer-style checker for the SIMT simulator.
//
// The simulator runs each block's threads sequentially, so a kernel with a
// missing atomic or a missing __syncthreads() phase split still produces
// correct results here while being racy on a real GPU. In checked mode
// (DeviceOptions::sanitize / PROCLUS_SIMTCHECK=1) every memory access made
// through the BlockContext accessors is shadow-tracked and GPU-semantics
// violations are reported with kernel name, block/thread ids, phase index
// and arena offset — the moral equivalent of `compute-sanitizer
// racecheck/memcheck` for the simulated device.
//
// Detected violation classes:
//   * intra-block race  — two different tids touch the same bytes within one
//     phase (no barrier between them) with at least one non-atomic write.
//   * cross-block race  — conflicting non-atomic accesses to global memory
//     by different blocks within one launch.
//   * global/shared out-of-bounds — access outside any live allocation, or
//     past the block's Shared<T> high-water mark.
//   * shared-arena overflow — Shared<T> request past the 48 KiB capacity
//     (diagnosed and patched instead of aborting).
//   * use-after-reset   — access to arena memory released by ResetArena() or
//     FreeAll().
//
// Shadow layout: all global memory comes from the device's bump arena, so
// shadow state is flat and keyed by arena offset — one byte of liveness
// state per arena byte, plus one read record and one write record per
// 8-byte granule with per-byte access masks. Records self-identify by
// (launch, block, tid, phase), so stale entries are simply ignored rather
// than cleared between launches. Keeping a single record per granule makes
// the checker precise but incomplete: a reported race is always a real
// ordering violation under the rules above (no false positives), but some
// overlapping access patterns can evict the record that would have exposed
// a race — same best-effort contract as racecheck.
//
// The checker is not thread safe; the device runs a sanitized launch on a
// single host thread, in a block order seeded from the launch sequence
// number, which also makes reports reproducible.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace proclus::simt {

enum class ViolationKind {
  kIntraBlockRace,
  kCrossBlockRace,
  kGlobalOutOfBounds,
  kSharedOutOfBounds,
  kSharedOverflow,
  kUseAfterReset,
};

// Stable lower_snake name ("intra_block_race", ...) for reports/metrics.
const char* ViolationKindName(ViolationKind kind);

// One recorded finding. `tid == kBlockScopeTid` means the access happened at
// block scope (outside ForEachThread), `block < 0` means a host-side access
// (CopyToDevice/CopyToHost/Memset).
struct Violation {
  ViolationKind kind = ViolationKind::kGlobalOutOfBounds;
  std::string kernel;   // launch name, or "<host:...>" for host accesses
  int64_t block = -1;
  int tid = -2;
  int32_t phase = -1;
  // The earlier conflicting access, for race kinds.
  int64_t other_block = -1;
  int other_tid = -2;
  int32_t other_phase = -1;
  bool shared = false;   // shared-arena (true) vs global-arena (false) memory
  uint64_t offset = 0;   // byte offset within the owning arena
  size_t bytes = 0;      // access width
  std::string message;   // fully formatted, human-readable report line
};

class Sanitizer {
 public:
  // tid value used for block-scope execution (outside ForEachThread).
  static constexpr int kBlockScopeTid = -1;
  // At most this many violations keep their full Violation record/message;
  // further ones are only counted (findings() keeps the true total).
  static constexpr int kMaxDetailedViolations = 64;

  enum class AccessKind {
    kLoad,
    kStore,
    kAtomic,  // atomic read-modify-write
  };

  Sanitizer() = default;
  Sanitizer(const Sanitizer&) = delete;
  Sanitizer& operator=(const Sanitizer&) = delete;

  // --- Arena lifecycle (called by Device) -----------------------------------

  // A fresh chunk of backing memory entered the arena. Any retired shadow
  // overlapping [base, base+capacity) is dropped (the allocator reused the
  // address range).
  void OnChunkCreated(const void* base, size_t capacity);
  // `bytes` at `ptr` were handed out by AllocBytes (zero-initialized).
  void OnAlloc(const void* ptr, size_t bytes);
  // ResetArena(): every live allocation becomes stale but the chunk memory
  // stays valid to the host.
  void OnArenaReset();
  // FreeAll(): allocations become stale AND the chunk memory is returned to
  // the host, so even reads must be suppressed, not just reported.
  void OnFreeAll();

  // --- Launch lifecycle -----------------------------------------------------

  void BeginLaunch(const char* name, int64_t grid_dim, int block_dim);
  void EndLaunch();
  // Sequence number of the current (or last) launch; starts at 1 and is
  // never reset, so it also seeds the checked-mode block order.
  uint32_t launch_id() const { return launch_id_; }

  // --- Checks ---------------------------------------------------------------

  // Validates one device-side access. `shared_base/shared_capacity` describe
  // the executing block's shared arena and `shared_used` its current
  // Shared<T> high-water mark. Returns true when the caller may perform the
  // access; false means a violation was recorded and the dereference must be
  // skipped (the memory may not be safe to touch).
  bool CheckAccess(const void* ptr, size_t bytes, AccessKind kind,
                   int64_t block, int tid, int32_t phase,
                   const char* shared_base, size_t shared_capacity,
                   size_t shared_used);

  // Validates a host-side access (`what` = "copy_to_device", ...). Same
  // return contract as CheckAccess.
  bool CheckHostAccess(const char* what, const void* ptr, size_t bytes,
                       bool write);

  // Shared<T> asked for more than the arena holds. Records a
  // kSharedOverflow finding; the BlockContext patches the allocation with
  // host memory so the run can continue.
  void ReportSharedOverflow(int64_t block, size_t requested_bytes,
                            size_t capacity);

  // --- Results --------------------------------------------------------------

  // Total violations observed (including ones past the detail cap).
  int64_t findings() const { return findings_; }
  // Total accesses validated (device- and host-side).
  int64_t checked_accesses() const { return checked_accesses_; }
  const std::vector<Violation>& violations() const { return violations_; }
  // The formatted report lines of the recorded violations, at most `max`.
  std::vector<std::string> Reports(size_t max) const;
  // One-line summary: "simtcheck: N violation(s); first: ...".
  std::string Summary() const;

  // Clears findings/violations/counters for a fresh run (Device::ResetStats).
  // Shadow race records self-invalidate by launch id and are kept.
  void ResetRunState();

 private:
  // Identity and byte-mask of the most recent read/write that touched one
  // 8-byte granule. `launch == 0` means empty; a record whose launch (or,
  // for shared memory, block) does not match the current access is stale
  // and treated as empty.
  struct AccessRecord {
    uint32_t launch = 0;
    int32_t block = -1;
    int32_t phase = -1;
    int16_t tid = -2;
    uint8_t mask = 0;     // which of the granule's 8 bytes were touched
    bool atomic = false;
  };
  struct GranuleShadow {
    AccessRecord write;
    AccessRecord read;
  };

  // Byte liveness inside a chunk.
  enum ByteState : uint8_t {
    kNeverAllocated = 0,
    kLive = 1,
    kStale = 2,  // released by ResetArena/FreeAll
  };

  struct ChunkShadow {
    uintptr_t base = 0;
    size_t capacity = 0;
    // Arena-global offset of this chunk's first byte (for reporting).
    uint64_t base_offset = 0;
    // True once FreeAll returned the memory to the host; the address range
    // is kept so late accesses still attribute as use-after-reset.
    bool dead = false;
    std::vector<uint8_t> byte_state;     // empty when dead
    std::vector<GranuleShadow> granules;  // empty when dead
  };

  ChunkShadow* FindChunk(uintptr_t addr);

  // Race bookkeeping for one access on a run of granules.
  void TrackRace(std::vector<GranuleShadow>& granules, size_t first_granule,
                 uintptr_t addr, size_t bytes, AccessKind kind, int64_t block,
                 int tid, int32_t phase, bool is_shared, uint64_t arena_offset);

  void Report(Violation v);
  std::string FormatViolation(const Violation& v) const;

  std::vector<ChunkShadow> chunks_;
  uint64_t next_base_offset_ = 0;

  // Shared-memory shadow. The per-block arena is a single fixed-size buffer
  // reused across blocks; records carry (launch, block) identity, so no
  // clearing between blocks is needed.
  std::vector<GranuleShadow> shared_granules_;

  std::string kernel_ = "<none>";
  uint32_t launch_id_ = 0;
  bool in_launch_ = false;

  int64_t findings_ = 0;
  int64_t checked_accesses_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace proclus::simt

#endif  // PROCLUS_SIMT_SANITIZER_H_
