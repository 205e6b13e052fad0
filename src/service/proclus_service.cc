#include "service/proclus_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"
#include "core/multi_param.h"
#include "parallel/cancellation.h"
#include "service/result_cache.h"
#include "service/sweep_scheduler.h"

namespace proclus::service {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool IsTerminal(JobPhase phase) {
  return phase != JobPhase::kQueued && phase != JobPhase::kRunning;
}

JobPhase PhaseForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return JobPhase::kDone;
    case StatusCode::kCancelled:
      return JobPhase::kCancelled;
    case StatusCode::kDeadlineExceeded:
      return JobPhase::kTimedOut;
    default:
      return JobPhase::kFailed;
  }
}

}  // namespace

const char* JobPhaseName(JobPhase phase) {
  switch (phase) {
    case JobPhase::kQueued:
      return "queued";
    case JobPhase::kRunning:
      return "running";
    case JobPhase::kDone:
      return "done";
    case JobPhase::kCancelled:
      return "cancelled";
    case JobPhase::kTimedOut:
      return "timed-out";
    case JobPhase::kFailed:
      return "failed";
  }
  return "?";
}

JobSpec JobSpec::Single(const data::Matrix& data,
                        const core::ProclusParams& params,
                        const core::ClusterOptions& options) {
  JobSpec spec;
  spec.kind = JobKind::kSingle;
  spec.data = &data;
  spec.params = params;
  spec.options = options;
  return spec;
}

JobSpec JobSpec::Sweep(const data::Matrix& data,
                       const core::ProclusParams& base, core::SweepSpec sweep,
                       const core::ClusterOptions& options) {
  JobSpec spec;
  spec.kind = JobKind::kSweep;
  spec.data = &data;
  spec.params = base;
  spec.sweep = std::move(sweep);
  spec.options = options;
  return spec;
}

namespace internal {

// Counters shared by the service and every job it created, so a JobHandle
// outliving the service (or cancelling concurrently with shutdown) can
// still record its terminal transition safely.
//
// Lock nesting: the stats mutex is a leaf — it is taken while holding a
// job's mutex (terminal transitions) and while holding queue_mutex_
// (Submit's accounting), and never takes another lock itself
// (docs/concurrency.md).
struct SharedStats {
  Mutex mutex;
  int64_t submitted GUARDED_BY(mutex) = 0;
  int64_t rejected GUARDED_BY(mutex) = 0;
  int64_t completed GUARDED_BY(mutex) = 0;
  int64_t failed GUARDED_BY(mutex) = 0;
  int64_t cancelled GUARDED_BY(mutex) = 0;
  int64_t timed_out GUARDED_BY(mutex) = 0;
  int64_t queue_depth_high_water GUARDED_BY(mutex) = 0;
  double exec_seconds_total GUARDED_BY(mutex) = 0.0;
  double modeled_gpu_seconds_total GUARDED_BY(mutex) = 0.0;
  int64_t sanitizer_findings_total GUARDED_BY(mutex) = 0;
  int64_t sweep_shards_total GUARDED_BY(mutex) = 0;
  std::atomic<int64_t> next_start_sequence{0};

  void CountTerminal(const Status& status) EXCLUDES(mutex) {
    MutexLock lock(&mutex);
    switch (status.code()) {
      case StatusCode::kOk:
        ++completed;
        break;
      case StatusCode::kCancelled:
        ++cancelled;
        break;
      case StatusCode::kDeadlineExceeded:
        ++timed_out;
        break;
      default:
        ++failed;
        break;
    }
  }
};

struct Job {
  uint64_t id = 0;
  JobSpec spec;
  // Resolved dataset. When the spec referenced a dataset_id, `pin` holds a
  // store pin for the job's lifetime — the payload stays resident and the
  // entry cannot be evicted (or its memory reclaimed) until the job is
  // done, even if the id is re-registered or the store is under budget
  // pressure meanwhile.
  const data::Matrix* data = nullptr;
  store::PinnedDataset pin;
  parallel::CancellationToken token;
  std::chrono::steady_clock::time_point submit_time;
  std::shared_ptr<SharedStats> stats;
  // Service recorder when tracing is on for this job; null otherwise. The
  // submit timestamp (recorder micros) anchors the queue-wait span.
  obs::TraceRecorder* trace = nullptr;
  double submit_ts_us = 0.0;

  // Emits the span covering time spent waiting in the queue, ending now.
  // `outcome` is "run" when a worker picked the job up, else the reason it
  // never ran. Takes the TraceRecorder's lock internally, so it must never
  // run under `mutex` — obs locks are leaves below every service lock
  // (docs/concurrency.md); EXCLUDES makes the analysis reject a regression.
  void TraceQueueWait(const char* outcome) EXCLUDES(mutex) {
    if (trace == nullptr || !trace->enabled()) return;
    trace->AddComplete("job.queue_wait", "service", submit_ts_us,
                       trace->NowMicros() - submit_ts_us,
                       {obs::TraceArg::Int("job", static_cast<int64_t>(id)),
                        obs::TraceArg::Str("outcome", outcome)});
  }

  // Single-flight leadership (service/result_cache.h): set at Submit —
  // before the job is shared with any other thread — when this job leads
  // the result-cache flight for its key; immutable afterwards. The one
  // thread that performs the terminal transition settles the flight: the
  // failure paths call SettleFlightFailed after their FinishLocked, while
  // RunJob's normal path calls FinishFlight itself, before publishing, so
  // an identical resubmit after Wait() is guaranteed to hit the cache.
  ResultCache* flight_cache = nullptr;
  ResultCacheKey flight_key;

  // Settles a led flight with the published (terminal, hence immutable)
  // status — nothing is cached, parked joiners inherit the status. Must be
  // called without `mutex` held: joiner callbacks take their own jobs'
  // mutexes, and the cache lock never nests under a job lock
  // (docs/concurrency.md). No-op for non-leaders.
  void SettleFlightFailed() EXCLUDES(mutex) {
    if (flight_cache == nullptr) return;
    flight_cache->FinishFlight(flight_key, result.status, nullptr);
  }

  Mutex mutex;
  std::condition_variable cv;
  JobPhase phase GUARDED_BY(mutex) = JobPhase::kQueued;
  // Written under `mutex`; the terminal transition (FinishLocked) publishes
  // it through `phase` + `cv`, after which it is immutable and readers
  // (Wait's return, FlushCallbacks, the synchronous OnComplete path) may
  // touch it without the lock. The capability analysis cannot express
  // publish-once, so `result` is deliberately not GUARDED_BY.
  JobResult result;
  // Completion callbacks registered via JobHandle::OnComplete that have not
  // fired yet; invoked (outside the lock) by FlushCallbacks exactly once
  // after the terminal transition.
  std::vector<std::function<void(const JobResult&)>> completion_callbacks
      GUARDED_BY(mutex);

  void FinishLocked(Status status) REQUIRES(mutex) {
    // Drop the store pin before the terminal transition publishes: once
    // Wait() returns, the dataset must already be evictable again. (This
    // nests the store's lock under the job's — the sanctioned direction,
    // see docs/concurrency.md.)
    data = nullptr;
    pin.Release();
    result.status = std::move(status);
    phase = PhaseForStatus(result.status);
    cv.notify_all();
  }

  // Invokes and clears the pending completion callbacks. Must be called
  // WITHOUT `mutex` held, after the transition to a terminal phase; every
  // FinishLocked call site pairs with one FlushCallbacks once its lock is
  // released. Safe to call more than once (later calls see no callbacks).
  void FlushCallbacks() EXCLUDES(mutex) {
    std::vector<std::function<void(const JobResult&)>> callbacks;
    {
      MutexLock lock(&mutex);
      callbacks.swap(completion_callbacks);
    }
    for (auto& callback : callbacks) callback(result);
  }
};

}  // namespace internal

// --- JobHandle ---------------------------------------------------------------

uint64_t JobHandle::id() const { return job_ != nullptr ? job_->id : 0; }

JobPhase JobHandle::phase() const {
  PROCLUS_CHECK(job_ != nullptr);
  MutexLock lock(&job_->mutex);
  return job_->phase;
}

const JobResult& JobHandle::Wait() const {
  PROCLUS_CHECK(job_ != nullptr);
  MutexLock lock(&job_->mutex);
  while (!IsTerminal(job_->phase)) job_->cv.wait(lock.native());
  return job_->result;
}

const JobResult* JobHandle::TryGet() const {
  if (job_ == nullptr) return nullptr;
  MutexLock lock(&job_->mutex);
  return IsTerminal(job_->phase) ? &job_->result : nullptr;
}

void JobHandle::OnComplete(
    std::function<void(const JobResult&)> callback) const {
  PROCLUS_CHECK(job_ != nullptr && callback != nullptr);
  {
    MutexLock lock(&job_->mutex);
    if (!IsTerminal(job_->phase)) {
      job_->completion_callbacks.push_back(std::move(callback));
      return;
    }
  }
  // Already terminal: the result is immutable now, invoke synchronously
  // (outside the lock — user callbacks never run under a service lock).
  callback(job_->result);
}

void JobHandle::Cancel() {
  if (job_ == nullptr) return;
  job_->token.Cancel();
  bool finished_here = false;
  {
    MutexLock lock(&job_->mutex);
    if (job_->phase == JobPhase::kQueued) {
      // Still waiting for a worker: finish right here; the worker skips
      // the job when it eventually pops it. Count before FinishLocked so
      // stats() is consistent once Wait() returns.
      job_->result.queue_seconds = SecondsSince(job_->submit_time);
      job_->stats->CountTerminal(Status::Cancelled("cancelled while queued"));
      job_->FinishLocked(Status::Cancelled("cancelled while queued"));
      finished_here = true;
    }
    // Running jobs stop cooperatively via the token; the worker finishes
    // them with the Cancelled status the driver returns.
  }
  if (finished_here) {
    // Tracing and callbacks run outside the job lock: TraceQueueWait takes
    // the TraceRecorder's lock, and obs locks must never nest under a
    // service lock (docs/concurrency.md).
    job_->TraceQueueWait("cancelled");
    job_->FlushCallbacks();
    // A cancelled leader takes its joiners with it (shared fate): they are
    // notified once, with the Cancelled status.
    job_->SettleFlightFailed();
  }
}

// --- ProclusService ----------------------------------------------------------

ProclusService::ProclusService(ServiceOptions options)
    : options_(std::move(options)),
      stats_(std::make_shared<internal::SharedStats>()),
      compute_pool_(
          std::make_unique<parallel::ThreadPool>(options_.compute_threads)),
      device_pool_(std::make_unique<DevicePool>(
          std::max(1, options_.gpu_devices), options_.device_properties,
          options_.prewarm_devices,
          simt::DeviceOptions{0, options_.sanitize_devices})),
      store_(std::make_unique<store::DatasetStore>(store::StoreOptions{
          options_.store_dir, options_.store_budget_bytes, options_.trace})),
      cache_(options_.result_cache_bytes > 0
                 ? std::make_unique<ResultCache>(ResultCacheOptions{
                       options_.result_cache_bytes,
                       options_.result_cache_dir, options_.trace})
                 : nullptr) {
  if (options_.device_fault_hook) {
    device_pool_->SetFaultHook(options_.device_fault_hook);
  }
  const int workers = std::max(1, options_.num_workers);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ProclusService::~ProclusService() { Shutdown(); }

Status ProclusService::RegisterDataset(const std::string& id,
                                       data::Matrix points) {
  if (points.empty()) {
    return Status::InvalidArgument("dataset must not be empty");
  }
  return store_->Put(id, std::move(points));
}

bool ProclusService::HasDataset(const std::string& id) const {
  return store_->Contains(id);
}

Status ProclusService::Submit(JobSpec spec, JobHandle* handle) {
  if (handle == nullptr) {
    return Status::InvalidArgument("handle must not be null");
  }
  *handle = JobHandle();
  if (spec.options.device != nullptr || spec.options.pool != nullptr ||
      spec.options.cancel != nullptr || spec.options.trace != nullptr) {
    return Status::InvalidArgument(
        "options.device/pool/cancel/trace are owned by the service; leave "
        "them null");
  }
  PROCLUS_RETURN_NOT_OK(spec.options.Validate());
  if (spec.options.gpu_sanitize && !options_.sanitize_devices) {
    // Fail here instead of when the pooled (unsanitized) device is attached.
    return Status::InvalidArgument(
        "options.gpu_sanitize requires a sanitizing service "
        "(ServiceOptions::sanitize_devices or PROCLUS_SIMTCHECK=1)");
  }
  if (spec.timeout_seconds < 0.0) {
    return Status::InvalidArgument("timeout_seconds must be >= 0");
  }

  // Resolve the dataset now so bad references fail synchronously. The pin
  // taken here rides in the Job and is released when the job object dies,
  // so the store cannot evict the payload while the job is queued/running.
  const data::Matrix* data = spec.data;
  store::PinnedDataset pin;
  uint64_t dataset_hash = 0;
  if (!spec.dataset_id.empty()) {
    if (data != nullptr) {
      return Status::InvalidArgument("data and dataset_id are exclusive");
    }
    PROCLUS_RETURN_NOT_OK(store_->Acquire(spec.dataset_id, &pin,
                                          &dataset_hash));
    data = pin.get();
  }
  if (data == nullptr) {
    return Status::InvalidArgument("either data or dataset_id is required");
  }

  if (spec.kind == JobKind::kSingle) {
    PROCLUS_RETURN_NOT_OK(spec.params.Validate(data->rows(), data->cols()));
  } else {
    PROCLUS_RETURN_NOT_OK(
        spec.sweep.Validate(spec.params, data->rows(), data->cols()));
  }

  auto job = std::make_shared<internal::Job>();
  job->spec = std::move(spec);
  job->data = data;
  job->pin = std::move(pin);
  job->stats = stats_;
  job->submit_time = std::chrono::steady_clock::now();
  if (options_.trace != nullptr && job->spec.trace) {
    job->trace = options_.trace;
    job->submit_ts_us = options_.trace->NowMicros();
  }
  const double timeout = job->spec.timeout_seconds > 0.0
                             ? job->spec.timeout_seconds
                             : options_.default_timeout_seconds;
  if (timeout > 0.0) job->token.SetTimeout(timeout);

  // Result-cache admission, before any queue interaction. Checked runs
  // never consult the cache: their purpose is executing under the
  // sanitizer, and a served result would skip the check.
  const bool cacheable =
      cache_ != nullptr && !job->spec.options.gpu_sanitize &&
      !(options_.sanitize_devices &&
        job->spec.options.backend == core::ComputeBackend::kGpu);
  bool enqueue = true;
  std::shared_ptr<const CachedResult> cached;
  if (cacheable) {
    if (job->spec.dataset_id.empty()) {
      // Inline-payload job: hash the caller's matrix the same way the
      // store would address it.
      dataset_hash = store::DatasetStore::ContentHash(*data);
    }
    ResultCacheKey cache_key = ResultCache::MakeKey(
        dataset_hash, job->spec.kind, job->spec.params, job->spec.options,
        job->spec.sweep);
    job->result.cache_key = cache_key.Hex();
    const ResultCache::Admission admission = cache_->AdmitOrJoin(
        cache_key, &cached,
        [job](const Status& status,
              std::shared_ptr<const CachedResult> payload) {
          // Fan-in from the leader's flight settlement. The follower may
          // have been cancelled (or timed out) meanwhile — then it is
          // already terminal and must not be notified twice.
          bool finished_here = false;
          {
            MutexLock lock(&job->mutex);
            if (job->phase == JobPhase::kQueued) {
              job->result.queue_seconds = SecondsSince(job->submit_time);
              if (status.ok()) {
                job->result.results = payload->results;
                job->result.setting_seconds = payload->setting_seconds;
                job->result.cache_hit = true;
              }
              job->stats->CountTerminal(status);
              job->FinishLocked(status);
              finished_here = true;
            }
          }
          if (finished_here) {
            // Outside the job lock (docs/concurrency.md).
            job->TraceQueueWait("dedup");
            job->FlushCallbacks();
          }
        });
    if (admission == ResultCache::Admission::kLead) {
      job->flight_cache = cache_.get();
      job->flight_key = std::move(cache_key);
    } else {
      // Hit or joined: the job never enters the queue — a joiner consumes
      // no queue slot, so dedup keeps working under queue-full
      // backpressure — but it still gets an id and counts as submitted.
      enqueue = false;
      {
        MutexLock lock(&queue_mutex_);
        if (stopping_ && admission == ResultCache::Admission::kHit) {
          // A joiner is still serviceable while stopping (the shutdown
          // drain settles its leader's flight); a plain hit honors the
          // post-Shutdown contract instead.
          return Status::FailedPrecondition("service is shut down");
        }
        job->id = next_job_id_++;
        MutexLock stats_lock(&stats_->mutex);
        ++stats_->submitted;
      }
      if (admission == ResultCache::Admission::kHit) {
        {
          MutexLock lock(&job->mutex);
          job->result.queue_seconds = SecondsSince(job->submit_time);
          job->result.results = cached->results;
          job->result.setting_seconds = cached->setting_seconds;
          job->result.cache_hit = true;
          stats_->CountTerminal(Status::OK());
          job->FinishLocked(Status::OK());
        }
        job->TraceQueueWait("cache_hit");
        job->FlushCallbacks();
      }
    }
  }

  if (enqueue) {
    Status enqueue_status;
    {
      MutexLock lock(&queue_mutex_);
      if (stopping_) {
        enqueue_status = Status::FailedPrecondition("service is shut down");
      } else {
        const int64_t depth = static_cast<int64_t>(
            interactive_queue_.size() + bulk_queue_.size());
        if (depth >= options_.queue_capacity) {
          MutexLock stats_lock(&stats_->mutex);
          ++stats_->rejected;
          enqueue_status = Status::ResourceExhausted("job queue is full");
        } else {
          job->id = next_job_id_++;
          (job->spec.priority == JobPriority::kInteractive
               ? interactive_queue_
               : bulk_queue_)
              .push_back(job);
          MutexLock stats_lock(&stats_->mutex);
          ++stats_->submitted;
          stats_->queue_depth_high_water =
              std::max(stats_->queue_depth_high_water, depth + 1);
        }
      }
    }
    if (!enqueue_status.ok()) {
      // A led flight must not leak: joiners that slipped in between the
      // admission and this rejection inherit the rejection (for a full
      // queue that is RESOURCE_EXHAUSTED — the one retryable code, so
      // clients back off and resubmit).
      if (job->flight_cache != nullptr) {
        job->flight_cache->FinishFlight(job->flight_key, enqueue_status,
                                        nullptr);
      }
      return enqueue_status;
    }
    work_available_.notify_one();
  }
  if (job->trace != nullptr && job->trace->enabled()) {
    job->trace->AddInstant(
        "job.submitted", "service",
        {obs::TraceArg::Int("job", static_cast<int64_t>(job->id)),
         obs::TraceArg::Str("kind", job->spec.kind == JobKind::kSingle
                                        ? "single"
                                        : "sweep"),
         obs::TraceArg::Str("priority",
                            job->spec.priority == JobPriority::kInteractive
                                ? "interactive"
                                : "bulk")});
  }
  *handle = JobHandle(std::move(job));
  return Status::OK();
}

std::shared_ptr<internal::Job> ProclusService::PopJobLocked() {
  // Interactive jobs overtake every queued bulk job; FIFO within a class.
  auto& queue =
      !interactive_queue_.empty() ? interactive_queue_ : bulk_queue_;
  std::shared_ptr<internal::Job> job = std::move(queue.front());
  queue.pop_front();
  return job;
}

void ProclusService::WorkerLoop() {
  for (;;) {
    std::shared_ptr<internal::Job> job;
    {
      MutexLock lock(&queue_mutex_);
      while (!stopping_ && interactive_queue_.empty() &&
             bulk_queue_.empty()) {
        work_available_.wait(lock.native());
      }
      if (interactive_queue_.empty() && bulk_queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      job = PopJobLocked();
    }
    RunJob(job);
  }
}

void ProclusService::RunJob(const std::shared_ptr<internal::Job>& job) {
  const JobSpec& spec = job->spec;
  {
    Status queued_status;
    {
      MutexLock lock(&job->mutex);
      if (job->phase != JobPhase::kQueued) return;  // cancelled while queued
      job->result.queue_seconds = SecondsSince(job->submit_time);
      queued_status = job->token.Check();
      if (!queued_status.ok()) {
        // Cancelled or deadline elapsed before a worker got to it. Count
        // before FinishLocked so stats() is consistent once Wait() returns.
        stats_->CountTerminal(queued_status);
        job->FinishLocked(queued_status);
      } else {
        job->phase = JobPhase::kRunning;
        job->result.start_sequence = stats_->next_start_sequence++;
      }
    }
    if (!queued_status.ok()) {
      // Tracing and callbacks outside the job lock (docs/concurrency.md).
      job->TraceQueueWait(queued_status.code() == StatusCode::kCancelled
                              ? "cancelled"
                              : "timed_out");
      job->FlushCallbacks();
      job->SettleFlightFailed();
      return;
    }
  }
  job->TraceQueueWait("run");
  obs::TraceSpan run_span(job->trace, "job.run", "service");
  run_span.AddArg(obs::TraceArg::Int("job", static_cast<int64_t>(job->id)));
  run_span.AddArg(obs::TraceArg::Str(
      "kind", spec.kind == JobKind::kSingle ? "single" : "sweep"));

  core::ClusterOptions merged = spec.options;
  merged.cancel = &job->token;
  merged.trace = job->trace;
  DevicePool::Lease lease;
  // GPU sweeps go through the sweep scheduler, which leases its own set of
  // devices (possibly several) instead of the single-job lease below.
  const bool sharded_sweep = spec.kind == JobKind::kSweep &&
                             merged.backend == core::ComputeBackend::kGpu;
  if (merged.backend == core::ComputeBackend::kGpu && !sharded_sweep) {
    // Interruptible wait: a cancel or deadline that fires while every
    // pooled device is leased must not wedge this worker (satellite of the
    // serving layer — disconnecting clients cancel jobs at any phase).
    const Status acquire_status =
        device_pool_->AcquireFor(&job->token, &lease);
    if (!acquire_status.ok()) {
      run_span.AddArg(obs::TraceArg::Str(
          "outcome", JobPhaseName(PhaseForStatus(acquire_status))));
      run_span.End();
      stats_->CountTerminal(acquire_status);
      {
        MutexLock lock(&job->mutex);
        job->FinishLocked(acquire_status);
      }
      job->FlushCallbacks();
      job->SettleFlightFailed();
      return;
    }
    lease.device->ResetArena();
    lease.device->ResetStats();
    merged.device = lease.device;
  } else if (merged.backend == core::ComputeBackend::kMultiCore &&
             merged.num_threads == 0) {
    // Jobs without an explicit thread count share the service pool; the
    // per-call TaskGroup keeps concurrent jobs independent.
    merged.pool = compute_pool_.get();
  }

  StopWatch watch;
  Status status;
  std::vector<core::ProclusResult> results;
  std::vector<double> setting_seconds;
  int sweep_shards = 0;
  double modeled_gpu_seconds = 0.0;
  bool warm_device = false;
  int64_t sanitizer_findings = 0;
  int64_t sanitizer_checked_accesses = 0;
  std::vector<std::string> sanitizer_reports;
  if (spec.kind == JobKind::kSingle) {
    core::ProclusResult result;
    status = core::Cluster(*job->data, spec.params, merged, &result);
    if (status.ok()) results.push_back(std::move(result));
  } else if (sharded_sweep) {
    SweepScheduler scheduler(device_pool_.get());
    SweepScheduler::Outcome outcome;
    status =
        scheduler.Run(*job->data, spec.params, spec.sweep, merged, &outcome);
    if (status.ok()) {
      results = std::move(outcome.result.results);
      setting_seconds = std::move(outcome.result.setting_seconds);
    }
    sweep_shards = outcome.shards_used;
    modeled_gpu_seconds = outcome.modeled_gpu_seconds;
    warm_device = outcome.warm_device;
    sanitizer_findings = outcome.sanitizer_findings;
    sanitizer_checked_accesses = outcome.sanitizer_checked_accesses;
    sanitizer_reports = std::move(outcome.sanitizer_reports);
  } else {
    // CPU / multi-core sweeps have no pooled engine to shard over; they
    // run serially through the core runner and count as one shard.
    core::MultiParamOptions mp;
    mp.cluster = merged;
    core::MultiParamResult sweep;
    status =
        core::RunMultiParam(*job->data, spec.params, spec.sweep, mp, &sweep);
    if (status.ok()) {
      results = std::move(sweep.results);
      setting_seconds = std::move(sweep.setting_seconds);
    }
    sweep_shards = 1;
  }
  const double exec_seconds = watch.ElapsedSeconds();

  if (lease.device != nullptr) {
    modeled_gpu_seconds = lease.device->modeled_seconds();
    warm_device = lease.warm;
    if (const simt::Sanitizer* sanitizer = lease.device->sanitizer()) {
      // ResetStats above cleared the run state, so these figures belong to
      // this job alone.
      sanitizer_findings = sanitizer->findings();
      sanitizer_checked_accesses = sanitizer->checked_accesses();
      sanitizer_reports =
          sanitizer->Reports(simt::Sanitizer::kMaxDetailedViolations);
    }
    // Cluster/RunMultiParam already detached the recorder from the device;
    // make sure of it before the device returns to the pool.
    lease.device->set_trace(nullptr);
    device_pool_->Release(lease.device);
  }
  run_span.AddArg(
      obs::TraceArg::Str("outcome", JobPhaseName(PhaseForStatus(status))));
  if (modeled_gpu_seconds > 0.0) {
    run_span.AddArg(
        obs::TraceArg::Double("modeled_gpu_ms", modeled_gpu_seconds * 1e3));
  }
  if (sweep_shards > 0) {
    run_span.AddArg(obs::TraceArg::Int("sweep_shards", sweep_shards));
  }
  run_span.End();

  // Settle the led flight before the terminal transition publishes: once a
  // caller's Wait() returns, an identical resubmit must hit the cache, not
  // race the insert. Failed, cancelled and timed-out runs — and any run
  // with sanitizer findings — cache nothing; parked joiners inherit the
  // status either way.
  if (job->flight_cache != nullptr) {
    std::shared_ptr<const CachedResult> payload;
    if (status.ok() && sanitizer_findings == 0) {
      auto entry = std::make_shared<CachedResult>();
      entry->results = results;
      entry->setting_seconds = setting_seconds;
      payload = std::move(entry);
    }
    job->flight_cache->FinishFlight(job->flight_key, status,
                                    std::move(payload));
  }

  // Update the aggregate counters first: once FinishLocked runs, Wait()
  // returns and the caller may immediately read stats().
  {
    MutexLock lock(&stats_->mutex);
    stats_->exec_seconds_total += exec_seconds;
    stats_->modeled_gpu_seconds_total += modeled_gpu_seconds;
    stats_->sanitizer_findings_total += sanitizer_findings;
    stats_->sweep_shards_total += sweep_shards;
  }
  stats_->CountTerminal(status);
  {
    MutexLock lock(&job->mutex);
    job->result.results = std::move(results);
    job->result.setting_seconds = std::move(setting_seconds);
    job->result.exec_seconds = exec_seconds;
    job->result.modeled_gpu_seconds = modeled_gpu_seconds;
    job->result.warm_device = warm_device;
    job->result.sanitizer_findings = sanitizer_findings;
    job->result.sanitizer_checked_accesses = sanitizer_checked_accesses;
    job->result.sanitizer_reports = std::move(sanitizer_reports);
    job->result.sweep_shards = sweep_shards;
    job->FinishLocked(std::move(status));
  }
  job->FlushCallbacks();
}

void ProclusService::Shutdown() {
  {
    MutexLock lock(&queue_mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // Submit and this function serialize acceptance and `stopping_` under
  // queue_mutex_, and workers only exit once both queues are empty, so no
  // accepted job can still be queued here. Drain defensively anyway: the
  // no-lost-job guarantee (every OK Submit reaches a terminal phase, see
  // the shutdown-race stress test) must survive future refactors of the
  // worker loop, not depend on them.
  std::deque<std::shared_ptr<internal::Job>> leftovers;
  {
    MutexLock lock(&queue_mutex_);
    leftovers.swap(interactive_queue_);
    for (auto& job : bulk_queue_) leftovers.push_back(std::move(job));
    bulk_queue_.clear();
  }
  for (const auto& job : leftovers) {
    bool finished_here = false;
    {
      MutexLock lock(&job->mutex);
      if (job->phase == JobPhase::kQueued) {
        job->result.queue_seconds = SecondsSince(job->submit_time);
        const Status status =
            Status::FailedPrecondition("service shut down before job ran");
        stats_->CountTerminal(status);
        job->FinishLocked(status);
        finished_here = true;
      }
    }
    if (finished_here) {
      // Outside the job lock (docs/concurrency.md).
      job->TraceQueueWait("shutdown");
      job->FlushCallbacks();
      job->SettleFlightFailed();
    }
  }

  // Nobody can wait on a device anymore; unwedge any stray waiter.
  device_pool_->Shutdown();
}

void ProclusService::PublishMetrics(obs::MetricsRegistry* registry,
                                    const std::string& prefix) const {
  PROCLUS_CHECK(registry != nullptr);
  const ServiceStats snap = stats();
  const auto set = [&](const char* name, double value) {
    registry->gauge(prefix + "." + name)->Set(value);
  };
  set("submitted", static_cast<double>(snap.submitted));
  set("rejected", static_cast<double>(snap.rejected));
  set("completed", static_cast<double>(snap.completed));
  set("failed", static_cast<double>(snap.failed));
  set("cancelled", static_cast<double>(snap.cancelled));
  set("timed_out", static_cast<double>(snap.timed_out));
  set("queue_depth_high_water",
      static_cast<double>(snap.queue_depth_high_water));
  set("device_acquires", static_cast<double>(snap.device_acquires));
  set("device_reuse_hits", static_cast<double>(snap.device_reuse_hits));
  set("exec_seconds_total", snap.exec_seconds_total);
  set("modeled_gpu_seconds_total", snap.modeled_gpu_seconds_total);
  set("sanitizer_findings_total",
      static_cast<double>(snap.sanitizer_findings_total));
  set("sweep_shards_total", static_cast<double>(snap.sweep_shards_total));
  set("datasets_resident_bytes",
      static_cast<double>(snap.datasets_resident_bytes));
  store_->PublishMetrics(registry, "store");
  // The cache publishes under its literal full names (service.cache.*).
  if (cache_ != nullptr) cache_->PublishMetrics(registry);
}

ServiceStats ProclusService::stats() const {
  ServiceStats snapshot;
  {
    MutexLock lock(&stats_->mutex);
    snapshot.submitted = stats_->submitted;
    snapshot.rejected = stats_->rejected;
    snapshot.completed = stats_->completed;
    snapshot.failed = stats_->failed;
    snapshot.cancelled = stats_->cancelled;
    snapshot.timed_out = stats_->timed_out;
    snapshot.queue_depth_high_water = stats_->queue_depth_high_water;
    snapshot.exec_seconds_total = stats_->exec_seconds_total;
    snapshot.modeled_gpu_seconds_total = stats_->modeled_gpu_seconds_total;
    snapshot.sanitizer_findings_total = stats_->sanitizer_findings_total;
    snapshot.sweep_shards_total = stats_->sweep_shards_total;
  }
  snapshot.device_acquires = device_pool_->acquires();
  snapshot.device_reuse_hits = device_pool_->reuse_hits();
  snapshot.datasets_resident_bytes = store_->stats().resident_bytes;
  return snapshot;
}

int64_t ProclusService::queue_depth() const {
  MutexLock lock(&queue_mutex_);
  return static_cast<int64_t>(interactive_queue_.size() +
                              bulk_queue_.size());
}

int ProclusService::devices_leased() const { return device_pool_->leased(); }

int ProclusService::device_capacity() const {
  return device_pool_->capacity();
}

}  // namespace proclus::service
