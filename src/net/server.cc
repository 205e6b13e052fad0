#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <utility>

#include "common/hash.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "net/frame.h"

namespace proclus::net {

namespace {

// How often blocked loops re-check stop/disconnect conditions.
constexpr int kPollSliceMs = 50;
// How long a shed connection gets to present its first request before the
// server gives up on answering it politely.
constexpr int kShedReadTimeoutMs = 2000;

Response ErrorResponse(RequestType request, const Status& status) {
  Response response;
  response.request = request;
  response.ok = false;
  response.error = WireError::FromStatus(status);
  return response;
}

void FillResult(const service::JobResult& job_result, Response* response) {
  response->has_result = true;
  response->result.results = job_result.results;
  response->result.setting_seconds = job_result.setting_seconds;
  response->result.queue_seconds = job_result.queue_seconds;
  response->result.exec_seconds = job_result.exec_seconds;
  response->result.modeled_gpu_seconds = job_result.modeled_gpu_seconds;
  response->result.warm_device = job_result.warm_device;
  response->result.sanitizer_findings = job_result.sanitizer_findings;
  response->result.sanitizer_checked_accesses =
      job_result.sanitizer_checked_accesses;
  response->result.sanitizer_reports = job_result.sanitizer_reports;
  response->result.sweep_shards = job_result.sweep_shards;
  response->result.cache_hit = job_result.cache_hit;
  response->result.cache_key = job_result.cache_key;
}

bool IsTerminal(service::JobPhase phase) {
  return phase != service::JobPhase::kQueued &&
         phase != service::JobPhase::kRunning;
}

}  // namespace

ProclusServer::ProclusServer(service::ProclusService* service,
                             ServerOptions options)
    : service_(service), options_(std::move(options)) {}

ProclusServer::~ProclusServer() { Stop(); }

Status ProclusServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already started");
  }
  if (service_ == nullptr) {
    return Status::InvalidArgument("service must not be null");
  }
  if (options_.max_connections < 1) {
    return Status::InvalidArgument("max_connections must be >= 1");
  }
  stopping_.store(false, std::memory_order_release);
  PROCLUS_RETURN_NOT_OK(listener_.Bind(options_.host, options_.port));
  port_ = listener_.port();
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ProclusServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();

  // Connection threads observe stopping_ between requests; requests already
  // in flight (wait-mode submits included) run to completion and get their
  // response — graceful stop drains, it does not abort.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    MutexLock lock(&connections_mutex_);
    connections.swap(connections_);
  }
  for (const std::unique_ptr<Connection>& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  metrics_.gauge("net.active_connections")->Set(0.0);
  running_.store(false, std::memory_order_release);
}

void ProclusServer::ReapFinishedConnections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    MutexLock lock(&connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const std::unique_ptr<Connection>& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void ProclusServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Socket socket;
    const Status status = listener_.Accept(kPollSliceMs, &socket);
    if (status.code() == StatusCode::kDeadlineExceeded) {
      ReapFinishedConnections();
      continue;
    }
    if (!status.ok()) {
      if (stopping_.load(std::memory_order_acquire)) break;
      // Transient accept failure; keep serving.
      continue;
    }
    ReapFinishedConnections();

    size_t active;
    {
      MutexLock lock(&connections_mutex_);
      active = connections_.size();
    }
    metrics_.counter("net.connections_accepted")->Increment();
    if (options_.fault != nullptr &&
        options_.fault->Should(FaultKind::kRefuseConnection)) {
      // Injected refusal: hang up before the first request, as a dying
      // server would. The client's only signal is the transport error.
      metrics_.counter("net.connections_refused")->Increment();
      socket.Close();
      continue;
    }
    if (active >= static_cast<size_t>(options_.max_connections)) {
      metrics_.counter("net.connections_shed")->Increment();
      ShedConnection(std::move(socket));
      continue;
    }

    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(socket);
    Connection* raw = connection.get();
    {
      MutexLock lock(&connections_mutex_);
      connections_.push_back(std::move(connection));
      metrics_.gauge("net.active_connections")
          ->Set(static_cast<double>(connections_.size()));
    }
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

void ProclusServer::ShedConnection(Socket socket) {
  // Answer the first request so the client sees a retryable error rather
  // than a mute close; budget the read so a silent peer cannot stall the
  // accept loop.
  RequestType request_type = RequestType::kMetrics;
  if (socket.WaitReadable(kShedReadTimeoutMs).ok()) {
    std::string payload;
    if (ReadFrame(&socket, &payload).ok()) {
      Request request;
      if (DecodeRequest(payload, &request).ok()) {
        request_type = request.type;
      }
    }
  }
  metrics_.counter("net.resource_exhausted")->Increment();
  const Response response = ErrorResponse(
      request_type,
      Status::ResourceExhausted("connection budget exhausted; retry later"));
  std::string payload;
  if (EncodeResponse(response, &payload).ok()) {
    // Best-effort answer: the peer may already be gone. A failed write
    // still sheds the connection, but it is counted — a silent drop here
    // looks like a mute close to the client, which is exactly what this
    // path exists to avoid.
    if (!WriteFrame(&socket, payload).ok()) {
      metrics_.counter("net.shed_write_failures")->Increment();
    }
  }
  socket.Close();
}

void ProclusServer::ServeConnection(Connection* connection) {
  while (!stopping_.load(std::memory_order_acquire)) {
    const Status readable = connection->socket.WaitReadable(kPollSliceMs);
    if (readable.code() == StatusCode::kDeadlineExceeded) continue;
    if (!readable.ok()) break;
    std::string payload;
    bool clean_close = false;
    if (!ReadFrame(&connection->socket, &payload, &clean_close).ok()) break;
    if (!HandleRequest(connection, payload)) break;
  }
  // Uploads the connection never committed are dead: free their staging
  // buffers so an aborted client cannot leak server memory.
  for (const auto& [id, session] : connection->uploads) {
    service_->dataset_store()->UploadAbort(session);
  }
  connection->uploads.clear();
  connection->socket.Close();
  connection->done.store(true, std::memory_order_release);
}

bool ProclusServer::HandleRequest(Connection* connection,
                                  const std::string& payload) {
  metrics_.counter("net.requests")->Increment();
  Request request;
  Response response;
  const Status decoded = DecodeRequest(payload, &request);
  if (decoded.ok() && request.type == RequestType::kUploadChunk) {
    // The chunk header is followed by exactly one raw frame holding the
    // payload bytes; consume it before anything can be answered so header
    // and payload never desynchronize on this connection.
    if (!ReadFrame(&connection->socket, &request.chunk_payload).ok()) {
      return false;
    }
    if (static_cast<int64_t>(request.chunk_payload.size()) !=
        request.chunk_declared_bytes) {
      metrics_.counter("net.decode_errors")->Increment();
      response = ErrorResponse(
          request.type,
          Status::InvalidArgument(
              "upload_chunk payload frame is " +
              std::to_string(request.chunk_payload.size()) +
              " bytes but the header declared " +
              std::to_string(request.chunk_declared_bytes)));
      std::string encoded_error;
      if (!EncodeResponse(response, &encoded_error).ok()) return false;
      metrics_.counter("net.responses_error")->Increment();
      return WriteFrameWithFaults(&connection->socket, encoded_error,
                                  options_.fault)
          .ok();
    }
  }
  if (!decoded.ok()) {
    metrics_.counter("net.decode_errors")->Increment();
    response = ErrorResponse(RequestType::kMetrics, decoded);
  } else {
    bool peer_lost = false;
    response = Dispatch(connection, request, &peer_lost);
    if (peer_lost) return false;  // nobody left to answer
  }
  metrics_.counter(response.ok ? "net.responses_ok" : "net.responses_error")
      ->Increment();
  std::string encoded;
  const Status encode_status = EncodeResponse(response, &encoded);
  if (!encode_status.ok()) {
    const Response fallback =
        ErrorResponse(response.request,
                      Status::Internal("response encoding failed: " +
                                       encode_status.message()));
    if (!EncodeResponse(fallback, &encoded).ok()) return false;
  }
  return WriteFrameWithFaults(&connection->socket, encoded, options_.fault)
      .ok();
}

Response ProclusServer::Dispatch(Connection* connection,
                                 const Request& request, bool* peer_lost) {
  switch (request.type) {
    case RequestType::kRegisterDataset:
      return HandleRegisterDataset(request);
    case RequestType::kUploadBegin:
      return HandleUploadBegin(connection, request);
    case RequestType::kUploadChunk:
      return HandleUploadChunk(connection, request);
    case RequestType::kUploadCommit:
      return HandleUploadCommit(connection, request);
    case RequestType::kListDatasets:
      return HandleListDatasets();
    case RequestType::kEvictDataset:
      return HandleEvictDataset(request);
    case RequestType::kEvictResult:
      return HandleEvictResult(request);
    case RequestType::kSubmitSingle:
    case RequestType::kSubmitSweep:
      return HandleSubmit(connection, request, peer_lost);
    case RequestType::kStatus:
      return HandleStatus(request);
    case RequestType::kCancel:
      return HandleCancel(request);
    case RequestType::kMetrics:
      return HandleMetrics();
    case RequestType::kHealth:
      return HandleHealth();
  }
  return ErrorResponse(request.type,
                       Status::Internal("unhandled request type"));
}

Response ProclusServer::HandleRegisterDataset(const Request& request) {
  data::Matrix points;
  if (request.has_inline_data) {
    points = request.inline_data;
  } else {
    data::GeneratorConfig config;
    config.n = request.generate.n;
    config.d = request.generate.d;
    config.num_clusters = request.generate.clusters;
    config.subspace_dim = std::max(2, request.generate.d / 3);
    config.seed = request.generate.seed;
    data::Dataset dataset;
    const Status status = data::GenerateSubspaceData(config, &dataset);
    if (!status.ok()) return ErrorResponse(request.type, status);
    if (request.generate.normalize) data::MinMaxNormalize(&dataset.points);
    points = std::move(dataset.points);
  }
  const Status status =
      service_->RegisterDataset(request.dataset_id, std::move(points));
  if (!status.ok()) return ErrorResponse(request.type, status);
  Response response;
  response.request = request.type;
  response.ok = true;
  return response;
}

Response ProclusServer::HandleUploadBegin(Connection* connection,
                                          const Request& request) {
  std::shared_ptr<store::UploadSession> session;
  const Status status = service_->dataset_store()->UploadBegin(
      request.dataset_id, request.upload_rows, request.upload_cols, &session);
  if (!status.ok()) return ErrorResponse(request.type, status);
  const uint64_t session_id =
      next_upload_session_.fetch_add(1, std::memory_order_relaxed);
  connection->uploads.emplace(session_id, std::move(session));
  metrics_.counter("net.uploads_started")->Increment();
  Response response;
  response.request = request.type;
  response.ok = true;
  response.upload_session = session_id;
  return response;
}

Response ProclusServer::HandleUploadChunk(Connection* connection,
                                          const Request& request) {
  const auto it = connection->uploads.find(request.upload_session);
  if (it == connection->uploads.end()) {
    return ErrorResponse(
        request.type,
        Status::InvalidArgument("unknown upload session: " +
                                std::to_string(request.upload_session)));
  }
  const Status status = service_->dataset_store()->UploadChunk(
      it->second, request.upload_offset, request.chunk_payload.data(),
      static_cast<int64_t>(request.chunk_payload.size()));
  if (!status.ok()) return ErrorResponse(request.type, status);
  metrics_.counter("net.upload_chunk_bytes")
      ->Increment(static_cast<int64_t>(request.chunk_payload.size()));
  Response response;
  response.request = request.type;
  response.ok = true;
  return response;
}

Response ProclusServer::HandleUploadCommit(Connection* connection,
                                           const Request& request) {
  const auto it = connection->uploads.find(request.upload_session);
  if (it == connection->uploads.end()) {
    return ErrorResponse(
        request.type,
        Status::InvalidArgument("unknown upload session: " +
                                std::to_string(request.upload_session)));
  }
  uint64_t hash = 0;
  bool deduped = false;
  const Status status = service_->dataset_store()->UploadCommit(
      it->second, request.upload_crc32, &hash, &deduped);
  if (!status.ok()) return ErrorResponse(request.type, status);
  connection->uploads.erase(it);
  metrics_.counter("net.uploads_committed")->Increment();
  Response response;
  response.request = request.type;
  response.ok = true;
  response.dataset_hash = Hex64(hash);
  response.deduped = deduped;
  return response;
}

Response ProclusServer::HandleListDatasets() {
  Response response;
  response.request = RequestType::kListDatasets;
  response.ok = true;
  response.has_datasets = true;
  for (const store::DatasetInfo& info :
       service_->dataset_store()->List()) {
    WireDatasetInfo wire;
    wire.id = info.id;
    wire.hash = Hex64(info.hash);
    wire.rows = info.rows;
    wire.cols = info.cols;
    wire.bytes = info.bytes;
    wire.resident = info.resident;
    wire.pinned = info.pinned;
    response.datasets.push_back(std::move(wire));
  }
  return response;
}

Response ProclusServer::HandleEvictDataset(const Request& request) {
  const Status status =
      service_->dataset_store()->Evict(request.dataset_id);
  if (!status.ok()) return ErrorResponse(request.type, status);
  Response response;
  response.request = request.type;
  response.ok = true;
  return response;
}

Response ProclusServer::HandleEvictResult(const Request& request) {
  service::ResultCache* cache = service_->result_cache();
  Response response;
  response.request = request.type;
  if (cache == nullptr) {
    // No cache configured: nothing can be resident, so an evict is a
    // successful no-op rather than an error a generic janitor would trip on.
    response.ok = true;
    return response;
  }
  bool evicted = false;
  const Status status = cache->EvictByHex(request.cache_key, &evicted);
  if (!status.ok()) return ErrorResponse(request.type, status);
  response.ok = true;
  response.evicted = evicted;
  return response;
}

Response ProclusServer::HandleSubmit(Connection* connection,
                                     const Request& request,
                                     bool* peer_lost) {
  service::JobSpec spec;
  spec.kind = request.type == RequestType::kSubmitSweep
                  ? service::JobKind::kSweep
                  : service::JobKind::kSingle;
  spec.dataset_id = request.dataset_id;
  spec.params = request.params;
  spec.options = request.options;
  spec.sweep = request.sweep;
  spec.priority = request.priority;
  spec.timeout_seconds = request.timeout_ms / 1000.0;

  service::JobHandle handle;
  const Status submitted = service_->Submit(std::move(spec), &handle);
  if (!submitted.ok()) {
    if (submitted.code() == StatusCode::kResourceExhausted) {
      metrics_.counter("net.resource_exhausted")->Increment();
    }
    return ErrorResponse(request.type, submitted);
  }

  if (!request.wait) {
    metrics_.counter("net.submit_async")->Increment();
    {
      MutexLock lock(&jobs_mutex_);
      async_jobs_.emplace(handle.id(), handle);
    }
    Response response;
    response.request = request.type;
    response.ok = true;
    response.job_id = handle.id();
    response.phase = service::JobPhaseName(handle.phase());
    return response;
  }

  metrics_.counter("net.submit_wait")->Increment();
  const auto wait_start = std::chrono::steady_clock::now();

  // The completion signal lives on the heap: when the peer disconnects we
  // cancel and walk away, and a *running* job only reaches its terminal
  // phase (and fires the callback) later, on a worker thread.
  struct WaitState {
    Mutex mutex;
    std::condition_variable cv;
    bool done GUARDED_BY(mutex) = false;
  };
  auto state = std::make_shared<WaitState>();
  handle.OnComplete([state](const service::JobResult&) {
    {
      MutexLock lock(&state->mutex);
      state->done = true;
    }
    state->cv.notify_all();
  });

  for (;;) {
    bool done;
    {
      MutexLock lock(&state->mutex);
      if (!state->done) {
        state->cv.wait_for(lock.native(),
                           std::chrono::milliseconds(kPollSliceMs));
      }
      done = state->done;
    }
    if (done) break;
    if (connection->socket.PeerClosed()) {
      metrics_.counter("net.disconnect_cancels")->Increment();
      handle.Cancel();
      *peer_lost = true;
      return Response();
    }
  }

  const service::JobResult* job_result = handle.TryGet();
  metrics_.histogram("net.wait_seconds")
      ->Observe(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wait_start)
                    .count());
  if (job_result == nullptr) {
    return ErrorResponse(request.type,
                         Status::Internal("job signalled completion without "
                                          "a result"));
  }
  Response response;
  response.request = request.type;
  response.job_id = handle.id();
  response.phase = service::JobPhaseName(handle.phase());
  if (!job_result->status.ok()) {
    response.ok = false;
    response.error = WireError::FromStatus(job_result->status);
    // simtcheck failures still ship the violation reports so the client
    // sees what fired, not just the summary in the error message.
    if (job_result->sanitizer_findings > 0) FillResult(*job_result, &response);
    return response;
  }
  response.ok = true;
  FillResult(*job_result, &response);
  return response;
}

Response ProclusServer::HandleStatus(const Request& request) {
  service::JobHandle handle;
  {
    MutexLock lock(&jobs_mutex_);
    const auto it = async_jobs_.find(request.job_id);
    if (it == async_jobs_.end()) {
      return ErrorResponse(
          request.type,
          Status::InvalidArgument("unknown job id: " +
                                  std::to_string(request.job_id)));
    }
    handle = it->second;
  }
  Response response;
  response.request = request.type;
  response.job_id = request.job_id;
  const service::JobPhase phase = handle.phase();
  response.phase = service::JobPhaseName(phase);
  if (!IsTerminal(phase)) {
    response.ok = true;
    return response;
  }
  const service::JobResult* job_result = handle.TryGet();
  if (job_result == nullptr || !job_result->status.ok()) {
    response.ok = false;
    response.error = WireError::FromStatus(
        job_result == nullptr
            ? Status::Internal("terminal job without a result")
            : job_result->status);
    if (job_result != nullptr && job_result->sanitizer_findings > 0 &&
        request.include_result) {
      FillResult(*job_result, &response);
    }
    return response;
  }
  response.ok = true;
  if (request.include_result) FillResult(*job_result, &response);
  return response;
}

Response ProclusServer::HandleCancel(const Request& request) {
  service::JobHandle handle;
  {
    MutexLock lock(&jobs_mutex_);
    const auto it = async_jobs_.find(request.job_id);
    if (it == async_jobs_.end()) {
      return ErrorResponse(
          request.type,
          Status::InvalidArgument("unknown job id: " +
                                  std::to_string(request.job_id)));
    }
    handle = it->second;
  }
  handle.Cancel();
  Response response;
  response.request = request.type;
  response.ok = true;
  response.job_id = request.job_id;
  response.phase = service::JobPhaseName(handle.phase());
  return response;
}

Response ProclusServer::HandleMetrics() {
  service_->PublishMetrics(&metrics_);
  if (options_.fault != nullptr) options_.fault->PublishMetrics(&metrics_);
  {
    MutexLock lock(&connections_mutex_);
    metrics_.gauge("net.active_connections")
        ->Set(static_cast<double>(connections_.size()));
  }
  Response response;
  response.request = RequestType::kMetrics;
  response.ok = true;
  response.metrics = metrics_.JsonSnapshot();
  return response;
}

Response ProclusServer::HandleHealth() {
  Response response;
  response.request = RequestType::kHealth;
  response.ok = true;
  response.has_health = true;
  WireHealth& health = response.health;
  health.queue_depth = service_->queue_depth();
  health.queue_capacity = service_->options().queue_capacity;
  {
    MutexLock lock(&connections_mutex_);
    health.active_connections = static_cast<int>(connections_.size());
  }
  health.max_connections = options_.max_connections;
  health.devices_total = service_->device_capacity();
  health.devices_leased = service_->devices_leased();
  health.draining = stopping_.load(std::memory_order_acquire);
  if (options_.fault != nullptr) {
    health.faults_injected_total = options_.fault->injected_total();
  }
  const store::StoreStats store_stats =
      service_->dataset_store()->stats();
  health.store_datasets = store_stats.datasets;
  health.store_resident_bytes = store_stats.resident_bytes;
  health.store_evictions = store_stats.evictions;
  health.store_upload_bytes_total = store_stats.upload_bytes_total;
  const service::ResultCacheStats cache_stats =
      service_->result_cache_stats();
  health.cache_entries = cache_stats.entries;
  health.cache_bytes = cache_stats.bytes;
  health.cache_hits = cache_stats.hits;
  health.cache_misses = cache_stats.misses;
  health.cache_inserts = cache_stats.inserts;
  health.cache_evictions = cache_stats.evictions;
  health.cache_dedup_joins = cache_stats.dedup_joins;
  return response;
}

}  // namespace proclus::net
