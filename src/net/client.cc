#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "net/frame.h"

namespace proclus::net {

Status ProclusClient::Connect(const std::string& host, int port) {
  Close();
  // Remembered even when the connect fails: CallWithRetry may still be
  // able to reach the server on a later attempt (e.g. an injected
  // connection refusal).
  host_ = host;
  port_ = port;
  return net::Connect(host, port, &socket_);
}

Status ProclusClient::Call(const Request& request, Response* response) {
  if (response == nullptr) {
    return Status::InvalidArgument("response must not be null");
  }
  *response = Response();
  if (!socket_.valid()) {
    return Status::FailedPrecondition("client is not connected");
  }
  std::string payload;
  PROCLUS_RETURN_NOT_OK(EncodeRequest(request, &payload));
  PROCLUS_RETURN_NOT_OK(WriteFrame(&socket_, payload));
  if (request.type == RequestType::kUploadChunk) {
    // The chunk's payload bytes travel as a second, raw frame right behind
    // the JSON header (see protocol.h).
    PROCLUS_RETURN_NOT_OK(WriteFrame(&socket_, request.chunk_payload));
  }
  bool clean_close = false;
  const Status read = ReadFrame(&socket_, &payload, &clean_close);
  if (!read.ok()) {
    if (clean_close) {
      return Status::IoError("server closed the connection before replying");
    }
    return read;
  }
  return DecodeResponse(payload, response);
}

Status ProclusClient::set_retry_policy(const RetryPolicy& policy) {
  PROCLUS_RETURN_NOT_OK(policy.Validate());
  retry_policy_ = policy;
  return Status::OK();
}

Status ProclusClient::CallWithRetry(const Request& request,
                                    Response* response) {
  if (!retry_policy_.enabled()) return Call(request, response);
  if (response == nullptr) {
    return Status::InvalidArgument("response must not be null");
  }
  if (!socket_.valid() && host_.empty()) {
    return Status::FailedPrecondition("client is not connected");
  }
  BackoffSchedule backoff(retry_policy_, ++call_sequence_);
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  for (int attempt = 0;; ++attempt) {
    Status failure;
    // True when the server delivered a full (retryable-error) response:
    // a give-up then mirrors Call and returns OK with that response.
    bool answered = false;
    if (!socket_.valid()) {
      const Status reconnect = net::Connect(host_, port_, &socket_);
      if (!reconnect.ok()) {
        // Nothing reached the wire, so retrying is safe for every request
        // type, idempotent or not.
        failure = reconnect;
      } else if (attempt > 0) {
        ++retry_stats_.reconnects;
      }
    }
    if (socket_.valid() && failure.ok()) {
      ++retry_stats_.attempts;
      const Status status = Call(request, response);
      if (status.ok()) {
        if (response->ok || !IsRetryableCode(response->error.code)) {
          return Status::OK();  // terminal answer, Call's contract applies
        }
        answered = true;
        failure = response->error.ToStatus();
      } else {
        // Transport error mid-call: the request/response alternation is
        // torn, so the connection is useless — drop it. Resending is only
        // safe when a duplicate execution is harmless.
        Close();
        if (!IsIdempotentRequest(request)) {
          ++retry_stats_.give_ups;
          return status;
        }
        failure = status;
      }
    }
    if (attempt >= retry_policy_.max_retries) {
      ++retry_stats_.give_ups;
      return answered ? Status::OK() : failure;
    }
    const double sleep_ms = backoff.NextMs();
    if (retry_policy_.budget_ms > 0.0 &&
        elapsed_ms() + sleep_ms > retry_policy_.budget_ms) {
      ++retry_stats_.give_ups;
      return answered ? Status::OK() : failure;
    }
    ++retry_stats_.retries;
    retry_stats_.backoff_ms_total += sleep_ms;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms));
  }
}

Status ProclusClient::CallChecked(const Request& request,
                                  Response* response) {
  PROCLUS_RETURN_NOT_OK(CallWithRetry(request, response));
  if (!response->ok) return response->error.ToStatus();
  return Status::OK();
}

Status ProclusClient::RegisterDataset(const std::string& id,
                                      const data::Matrix& points) {
  Request request;
  request.type = RequestType::kRegisterDataset;
  request.dataset_id = id;
  request.has_inline_data = true;
  request.inline_data = points;
  Response response;
  return CallChecked(request, &response);
}

Status ProclusClient::RegisterGenerated(const std::string& id,
                                        const GenerateSpec& spec) {
  Request request;
  request.type = RequestType::kRegisterDataset;
  request.dataset_id = id;
  request.has_generate = true;
  request.generate = spec;
  Response response;
  return CallChecked(request, &response);
}

Status ProclusClient::UploadDataset(const std::string& id,
                                    const data::Matrix& points,
                                    int64_t chunk_bytes, std::string* hash,
                                    bool* deduped) {
  if (points.empty()) {
    return Status::InvalidArgument("dataset must not be empty");
  }
  constexpr int64_t kDefaultChunkBytes = 4 << 20;
  if (chunk_bytes <= 0) chunk_bytes = kDefaultChunkBytes;
  chunk_bytes -= chunk_bytes % 4;  // whole float32 values per chunk
  chunk_bytes = std::min<int64_t>(
      chunk_bytes, static_cast<int64_t>(kMaxFrameBytes) - 4096);
  if (chunk_bytes < 4) {
    return Status::InvalidArgument("chunk_bytes must allow >= 4 bytes");
  }

  Request begin;
  begin.type = RequestType::kUploadBegin;
  begin.dataset_id = id;
  begin.upload_rows = points.rows();
  begin.upload_cols = points.cols();
  Response response;
  PROCLUS_RETURN_NOT_OK(CallChecked(begin, &response));
  if (response.upload_session == 0) {
    return Status::Internal("upload_begin returned no session id");
  }
  const uint64_t session = response.upload_session;

  // The wire format is little-endian float32, which is the in-memory
  // layout on every platform this codebase targets — chunks are straight
  // byte spans of the matrix payload.
  const auto* bytes = reinterpret_cast<const char*>(points.data());
  const int64_t total_bytes = points.size() * 4;
  for (int64_t offset = 0; offset < total_bytes; offset += chunk_bytes) {
    Request chunk;
    chunk.type = RequestType::kUploadChunk;
    chunk.upload_session = session;
    chunk.upload_offset = offset;
    chunk.chunk_payload.assign(
        bytes + offset,
        static_cast<size_t>(std::min(chunk_bytes, total_bytes - offset)));
    PROCLUS_RETURN_NOT_OK(CallChecked(chunk, &response));
  }

  Request commit;
  commit.type = RequestType::kUploadCommit;
  commit.upload_session = session;
  commit.upload_crc32 =
      Crc32(points.data(), static_cast<size_t>(total_bytes));
  PROCLUS_RETURN_NOT_OK(CallChecked(commit, &response));
  if (hash != nullptr) *hash = response.dataset_hash;
  if (deduped != nullptr) *deduped = response.deduped;
  return Status::OK();
}

Status ProclusClient::ListDatasets(std::vector<WireDatasetInfo>* datasets) {
  if (datasets == nullptr) {
    return Status::InvalidArgument("datasets must not be null");
  }
  Request request;
  request.type = RequestType::kListDatasets;
  Response response;
  PROCLUS_RETURN_NOT_OK(CallChecked(request, &response));
  if (!response.has_datasets) {
    return Status::Internal("server reported ok without a datasets array");
  }
  *datasets = std::move(response.datasets);
  return Status::OK();
}

Status ProclusClient::EvictDataset(const std::string& id) {
  Request request;
  request.type = RequestType::kEvictDataset;
  request.dataset_id = id;
  Response response;
  return CallChecked(request, &response);
}

Status ProclusClient::EvictResult(const std::string& cache_key,
                                  bool* evicted) {
  Request request;
  request.type = RequestType::kEvictResult;
  request.cache_key = cache_key;
  Response response;
  PROCLUS_RETURN_NOT_OK(CallChecked(request, &response));
  if (evicted != nullptr) *evicted = response.evicted;
  return Status::OK();
}

Status ProclusClient::SubmitSingle(const Request& request,
                                   WireJobResult* result) {
  if (result == nullptr) {
    return Status::InvalidArgument("result must not be null");
  }
  if (request.type != RequestType::kSubmitSingle || !request.wait) {
    return Status::InvalidArgument(
        "SubmitSingle needs a wait-mode submit_single request");
  }
  Response response;
  PROCLUS_RETURN_NOT_OK(CallChecked(request, &response));
  if (!response.has_result) {
    return Status::Internal("server reported ok without a result");
  }
  *result = std::move(response.result);
  return Status::OK();
}

Status ProclusClient::SubmitSweep(const Request& request,
                                  WireJobResult* result) {
  if (result == nullptr) {
    return Status::InvalidArgument("result must not be null");
  }
  if (request.type != RequestType::kSubmitSweep || !request.wait) {
    return Status::InvalidArgument(
        "SubmitSweep needs a wait-mode submit_sweep request");
  }
  Response response;
  PROCLUS_RETURN_NOT_OK(CallChecked(request, &response));
  if (!response.has_result) {
    return Status::Internal("server reported ok without a result");
  }
  *result = std::move(response.result);
  return Status::OK();
}

Status ProclusClient::SubmitAsync(const Request& request, uint64_t* job_id) {
  if (job_id == nullptr) {
    return Status::InvalidArgument("job_id must not be null");
  }
  if ((request.type != RequestType::kSubmitSingle &&
       request.type != RequestType::kSubmitSweep) ||
      request.wait) {
    return Status::InvalidArgument(
        "SubmitAsync needs a submit_* request with wait == false");
  }
  Response response;
  PROCLUS_RETURN_NOT_OK(CallChecked(request, &response));
  *job_id = response.job_id;
  return Status::OK();
}

Status ProclusClient::GetStatus(uint64_t job_id, bool include_result,
                                Response* response) {
  if (response == nullptr) {
    return Status::InvalidArgument("response must not be null");
  }
  Request request;
  request.type = RequestType::kStatus;
  request.job_id = job_id;
  request.include_result = include_result;
  // A terminal-failed job answers ok=false with the job's status; that is
  // an answer, not a transport problem, so return the raw call result.
  return CallWithRetry(request, response);
}

Status ProclusClient::Cancel(uint64_t job_id) {
  Request request;
  request.type = RequestType::kCancel;
  request.job_id = job_id;
  Response response;
  return CallChecked(request, &response);
}

Status ProclusClient::FetchMetrics(json::JsonValue* metrics) {
  if (metrics == nullptr) {
    return Status::InvalidArgument("metrics must not be null");
  }
  Request request;
  request.type = RequestType::kMetrics;
  Response response;
  PROCLUS_RETURN_NOT_OK(CallChecked(request, &response));
  *metrics = std::move(response.metrics);
  return Status::OK();
}

Status ProclusClient::FetchHealth(WireHealth* health) {
  if (health == nullptr) {
    return Status::InvalidArgument("health must not be null");
  }
  Request request;
  request.type = RequestType::kHealth;
  Response response;
  PROCLUS_RETURN_NOT_OK(CallChecked(request, &response));
  if (!response.has_health) {
    return Status::Internal("server reported ok without a health object");
  }
  *health = response.health;
  return Status::OK();
}

}  // namespace proclus::net
