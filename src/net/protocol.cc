#include "net/protocol.h"

#include <cstdio>
#include <utility>

#include "core/serialization.h"
#include "net/frame.h"

namespace proclus::net {

namespace {

using json::JsonValue;

// --- small enum <-> token tables ---------------------------------------------

struct CodeName {
  StatusCode code;
  const char* name;
};

constexpr CodeName kCodeNames[] = {
    {StatusCode::kOk, "OK"},
    {StatusCode::kInvalidArgument, "INVALID_ARGUMENT"},
    {StatusCode::kOutOfRange, "OUT_OF_RANGE"},
    {StatusCode::kFailedPrecondition, "FAILED_PRECONDITION"},
    {StatusCode::kResourceExhausted, "RESOURCE_EXHAUSTED"},
    {StatusCode::kIoError, "IO_ERROR"},
    {StatusCode::kInternal, "INTERNAL"},
    {StatusCode::kCancelled, "CANCELLED"},
    {StatusCode::kDeadlineExceeded, "DEADLINE_EXCEEDED"},
};

const char* ReuseToken(core::ReuseLevel reuse) {
  switch (reuse) {
    case core::ReuseLevel::kNone: return "none";
    case core::ReuseLevel::kCache: return "cache";
    case core::ReuseLevel::kGreedy: return "greedy";
    case core::ReuseLevel::kWarmStart: return "warm_start";
  }
  return "warm_start";
}

Status ReuseFromToken(const std::string& token, core::ReuseLevel* out) {
  if (token == "none") *out = core::ReuseLevel::kNone;
  else if (token == "cache") *out = core::ReuseLevel::kCache;
  else if (token == "greedy") *out = core::ReuseLevel::kGreedy;
  else if (token == "warm_start") *out = core::ReuseLevel::kWarmStart;
  else return Status::InvalidArgument("unknown reuse level: " + token);
  return Status::OK();
}

// --- field codecs ------------------------------------------------------------

JsonValue EncodeParams(const core::ProclusParams& params) {
  JsonValue v = JsonValue::Object();
  v.Set("k", JsonValue::Int(params.k));
  v.Set("l", JsonValue::Int(params.l));
  v.Set("a", JsonValue::Double(params.a));
  v.Set("b", JsonValue::Double(params.b));
  v.Set("min_dev", JsonValue::Double(params.min_dev));
  v.Set("itr_pat", JsonValue::Int(params.itr_pat));
  v.Set("seed", JsonValue::Int(static_cast<int64_t>(params.seed)));
  v.Set("max_total_iterations", JsonValue::Int(params.max_total_iterations));
  return v;
}

void DecodeParams(const JsonValue* v, core::ProclusParams* params) {
  if (v == nullptr || !v->is_object()) return;
  const core::ProclusParams defaults;
  auto field = [&](const char* name) { return v->Find(name); };
  if (const JsonValue* f = field("k")) params->k = static_cast<int>(f->AsInt(defaults.k));
  if (const JsonValue* f = field("l")) params->l = static_cast<int>(f->AsInt(defaults.l));
  if (const JsonValue* f = field("a")) params->a = f->AsDouble(defaults.a);
  if (const JsonValue* f = field("b")) params->b = f->AsDouble(defaults.b);
  if (const JsonValue* f = field("min_dev")) params->min_dev = f->AsDouble(defaults.min_dev);
  if (const JsonValue* f = field("itr_pat")) params->itr_pat = static_cast<int>(f->AsInt(defaults.itr_pat));
  if (const JsonValue* f = field("seed")) params->seed = static_cast<uint64_t>(f->AsInt(static_cast<int64_t>(defaults.seed)));
  if (const JsonValue* f = field("max_total_iterations")) params->max_total_iterations = static_cast<int>(f->AsInt(defaults.max_total_iterations));
}

JsonValue EncodeOptions(const core::ClusterOptions& options) {
  JsonValue v = JsonValue::Object();
  v.Set("backend", JsonValue::Str(core::BackendToken(options.backend)));
  v.Set("strategy", JsonValue::Str(core::StrategyToken(options.strategy)));
  if (options.num_threads != 0) {
    v.Set("num_threads", JsonValue::Int(options.num_threads));
  }
  if (options.gpu_assign_block_dim != 128) {
    v.Set("gpu_assign_block_dim",
          JsonValue::Int(options.gpu_assign_block_dim));
  }
  if (options.gpu_streams) v.Set("gpu_streams", JsonValue::Bool(true));
  if (options.gpu_device_dim_selection) {
    v.Set("gpu_device_dim_selection", JsonValue::Bool(true));
  }
  if (options.gpu_sanitize) v.Set("gpu_sanitize", JsonValue::Bool(true));
  return v;
}

Status DecodeOptions(const JsonValue* v, core::ClusterOptions* options) {
  // The wire never carries the host-pointer hooks (device/pool/cancel/
  // trace); the service owns those. The default backend over the wire is
  // the paper's recommended GPU + FAST pairing.
  *options = core::ClusterOptions::Gpu();
  if (v == nullptr || !v->is_object()) return Status::OK();
  if (const JsonValue* f = v->Find("backend")) {
    PROCLUS_RETURN_NOT_OK(
        core::BackendFromToken(f->AsString(), &options->backend));
  }
  if (const JsonValue* f = v->Find("strategy")) {
    PROCLUS_RETURN_NOT_OK(
        core::StrategyFromToken(f->AsString(), &options->strategy));
  }
  if (const JsonValue* f = v->Find("num_threads")) {
    options->num_threads = static_cast<int>(f->AsInt());
  }
  if (const JsonValue* f = v->Find("gpu_assign_block_dim")) {
    options->gpu_assign_block_dim = static_cast<int>(f->AsInt(128));
  }
  if (const JsonValue* f = v->Find("gpu_streams")) {
    options->gpu_streams = f->AsBool();
  }
  if (const JsonValue* f = v->Find("gpu_device_dim_selection")) {
    options->gpu_device_dim_selection = f->AsBool();
  }
  if (const JsonValue* f = v->Find("gpu_sanitize")) {
    options->gpu_sanitize = f->AsBool();
  }
  return Status::OK();
}

JsonValue EncodeWireJobResult(const WireJobResult& result) {
  JsonValue v = JsonValue::Object();
  core::EncodeResultList(result.results, result.setting_seconds, &v);
  v.Set("queue_seconds", JsonValue::Double(result.queue_seconds));
  v.Set("exec_seconds", JsonValue::Double(result.exec_seconds));
  if (result.modeled_gpu_seconds > 0.0) {
    v.Set("modeled_gpu_seconds",
          JsonValue::Double(result.modeled_gpu_seconds));
  }
  v.Set("warm_device", JsonValue::Bool(result.warm_device));
  if (result.sanitizer_findings > 0) {
    v.Set("sanitizer_findings", JsonValue::Int(result.sanitizer_findings));
  }
  if (result.sanitizer_checked_accesses > 0) {
    v.Set("sanitizer_checked_accesses",
          JsonValue::Int(result.sanitizer_checked_accesses));
  }
  if (!result.sanitizer_reports.empty()) {
    JsonValue reports = JsonValue::Array();
    for (const std::string& report : result.sanitizer_reports) {
      reports.Append(JsonValue::Str(report));
    }
    v.Set("sanitizer_reports", std::move(reports));
  }
  if (result.sweep_shards > 0) {
    v.Set("sweep_shards", JsonValue::Int(result.sweep_shards));
  }
  if (result.cache_hit) v.Set("cache_hit", JsonValue::Bool(true));
  if (!result.cache_key.empty()) {
    v.Set("cache_key", JsonValue::Str(result.cache_key));
  }
  return v;
}

Status DecodeWireJobResult(const JsonValue& v, WireJobResult* out) {
  WireJobResult& result = *out;
  PROCLUS_RETURN_NOT_OK(core::DecodeResultList(v, &result.results,
                                               &result.setting_seconds));
  if (const JsonValue* f = v.Find("queue_seconds")) result.queue_seconds = f->AsDouble();
  if (const JsonValue* f = v.Find("exec_seconds")) result.exec_seconds = f->AsDouble();
  if (const JsonValue* f = v.Find("modeled_gpu_seconds")) result.modeled_gpu_seconds = f->AsDouble();
  if (const JsonValue* f = v.Find("warm_device")) result.warm_device = f->AsBool();
  if (const JsonValue* f = v.Find("sanitizer_findings")) result.sanitizer_findings = f->AsInt();
  if (const JsonValue* f = v.Find("sanitizer_checked_accesses")) {
    result.sanitizer_checked_accesses = f->AsInt();
  }
  if (const JsonValue* reports = v.Find("sanitizer_reports");
      reports != nullptr && reports->is_array()) {
    for (const JsonValue& report : reports->array_value) {
      result.sanitizer_reports.push_back(report.AsString());
    }
  }
  if (const JsonValue* f = v.Find("sweep_shards")) {
    result.sweep_shards = static_cast<int>(f->AsInt());
  }
  if (const JsonValue* f = v.Find("cache_hit")) result.cache_hit = f->AsBool();
  if (const JsonValue* f = v.Find("cache_key")) {
    result.cache_key = f->AsString();
  }
  return Status::OK();
}

}  // namespace

// --- wire error codes --------------------------------------------------------

const char* WireCodeName(StatusCode code) {
  for (const CodeName& entry : kCodeNames) {
    if (entry.code == code) return entry.name;
  }
  return "INTERNAL";
}

StatusCode WireCodeFromName(const std::string& name) {
  for (const CodeName& entry : kCodeNames) {
    if (name == entry.name) return entry.code;
  }
  return StatusCode::kInternal;
}

bool IsRetryableCode(StatusCode code) {
  return code == StatusCode::kResourceExhausted;
}

bool IsIdempotentRequest(const Request& request) {
  switch (request.type) {
    case RequestType::kSubmitSingle:
    case RequestType::kSubmitSweep:
      // A wait-mode submit's job dies with the connection (the server
      // cancels on disconnect), so resending cannot double-run it. An
      // async submit's ack can be lost *after* the job was enqueued —
      // resending could duplicate the job, so it is not retry-safe.
      return request.wait;
    case RequestType::kUploadBegin:
    case RequestType::kUploadChunk:
    case RequestType::kUploadCommit:
      // Upload sessions are connection-scoped server state: a retry over a
      // fresh connection targets a session that no longer exists (begin) or
      // replays an offset the session already advanced past (chunk/commit).
      return false;
    case RequestType::kRegisterDataset:
    case RequestType::kListDatasets:
    case RequestType::kEvictDataset:
    case RequestType::kEvictResult:
    case RequestType::kStatus:
    case RequestType::kCancel:
    case RequestType::kMetrics:
    case RequestType::kHealth:
      return true;
  }
  return true;
}

const char* RequestTypeName(RequestType type) {
  switch (type) {
    case RequestType::kRegisterDataset: return "register_dataset";
    case RequestType::kUploadBegin: return "upload_begin";
    case RequestType::kUploadChunk: return "upload_chunk";
    case RequestType::kUploadCommit: return "upload_commit";
    case RequestType::kListDatasets: return "list_datasets";
    case RequestType::kEvictDataset: return "evict_dataset";
    case RequestType::kEvictResult: return "evict_result";
    case RequestType::kSubmitSingle: return "submit_single";
    case RequestType::kSubmitSweep: return "submit_sweep";
    case RequestType::kStatus: return "status";
    case RequestType::kCancel: return "cancel";
    case RequestType::kMetrics: return "metrics";
    case RequestType::kHealth: return "health";
  }
  return "?";
}

namespace {

Status RequestTypeFromName(const std::string& name, RequestType* out) {
  for (const RequestType type :
       {RequestType::kRegisterDataset, RequestType::kUploadBegin,
        RequestType::kUploadChunk, RequestType::kUploadCommit,
        RequestType::kListDatasets, RequestType::kEvictDataset,
        RequestType::kEvictResult, RequestType::kSubmitSingle,
        RequestType::kSubmitSweep,
        RequestType::kStatus, RequestType::kCancel, RequestType::kMetrics,
        RequestType::kHealth}) {
    if (name == RequestTypeName(type)) {
      *out = type;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown request type: " + name);
}

}  // namespace

// --- requests ----------------------------------------------------------------

Status EncodeRequest(const Request& request, std::string* out) {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  JsonValue v = JsonValue::Object();
  v.Set("type", JsonValue::Str(RequestTypeName(request.type)));
  switch (request.type) {
    case RequestType::kRegisterDataset: {
      if (request.dataset_id.empty()) {
        return Status::InvalidArgument("register_dataset needs dataset_id");
      }
      if (request.has_inline_data == request.has_generate) {
        return Status::InvalidArgument(
            "register_dataset needs exactly one of inline data / generate");
      }
      v.Set("id", JsonValue::Str(request.dataset_id));
      if (request.has_inline_data) {
        // Inline values serialize as "%.17g" doubles — up to ~25 bytes per
        // float32 plus the separator, a ~10x blowup over the binary size.
        // A frame over kMaxFrameBytes would only fail later, deep inside
        // WriteFrame, after the giant JSON string was already built; check
        // the worst-case encoded size up front and point the caller at the
        // chunked path that exists for exactly this case.
        constexpr int64_t kMaxEncodedBytesPerValue = 26;
        constexpr int64_t kHeaderSlackBytes = 512;
        const int64_t estimated =
            request.inline_data.size() * kMaxEncodedBytesPerValue +
            static_cast<int64_t>(request.dataset_id.size()) +
            kHeaderSlackBytes;
        if (estimated > static_cast<int64_t>(kMaxFrameBytes)) {
          return Status::InvalidArgument(
              "register_dataset inline values for " +
              std::to_string(request.inline_data.size()) +
              " floats would exceed the frame limit (" +
              std::to_string(kMaxFrameBytes) +
              " bytes); use the chunked binary upload path instead "
              "(upload_begin/upload_chunk/upload_commit, "
              "ProclusClient::UploadDataset)");
        }
        v.Set("rows", JsonValue::Int(request.inline_data.rows()));
        v.Set("cols", JsonValue::Int(request.inline_data.cols()));
        JsonValue values = JsonValue::Array();
        const float* data = request.inline_data.data();
        const int64_t size = request.inline_data.size();
        values.array_value.reserve(static_cast<size_t>(size));
        for (int64_t i = 0; i < size; ++i) {
          values.Append(JsonValue::Double(static_cast<double>(data[i])));
        }
        v.Set("values", std::move(values));
      } else {
        JsonValue gen = JsonValue::Object();
        gen.Set("n", JsonValue::Int(request.generate.n));
        gen.Set("d", JsonValue::Int(request.generate.d));
        gen.Set("clusters", JsonValue::Int(request.generate.clusters));
        gen.Set("seed",
                JsonValue::Int(static_cast<int64_t>(request.generate.seed)));
        gen.Set("normalize", JsonValue::Bool(request.generate.normalize));
        v.Set("generate", std::move(gen));
      }
      break;
    }
    case RequestType::kUploadBegin:
      if (request.dataset_id.empty()) {
        return Status::InvalidArgument("upload_begin needs dataset_id");
      }
      if (request.upload_rows <= 0 || request.upload_cols <= 0) {
        return Status::InvalidArgument(
            "upload_begin needs rows > 0 and cols > 0");
      }
      v.Set("id", JsonValue::Str(request.dataset_id));
      v.Set("rows", JsonValue::Int(request.upload_rows));
      v.Set("cols", JsonValue::Int(request.upload_cols));
      break;
    case RequestType::kUploadChunk:
      if (request.upload_session == 0) {
        return Status::InvalidArgument("upload_chunk needs a session");
      }
      if (request.chunk_payload.empty()) {
        return Status::InvalidArgument("upload_chunk needs payload bytes");
      }
      if (request.chunk_payload.size() > kMaxFrameBytes) {
        return Status::InvalidArgument(
            "upload_chunk payload exceeds the frame limit; send smaller "
            "chunks");
      }
      v.Set("session",
            JsonValue::Int(static_cast<int64_t>(request.upload_session)));
      v.Set("offset", JsonValue::Int(request.upload_offset));
      v.Set("size", JsonValue::Int(
                        static_cast<int64_t>(request.chunk_payload.size())));
      break;
    case RequestType::kUploadCommit:
      if (request.upload_session == 0) {
        return Status::InvalidArgument("upload_commit needs a session");
      }
      v.Set("session",
            JsonValue::Int(static_cast<int64_t>(request.upload_session)));
      v.Set("crc32",
            JsonValue::Int(static_cast<int64_t>(request.upload_crc32)));
      break;
    case RequestType::kListDatasets:
      break;
    case RequestType::kEvictDataset:
      if (request.dataset_id.empty()) {
        return Status::InvalidArgument("evict_dataset needs dataset_id");
      }
      v.Set("id", JsonValue::Str(request.dataset_id));
      break;
    case RequestType::kEvictResult:
      if (request.cache_key.empty()) {
        return Status::InvalidArgument("evict_result needs cache_key");
      }
      v.Set("cache_key", JsonValue::Str(request.cache_key));
      break;
    case RequestType::kSubmitSingle:
    case RequestType::kSubmitSweep: {
      if (request.dataset_id.empty()) {
        return Status::InvalidArgument("submit needs dataset_id");
      }
      v.Set("dataset_id", JsonValue::Str(request.dataset_id));
      v.Set("params", EncodeParams(request.params));
      v.Set("options", EncodeOptions(request.options));
      v.Set("priority",
            JsonValue::Str(request.priority ==
                                   service::JobPriority::kInteractive
                               ? "interactive"
                               : "bulk"));
      if (request.timeout_ms > 0.0) {
        v.Set("timeout_ms", JsonValue::Double(request.timeout_ms));
      }
      v.Set("wait", JsonValue::Bool(request.wait));
      if (request.type == RequestType::kSubmitSweep) {
        if (request.sweep.settings.empty()) {
          return Status::InvalidArgument("submit_sweep needs settings");
        }
        JsonValue settings = JsonValue::Array();
        for (const core::ParamSetting& s : request.sweep.settings) {
          JsonValue setting = JsonValue::Object();
          setting.Set("k", JsonValue::Int(s.k));
          setting.Set("l", JsonValue::Int(s.l));
          settings.Append(std::move(setting));
        }
        v.Set("settings", std::move(settings));
        v.Set("reuse", JsonValue::Str(ReuseToken(request.sweep.reuse)));
        if (request.sweep.max_shards != 0) {
          v.Set("max_shards", JsonValue::Int(request.sweep.max_shards));
        }
      }
      break;
    }
    case RequestType::kStatus:
      v.Set("job_id", JsonValue::Int(static_cast<int64_t>(request.job_id)));
      v.Set("include_result", JsonValue::Bool(request.include_result));
      break;
    case RequestType::kCancel:
      v.Set("job_id", JsonValue::Int(static_cast<int64_t>(request.job_id)));
      break;
    case RequestType::kMetrics:
    case RequestType::kHealth:
      break;
  }
  *out = json::Dump(v);
  return Status::OK();
}

Status DecodeRequest(const std::string& payload, Request* out) {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  *out = Request();
  JsonValue v;
  std::string error;
  if (!json::Parse(payload, &v, &error)) {
    return Status::InvalidArgument("malformed request JSON: " + error);
  }
  if (!v.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const JsonValue* type = v.Find("type");
  if (type == nullptr || !type->is_string()) {
    return Status::InvalidArgument("request needs a string \"type\"");
  }
  PROCLUS_RETURN_NOT_OK(RequestTypeFromName(type->string_value, &out->type));

  switch (out->type) {
    case RequestType::kRegisterDataset: {
      if (const JsonValue* f = v.Find("id")) out->dataset_id = f->AsString();
      if (out->dataset_id.empty()) {
        return Status::InvalidArgument("register_dataset needs \"id\"");
      }
      const JsonValue* values = v.Find("values");
      const JsonValue* generate = v.Find("generate");
      if ((values != nullptr) == (generate != nullptr)) {
        return Status::InvalidArgument(
            "register_dataset needs exactly one of \"values\"/\"generate\"");
      }
      if (values != nullptr) {
        const int64_t rows =
            v.Find("rows") != nullptr ? v.Find("rows")->AsInt() : 0;
        const int64_t cols =
            v.Find("cols") != nullptr ? v.Find("cols")->AsInt() : 0;
        if (rows <= 0 || cols <= 0 || !values->is_array()) {
          return Status::InvalidArgument(
              "register_dataset inline data needs rows > 0, cols > 0 and a "
              "\"values\" array");
        }
        if (static_cast<int64_t>(values->array_value.size()) != rows * cols) {
          return Status::InvalidArgument(
              "register_dataset \"values\" size != rows*cols");
        }
        out->has_inline_data = true;
        out->inline_data = data::Matrix(rows, cols);
        float* data = out->inline_data.data();
        for (int64_t i = 0; i < rows * cols; ++i) {
          data[i] = static_cast<float>(values->array_value[i].AsDouble());
        }
      } else {
        if (!generate->is_object()) {
          return Status::InvalidArgument(
              "register_dataset \"generate\" must be an object");
        }
        out->has_generate = true;
        if (const JsonValue* f = generate->Find("n")) out->generate.n = f->AsInt(out->generate.n);
        if (const JsonValue* f = generate->Find("d")) out->generate.d = static_cast<int>(f->AsInt(out->generate.d));
        if (const JsonValue* f = generate->Find("clusters")) out->generate.clusters = static_cast<int>(f->AsInt(out->generate.clusters));
        if (const JsonValue* f = generate->Find("seed")) out->generate.seed = static_cast<uint64_t>(f->AsInt(static_cast<int64_t>(out->generate.seed)));
        if (const JsonValue* f = generate->Find("normalize")) out->generate.normalize = f->AsBool(true);
        if (out->generate.n <= 0 || out->generate.d <= 0 ||
            out->generate.clusters <= 0) {
          return Status::InvalidArgument(
              "register_dataset generate needs n, d, clusters > 0");
        }
      }
      break;
    }
    case RequestType::kUploadBegin: {
      if (const JsonValue* f = v.Find("id")) out->dataset_id = f->AsString();
      if (out->dataset_id.empty()) {
        return Status::InvalidArgument("upload_begin needs \"id\"");
      }
      if (const JsonValue* f = v.Find("rows")) out->upload_rows = f->AsInt();
      if (const JsonValue* f = v.Find("cols")) out->upload_cols = f->AsInt();
      if (out->upload_rows <= 0 || out->upload_cols <= 0) {
        return Status::InvalidArgument(
            "upload_begin needs rows > 0 and cols > 0");
      }
      break;
    }
    case RequestType::kUploadChunk: {
      if (const JsonValue* f = v.Find("session")) {
        out->upload_session = static_cast<uint64_t>(f->AsInt());
      }
      if (out->upload_session == 0) {
        return Status::InvalidArgument(
            "upload_chunk needs a nonzero \"session\"");
      }
      if (const JsonValue* f = v.Find("offset")) {
        out->upload_offset = f->AsInt();
      }
      if (out->upload_offset < 0) {
        return Status::InvalidArgument("upload_chunk offset must be >= 0");
      }
      if (const JsonValue* f = v.Find("size")) {
        out->chunk_declared_bytes = f->AsInt();
      }
      if (out->chunk_declared_bytes <= 0 ||
          out->chunk_declared_bytes > static_cast<int64_t>(kMaxFrameBytes)) {
        return Status::InvalidArgument(
            "upload_chunk needs a \"size\" in (0, frame limit]");
      }
      break;
    }
    case RequestType::kUploadCommit: {
      if (const JsonValue* f = v.Find("session")) {
        out->upload_session = static_cast<uint64_t>(f->AsInt());
      }
      if (out->upload_session == 0) {
        return Status::InvalidArgument(
            "upload_commit needs a nonzero \"session\"");
      }
      if (const JsonValue* f = v.Find("crc32")) {
        out->upload_crc32 = static_cast<uint32_t>(f->AsInt());
      }
      break;
    }
    case RequestType::kListDatasets:
      break;
    case RequestType::kEvictDataset:
      if (const JsonValue* f = v.Find("id")) out->dataset_id = f->AsString();
      if (out->dataset_id.empty()) {
        return Status::InvalidArgument("evict_dataset needs \"id\"");
      }
      break;
    case RequestType::kEvictResult:
      if (const JsonValue* f = v.Find("cache_key")) {
        out->cache_key = f->AsString();
      }
      if (out->cache_key.empty()) {
        return Status::InvalidArgument("evict_result needs \"cache_key\"");
      }
      break;
    case RequestType::kSubmitSingle:
    case RequestType::kSubmitSweep: {
      if (const JsonValue* f = v.Find("dataset_id")) {
        out->dataset_id = f->AsString();
      }
      if (out->dataset_id.empty()) {
        return Status::InvalidArgument("submit needs \"dataset_id\"");
      }
      DecodeParams(v.Find("params"), &out->params);
      PROCLUS_RETURN_NOT_OK(DecodeOptions(v.Find("options"), &out->options));
      if (const JsonValue* f = v.Find("priority")) {
        const std::string token = f->AsString();
        if (token == "interactive") {
          out->priority = service::JobPriority::kInteractive;
        } else if (token == "bulk" || token.empty()) {
          out->priority = service::JobPriority::kBulk;
        } else {
          return Status::InvalidArgument("unknown priority: " + token);
        }
      }
      if (const JsonValue* f = v.Find("timeout_ms")) {
        out->timeout_ms = f->AsDouble();
        if (out->timeout_ms < 0.0) {
          return Status::InvalidArgument("timeout_ms must be >= 0");
        }
      }
      if (const JsonValue* f = v.Find("wait")) out->wait = f->AsBool(true);
      if (out->type == RequestType::kSubmitSweep) {
        const JsonValue* settings = v.Find("settings");
        if (settings == nullptr || !settings->is_array() ||
            settings->array_value.empty()) {
          return Status::InvalidArgument(
              "submit_sweep needs a non-empty \"settings\" array");
        }
        for (const JsonValue& setting : settings->array_value) {
          core::ParamSetting s;
          if (const JsonValue* f = setting.Find("k")) s.k = static_cast<int>(f->AsInt(s.k));
          if (const JsonValue* f = setting.Find("l")) s.l = static_cast<int>(f->AsInt(s.l));
          out->sweep.settings.push_back(s);
        }
        if (const JsonValue* f = v.Find("reuse")) {
          PROCLUS_RETURN_NOT_OK(
              ReuseFromToken(f->AsString(), &out->sweep.reuse));
        }
        if (const JsonValue* f = v.Find("max_shards")) {
          out->sweep.max_shards = static_cast<int>(f->AsInt(0));
          if (out->sweep.max_shards < 0) {
            return Status::InvalidArgument("max_shards must be >= 0");
          }
        }
      }
      break;
    }
    case RequestType::kStatus:
      if (const JsonValue* f = v.Find("job_id")) {
        out->job_id = static_cast<uint64_t>(f->AsInt());
      }
      if (out->job_id == 0) {
        return Status::InvalidArgument("status needs a nonzero \"job_id\"");
      }
      if (const JsonValue* f = v.Find("include_result")) {
        out->include_result = f->AsBool(true);
      }
      break;
    case RequestType::kCancel:
      if (const JsonValue* f = v.Find("job_id")) {
        out->job_id = static_cast<uint64_t>(f->AsInt());
      }
      if (out->job_id == 0) {
        return Status::InvalidArgument("cancel needs a nonzero \"job_id\"");
      }
      break;
    case RequestType::kMetrics:
    case RequestType::kHealth:
      break;
  }
  return Status::OK();
}

// --- responses ---------------------------------------------------------------

Status WireError::ToStatus() const {
  if (code == StatusCode::kOk) return Status::OK();
  return Status(code, message);
}

WireError WireError::FromStatus(const Status& status) {
  WireError error;
  error.code = status.code();
  error.message = status.message();
  error.retryable = IsRetryableCode(status.code());
  return error;
}

Status EncodeResponse(const Response& response, std::string* out) {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  JsonValue v = JsonValue::Object();
  v.Set("type", JsonValue::Str("response"));
  v.Set("request", JsonValue::Str(RequestTypeName(response.request)));
  v.Set("ok", JsonValue::Bool(response.ok));
  if (!response.ok) {
    JsonValue error = JsonValue::Object();
    error.Set("code", JsonValue::Str(WireCodeName(response.error.code)));
    error.Set("message", JsonValue::Str(response.error.message));
    error.Set("retryable", JsonValue::Bool(response.error.retryable));
    v.Set("error", std::move(error));
  }
  if (response.job_id != 0) {
    v.Set("job_id", JsonValue::Int(static_cast<int64_t>(response.job_id)));
  }
  if (!response.phase.empty()) {
    v.Set("phase", JsonValue::Str(response.phase));
  }
  if (response.has_result) {
    v.Set("result", EncodeWireJobResult(response.result));
  }
  if (response.request == RequestType::kMetrics && response.ok) {
    v.Set("metrics", response.metrics);
  }
  if (response.has_health) {
    const WireHealth& h = response.health;
    JsonValue health = JsonValue::Object();
    health.Set("queue_depth", JsonValue::Int(h.queue_depth));
    health.Set("queue_capacity", JsonValue::Int(h.queue_capacity));
    health.Set("active_connections", JsonValue::Int(h.active_connections));
    health.Set("max_connections", JsonValue::Int(h.max_connections));
    health.Set("devices_total", JsonValue::Int(h.devices_total));
    health.Set("devices_leased", JsonValue::Int(h.devices_leased));
    health.Set("draining", JsonValue::Bool(h.draining));
    if (h.faults_injected_total > 0) {
      health.Set("faults_injected_total",
                 JsonValue::Int(h.faults_injected_total));
    }
    health.Set("store_datasets", JsonValue::Int(h.store_datasets));
    health.Set("store_resident_bytes",
               JsonValue::Int(h.store_resident_bytes));
    health.Set("store_evictions", JsonValue::Int(h.store_evictions));
    health.Set("store_upload_bytes_total",
               JsonValue::Int(h.store_upload_bytes_total));
    health.Set("cache_entries", JsonValue::Int(h.cache_entries));
    health.Set("cache_bytes", JsonValue::Int(h.cache_bytes));
    health.Set("cache_hits", JsonValue::Int(h.cache_hits));
    health.Set("cache_misses", JsonValue::Int(h.cache_misses));
    health.Set("cache_inserts", JsonValue::Int(h.cache_inserts));
    health.Set("cache_evictions", JsonValue::Int(h.cache_evictions));
    health.Set("cache_dedup_joins", JsonValue::Int(h.cache_dedup_joins));
    v.Set("health", std::move(health));
  }
  if (response.upload_session != 0) {
    v.Set("session",
          JsonValue::Int(static_cast<int64_t>(response.upload_session)));
  }
  if (!response.dataset_hash.empty()) {
    v.Set("hash", JsonValue::Str(response.dataset_hash));
    v.Set("deduped", JsonValue::Bool(response.deduped));
  }
  if (response.request == RequestType::kEvictResult && response.ok) {
    v.Set("evicted", JsonValue::Bool(response.evicted));
  }
  if (response.has_datasets) {
    JsonValue datasets = JsonValue::Array();
    for (const WireDatasetInfo& info : response.datasets) {
      JsonValue d = JsonValue::Object();
      d.Set("id", JsonValue::Str(info.id));
      d.Set("hash", JsonValue::Str(info.hash));
      d.Set("rows", JsonValue::Int(info.rows));
      d.Set("cols", JsonValue::Int(info.cols));
      d.Set("bytes", JsonValue::Int(info.bytes));
      d.Set("resident", JsonValue::Bool(info.resident));
      d.Set("pinned", JsonValue::Bool(info.pinned));
      datasets.Append(std::move(d));
    }
    v.Set("datasets", std::move(datasets));
  }
  *out = json::Dump(v);
  return Status::OK();
}

Status DecodeResponse(const std::string& payload, Response* out) {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  *out = Response();
  JsonValue v;
  std::string error;
  if (!json::Parse(payload, &v, &error)) {
    return Status::InvalidArgument("malformed response JSON: " + error);
  }
  if (!v.is_object()) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  if (const JsonValue* f = v.Find("request")) {
    // Tolerant: an unknown echoed type only matters for logging.
    RequestType type;
    if (RequestTypeFromName(f->AsString(), &type).ok()) out->request = type;
  }
  if (const JsonValue* f = v.Find("ok")) out->ok = f->AsBool();
  if (!out->ok) {
    if (const JsonValue* e = v.Find("error"); e != nullptr && e->is_object()) {
      if (const JsonValue* f = e->Find("code")) {
        out->error.code = WireCodeFromName(f->AsString());
      }
      if (const JsonValue* f = e->Find("message")) {
        out->error.message = f->AsString();
      }
      if (const JsonValue* f = e->Find("retryable")) {
        out->error.retryable = f->AsBool();
      }
    } else {
      out->error.code = StatusCode::kInternal;
      out->error.message = "response carried no error object";
    }
  }
  if (const JsonValue* f = v.Find("job_id")) {
    out->job_id = static_cast<uint64_t>(f->AsInt());
  }
  if (const JsonValue* f = v.Find("phase")) out->phase = f->AsString();
  if (const JsonValue* f = v.Find("result"); f != nullptr && f->is_object()) {
    out->has_result = true;
    PROCLUS_RETURN_NOT_OK(DecodeWireJobResult(*f, &out->result));
  }
  if (const JsonValue* f = v.Find("metrics")) out->metrics = *f;
  if (const JsonValue* h = v.Find("health"); h != nullptr && h->is_object()) {
    out->has_health = true;
    WireHealth& health = out->health;
    if (const JsonValue* f = h->Find("queue_depth")) health.queue_depth = f->AsInt();
    if (const JsonValue* f = h->Find("queue_capacity")) health.queue_capacity = f->AsInt();
    if (const JsonValue* f = h->Find("active_connections")) health.active_connections = static_cast<int>(f->AsInt());
    if (const JsonValue* f = h->Find("max_connections")) health.max_connections = static_cast<int>(f->AsInt());
    if (const JsonValue* f = h->Find("devices_total")) health.devices_total = static_cast<int>(f->AsInt());
    if (const JsonValue* f = h->Find("devices_leased")) health.devices_leased = static_cast<int>(f->AsInt());
    if (const JsonValue* f = h->Find("draining")) health.draining = f->AsBool();
    if (const JsonValue* f = h->Find("faults_injected_total")) {
      health.faults_injected_total = f->AsInt();
    }
    if (const JsonValue* f = h->Find("store_datasets")) health.store_datasets = f->AsInt();
    if (const JsonValue* f = h->Find("store_resident_bytes")) health.store_resident_bytes = f->AsInt();
    if (const JsonValue* f = h->Find("store_evictions")) health.store_evictions = f->AsInt();
    if (const JsonValue* f = h->Find("store_upload_bytes_total")) {
      health.store_upload_bytes_total = f->AsInt();
    }
    if (const JsonValue* f = h->Find("cache_entries")) health.cache_entries = f->AsInt();
    if (const JsonValue* f = h->Find("cache_bytes")) health.cache_bytes = f->AsInt();
    if (const JsonValue* f = h->Find("cache_hits")) health.cache_hits = f->AsInt();
    if (const JsonValue* f = h->Find("cache_misses")) health.cache_misses = f->AsInt();
    if (const JsonValue* f = h->Find("cache_inserts")) health.cache_inserts = f->AsInt();
    if (const JsonValue* f = h->Find("cache_evictions")) health.cache_evictions = f->AsInt();
    if (const JsonValue* f = h->Find("cache_dedup_joins")) health.cache_dedup_joins = f->AsInt();
  }
  if (const JsonValue* f = v.Find("session")) {
    out->upload_session = static_cast<uint64_t>(f->AsInt());
  }
  if (const JsonValue* f = v.Find("hash")) out->dataset_hash = f->AsString();
  if (const JsonValue* f = v.Find("deduped")) out->deduped = f->AsBool();
  if (const JsonValue* f = v.Find("evicted")) out->evicted = f->AsBool();
  if (const JsonValue* d = v.Find("datasets"); d != nullptr && d->is_array()) {
    out->has_datasets = true;
    out->datasets.reserve(d->array_value.size());
    for (const JsonValue& element : d->array_value) {
      WireDatasetInfo info;
      if (const JsonValue* f = element.Find("id")) info.id = f->AsString();
      if (const JsonValue* f = element.Find("hash")) info.hash = f->AsString();
      if (const JsonValue* f = element.Find("rows")) info.rows = f->AsInt();
      if (const JsonValue* f = element.Find("cols")) info.cols = f->AsInt();
      if (const JsonValue* f = element.Find("bytes")) info.bytes = f->AsInt();
      if (const JsonValue* f = element.Find("resident")) info.resident = f->AsBool();
      if (const JsonValue* f = element.Find("pinned")) info.pinned = f->AsBool();
      out->datasets.push_back(std::move(info));
    }
  }
  return Status::OK();
}

}  // namespace proclus::net
