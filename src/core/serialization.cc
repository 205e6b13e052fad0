#include "core/serialization.h"

#include <climits>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace proclus::core {
namespace {

using json::JsonValue;

JsonValue EncodeIntArray(const std::vector<int>& values) {
  JsonValue v = JsonValue::Array();
  for (const int value : values) v.Append(JsonValue::Int(value));
  return v;
}

// Reads an array of ints; false when `v` is missing, not an array, or holds
// anything but integers that fit an int.
bool DecodeIntArray(const JsonValue* v, std::vector<int>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->clear();
  out->reserve(v->array_value.size());
  for (const JsonValue& element : v->array_value) {
    if (!element.is_int || element.int_value < INT_MIN ||
        element.int_value > INT_MAX) {
      return false;
    }
    out->push_back(static_cast<int>(element.int_value));
  }
  return true;
}

}  // namespace

JsonValue EncodeProclusResult(const ProclusResult& result) {
  JsonValue v = JsonValue::Object();
  v.Set("medoids", EncodeIntArray(result.medoids));
  JsonValue dims = JsonValue::Array();
  for (const std::vector<int>& cluster_dims : result.dimensions) {
    dims.Append(EncodeIntArray(cluster_dims));
  }
  v.Set("dimensions", std::move(dims));
  v.Set("assignment", EncodeIntArray(result.assignment));
  v.Set("iterative_cost", JsonValue::Double(result.iterative_cost));
  v.Set("refined_cost", JsonValue::Double(result.refined_cost));
  return v;
}

Status DecodeProclusResult(const JsonValue& value, ProclusResult* result) {
  if (result == nullptr) {
    return Status::InvalidArgument("result must not be null");
  }
  ProclusResult& r = *result;
  r = ProclusResult();
  const JsonValue* dims = value.Find("dimensions");
  const JsonValue* iterative_cost = value.Find("iterative_cost");
  const JsonValue* refined_cost = value.Find("refined_cost");
  if (!DecodeIntArray(value.Find("medoids"), &r.medoids) ||
      !DecodeIntArray(value.Find("assignment"), &r.assignment) ||
      dims == nullptr || !dims->is_array() || iterative_cost == nullptr ||
      !iterative_cost->is_number() || refined_cost == nullptr ||
      !refined_cost->is_number()) {
    return Status::InvalidArgument(
        "not a result: want an object with integer arrays medoids, "
        "dimensions and assignment and numbers iterative_cost and "
        "refined_cost");
  }
  const int k = r.k();
  if (dims->array_value.size() != r.medoids.size()) {
    return Status::InvalidArgument(
        "result has mismatched medoid/dimension counts");
  }
  r.dimensions.resize(k);
  for (int i = 0; i < k; ++i) {
    if (!DecodeIntArray(&dims->array_value[i], &r.dimensions[i]) ||
        r.dimensions[i].empty()) {
      return Status::InvalidArgument("cluster without dimensions");
    }
  }
  for (const int c : r.assignment) {
    if (c != kOutlier && (c < 0 || c >= k)) {
      return Status::InvalidArgument("assignment value out of range");
    }
  }
  r.iterative_cost = iterative_cost->number_value;
  r.refined_cost = refined_cost->number_value;
  return Status::OK();
}

void EncodeResultList(const std::vector<ProclusResult>& results,
                      const std::vector<double>& setting_seconds,
                      JsonValue* object) {
  JsonValue list = JsonValue::Array();
  for (const ProclusResult& r : results) list.Append(EncodeProclusResult(r));
  object->Set("results", std::move(list));
  if (!setting_seconds.empty()) {
    JsonValue seconds = JsonValue::Array();
    for (const double s : setting_seconds) seconds.Append(JsonValue::Double(s));
    object->Set("setting_seconds", std::move(seconds));
  }
}

Status DecodeResultList(const JsonValue& object,
                        std::vector<ProclusResult>* results,
                        std::vector<double>* setting_seconds) {
  const JsonValue* list = object.Find("results");
  const JsonValue* seconds = object.Find("setting_seconds");
  if ((list != nullptr && !list->is_array()) ||
      (seconds != nullptr && !seconds->is_array())) {
    return Status::InvalidArgument(
        "results and setting_seconds must be arrays");
  }
  results->assign(list == nullptr ? 0 : list->array_value.size(), {});
  for (size_t i = 0; i < results->size(); ++i) {
    PROCLUS_RETURN_NOT_OK(
        DecodeProclusResult(list->array_value[i], &(*results)[i]));
  }
  setting_seconds->clear();
  if (seconds == nullptr) return Status::OK();
  for (const JsonValue& s : seconds->array_value) {
    if (!s.is_number()) {
      return Status::InvalidArgument("setting_seconds must hold numbers");
    }
    setting_seconds->push_back(s.number_value);
  }
  return Status::OK();
}

Status WriteResultToFile(const ProclusResult& result,
                         const std::string& path) {
  if (result.dimensions.size() != result.medoids.size()) {
    return Status::InvalidArgument(
        "result has mismatched medoid/dimension counts");
  }
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << json::Dump(EncodeProclusResult(result)) << '\n';
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Status ReadResultFromFile(const std::string& path, ProclusResult* result) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  JsonValue value;
  std::string error;
  if (!json::Parse(text.str(), &value, &error)) {
    return Status::IoError("malformed result file " + path + ": " + error);
  }
  return DecodeProclusResult(value, result);
}

}  // namespace proclus::core
