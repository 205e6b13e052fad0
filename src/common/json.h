#ifndef PROCLUS_COMMON_JSON_H_
#define PROCLUS_COMMON_JSON_H_

// Small shared JSON implementation: a strict recursive-descent parser and a
// compact writer over one value type. This is the single JSON code path in
// the repo — the net/ wire codec encodes and decodes with it, the obs
// metrics snapshot renders through it, core/serialization.h encodes results
// with it, and the tests validate emitted JSON with it. It is not a
// general-purpose library: no streaming, no comments, ASCII-only \u
// handling.
//
// Numbers keep their integer-ness: a token without '.', 'e' or 'E' that
// fits int64 round-trips through int64_t, so job ids, seeds and counters
// survive the wire exactly; everything else uses double with enough digits
// (%.17g) to round-trip bit-identically.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace proclus::json {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  // Valid when is_int: the exact integer the number was built from/parsed
  // as. number_value carries the (possibly rounded) double view.
  bool is_int = false;
  int64_t int_value = 0;
  std::string string_value;
  std::vector<JsonValue> array_value;
  std::map<std::string, JsonValue> object_value;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  // Constructors for building values to Dump().
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value) {
    JsonValue v;
    v.kind = Kind::kBool;
    v.bool_value = value;
    return v;
  }
  static JsonValue Int(int64_t value) {
    JsonValue v;
    v.kind = Kind::kNumber;
    v.is_int = true;
    v.int_value = value;
    v.number_value = static_cast<double>(value);
    return v;
  }
  static JsonValue Double(double value) {
    JsonValue v;
    v.kind = Kind::kNumber;
    v.number_value = value;
    return v;
  }
  static JsonValue Str(std::string value) {
    JsonValue v;
    v.kind = Kind::kString;
    v.string_value = std::move(value);
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind = Kind::kObject;
    return v;
  }

  // Object member access; returns nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    const auto it = object_value.find(key);
    return it == object_value.end() ? nullptr : &it->second;
  }

  // Building helpers (no-ops only via misuse; they set the kind).
  JsonValue& Set(const std::string& key, JsonValue value) {
    kind = Kind::kObject;
    object_value[key] = std::move(value);
    return *this;
  }
  JsonValue& Append(JsonValue value) {
    kind = Kind::kArray;
    array_value.push_back(std::move(value));
    return *this;
  }

  // Typed reads with defaults, for tolerant decoding of optional fields.
  int64_t AsInt(int64_t fallback = 0) const {
    if (kind != Kind::kNumber) return fallback;
    return is_int ? int_value : static_cast<int64_t>(number_value);
  }
  double AsDouble(double fallback = 0.0) const {
    return kind == Kind::kNumber ? number_value : fallback;
  }
  bool AsBool(bool fallback = false) const {
    return kind == Kind::kBool ? bool_value : fallback;
  }
  std::string AsString(std::string fallback = {}) const {
    return kind == Kind::kString ? string_value : std::move(fallback);
  }
};

// Escapes `s` for embedding inside a JSON string literal (surrounding
// quotes not included).
std::string Escape(const std::string& s);

// Parses `text` into `*out`. Returns false (and fills `*error` with a
// message and offset if non-null) on malformed input.
bool Parse(const std::string& text, JsonValue* out,
           std::string* error = nullptr);

// Serializes `value` compactly (no whitespace). Integers print exactly;
// doubles print with %.17g so they parse back bit-identical; non-finite
// doubles degrade to 0 (JSON has no inf/nan).
std::string Dump(const JsonValue& value);
void Dump(const JsonValue& value, std::string* out);

}  // namespace proclus::json

#endif  // PROCLUS_COMMON_JSON_H_
