#include "store/pds_format.h"

#include <cstdint>
#include <string>
#include <utility>

#include "common/macros.h"

namespace proclus::store {
namespace {

// Words: rows, cols. The payload must hold exactly rows x cols floats.
Status CheckShape(uint64_t word0, uint64_t word1, size_t payload_bytes,
                  const std::string& path) {
  const auto rows = static_cast<int64_t>(word0);
  const auto cols = static_cast<int64_t>(word1);
  if (rows < 0 || cols < 0 ||
      (cols > 0 && rows > (INT64_MAX / 4) / cols)) {
    return Status::IoError("corrupt .pds header (bad shape " +
                           std::to_string(rows) + "x" + std::to_string(cols) +
                           "): " + path);
  }
  const int64_t expected = rows * cols * 4;
  if (static_cast<int64_t>(payload_bytes) != expected) {
    return Status::IoError(
        "truncated .pds file: " + path + " (" +
        std::to_string(kPdsHeaderBytes + payload_bytes) +
        " bytes, expected " + std::to_string(kPdsHeaderBytes + expected) +
        ")");
  }
  return Status::OK();
}

constexpr ChecksummedFormat kPds = {"PDS1", 1, kPdsExtension, &CheckShape};

}  // namespace

Status WritePds(const data::Matrix& points, const std::string& path) {
  return WriteChecksummedFile(
      kPds, static_cast<uint64_t>(points.rows()),
      static_cast<uint64_t>(points.cols()), points.data(),
      static_cast<size_t>(points.size()) * 4, path);
}

Status ReadPds(const std::string& path, data::Matrix* points) {
  PROCLUS_CHECK(points != nullptr);
  data::Matrix mapped;
  PROCLUS_RETURN_NOT_OK(MapPds(path, &mapped));
  *points = mapped.Materialize();
  return Status::OK();
}

Status MapPds(const std::string& path, data::Matrix* points) {
  PROCLUS_CHECK(points != nullptr);
  ChecksummedFile file;
  PROCLUS_RETURN_NOT_OK(ReadChecksummedFile(kPds, path, &file));
  *points = data::Matrix::Borrowed(
      static_cast<int64_t>(file.word0), static_cast<int64_t>(file.word1),
      reinterpret_cast<const float*>(file.payload), std::move(file.mapping));
  return Status::OK();
}

}  // namespace proclus::store
