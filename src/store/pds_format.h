#ifndef PROCLUS_STORE_PDS_FORMAT_H_
#define PROCLUS_STORE_PDS_FORMAT_H_

#include <cstddef>
#include <string>

#include "common/status.h"
#include "data/matrix.h"
#include "store/checksummed_file.h"

namespace proclus::store {

// The `.pds` ("proclus dataset") binary file format, version 1: a
// checksummed file (checksummed_file.h) with magic "PDS1" whose header words
// are int64 rows and int64 cols, and whose payload is the row-major float32
// matrix, little-endian — exactly 4*rows*cols bytes. Readers verify the
// magic, version, shape, file size, and payload checksum before serving any
// values; a corrupted file is rejected with kIoError rather than loaded.
inline constexpr size_t kPdsHeaderBytes = kChecksummedHeaderBytes;
inline constexpr const char* kPdsExtension = ".pds";

// Writes `points` to `path` in `.pds` format, atomically (sibling `.tmp`
// plus rename).
Status WritePds(const data::Matrix& points, const std::string& path);

// Loads the `.pds` file at `path` into an owned matrix (a copy of the
// verified mapping). kIoError with a descriptive message on any mismatch.
Status ReadPds(const std::string& path, data::Matrix* points);

// Maps the `.pds` file at `path` read-only and returns a zero-copy borrowed
// matrix backed by the mapping (the mapping is released when the last copy
// of the matrix is destroyed). The payload checksum is verified once, at map
// time.
Status MapPds(const std::string& path, data::Matrix* points);

}  // namespace proclus::store

#endif  // PROCLUS_STORE_PDS_FORMAT_H_
