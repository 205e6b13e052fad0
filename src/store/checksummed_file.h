#ifndef PROCLUS_STORE_CHECKSUMMED_FILE_H_
#define PROCLUS_STORE_CHECKSUMMED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace proclus::store {

// The one on-disk container of the repo: a fixed 32-byte little-endian
// header followed by an opaque payload. `.pds` datasets (pds_format.h) and
// `.pcr` cached results (service/result_cache.h) are thin layers over it
// that give the two header words their meaning.
//
//   offset  size  field
//   0       4     magic (format-specific, e.g. "PDS1")
//   4       4     uint32 format version
//   8       8     uint64 word0 (format-specific)
//   16      8     uint64 word1 (format-specific)
//   24      4     uint32 CRC32 (IEEE) of the payload bytes
//   28      4     reserved, must be zero
//   32      ...   payload
//
// The header is a multiple of 16 bytes so a mapped payload is suitably
// aligned for float access on every platform we target.
inline constexpr size_t kChecksummedHeaderBytes = 32;

// Identifies one layered format.
struct ChecksummedFormat {
  const char* magic;      // exactly 4 bytes, no terminator needed
  uint32_t version;
  const char* extension;  // ".pds"; names the format in error messages
  // Checks the header words against the payload size the file really
  // holds. Runs before the CRC pass, so a header that lies about its size
  // fails with a size message.
  Status (*check_words)(uint64_t word0, uint64_t word1, size_t payload_bytes,
                        const std::string& path);
};

// A verified file: its header words and a read-only view of the payload,
// which stays valid while `mapping` (or any copy of it) is alive.
struct ChecksummedFile {
  uint64_t word0 = 0;
  uint64_t word1 = 0;
  const unsigned char* payload = nullptr;
  size_t payload_bytes = 0;
  std::shared_ptr<const void> mapping;
};

// Writes header + payload to a `path + ".tmp"` sibling and renames it into
// place, so a crashed writer never leaves a half-written file under the
// final name.
Status WriteChecksummedFile(const ChecksummedFormat& format, uint64_t word0,
                            uint64_t word1, const void* payload,
                            size_t payload_bytes, const std::string& path);

// Maps the file at `path` read-only and verifies magic, version, reserved
// bytes, the format's word check and the payload CRC32, in that order. The
// payload length is the file's real size minus the header — never a header
// claim — so a lying header cannot make a reader over-allocate. kIoError
// with a descriptive message on any mismatch.
Status ReadChecksummedFile(const ChecksummedFormat& format,
                           const std::string& path, ChecksummedFile* out);

// The content-addressed name of `hash` in `dir`: `<dir>/<016x hash><ext>`.
std::string ContentAddressedPath(const std::string& dir, uint64_t hash,
                                 const char* extension);

}  // namespace proclus::store

#endif  // PROCLUS_STORE_CHECKSUMMED_FILE_H_
