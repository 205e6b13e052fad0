#ifndef PROCLUS_COMMON_HASH_H_
#define PROCLUS_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace proclus {

// CRC32 (IEEE 802.3 polynomial, reflected) of `len` bytes — the checksum
// gzip and PNG use. It guards the checksummed files (store/
// checksummed_file.h) and chunked uploads. Pass a previous return value as
// `seed` to checksum data incrementally; the default seed starts afresh.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

// 64-bit FNV-1a of `len` bytes: the content address of datasets
// (DatasetStore::ContentHash) and of result-cache keys. Pass a previous
// return value as `seed` to hash data incrementally; the default seed is
// the FNV offset basis.
inline constexpr uint64_t kFnv1a64Offset = 1469598103934665603ull;
uint64_t Fnv1a64(const void* data, size_t len,
                 uint64_t seed = kFnv1a64Offset);
inline uint64_t Fnv1a64(const std::string& text) {
  return Fnv1a64(text.data(), text.size());
}

// 16 lowercase hex digits of `hash` — how content hashes are named in file
// names and on the wire.
std::string Hex64(uint64_t hash);

}  // namespace proclus

#endif  // PROCLUS_COMMON_HASH_H_
