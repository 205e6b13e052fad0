#include "store/checksummed_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/macros.h"

namespace proclus::store {
namespace {

void PutLe(unsigned char* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

uint64_t GetLe(const unsigned char* in, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

// shared_ptr owner of a read-only mapping of a whole file.
struct Mapping {
  Mapping(void* a, size_t l) : addr(a), len(l) {}
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() { ::munmap(addr, len); }
  void* const addr;
  const size_t len;
};

}  // namespace

Status WriteChecksummedFile(const ChecksummedFormat& format, uint64_t word0,
                            uint64_t word1, const void* payload,
                            size_t payload_bytes, const std::string& path) {
  unsigned char header[kChecksummedHeaderBytes] = {};
  std::memcpy(header, format.magic, 4);
  PutLe(header + 4, format.version, 4);
  PutLe(header + 8, word0, 8);
  PutLe(header + 16, word1, 8);
  PutLe(header + 24, Crc32(payload, payload_bytes), 4);
  // header[28..31] stay zero (reserved).

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  bool ok = std::fwrite(header, 1, sizeof(header), f) == sizeof(header);
  if (ok && payload_bytes > 0) {
    ok = std::fwrite(payload, 1, payload_bytes, f) == payload_bytes;
  }
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path + ": " +
                           std::strerror(err));
  }
  return Status::OK();
}

Status ReadChecksummedFile(const ChecksummedFormat& format,
                           const std::string& path, ChecksummedFile* out) {
  PROCLUS_CHECK(out != nullptr);
  const std::string ext = format.extension;
  int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("cannot stat " + path + ": " + std::strerror(err));
  }
  if (st.st_size < static_cast<off_t>(kChecksummedHeaderBytes)) {
    ::close(fd);
    return Status::IoError("truncated " + ext + " file (no header): " + path);
  }
  const auto len = static_cast<size_t>(st.st_size);
  void* addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  const int err = errno;
  ::close(fd);  // the mapping keeps its own reference to the file
  if (addr == MAP_FAILED) {
    return Status::IoError("cannot mmap " + path + ": " + std::strerror(err));
  }
  auto mapping = std::make_shared<const Mapping>(addr, len);

  const auto* header = static_cast<const unsigned char*>(addr);
  if (std::memcmp(header, format.magic, 4) != 0) {
    return Status::IoError("not a " + ext + " file (bad magic): " + path);
  }
  const uint64_t version = GetLe(header + 4, 4);
  if (version != format.version) {
    return Status::IoError("unsupported " + ext + " version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(format.version) + "): " + path);
  }
  if (GetLe(header + 28, 4) != 0) {
    return Status::IoError("corrupt " + ext +
                           " header (reserved bytes set): " + path);
  }
  ChecksummedFile file;
  file.word0 = GetLe(header + 8, 8);
  file.word1 = GetLe(header + 16, 8);
  file.payload = header + kChecksummedHeaderBytes;
  file.payload_bytes = len - kChecksummedHeaderBytes;
  PROCLUS_RETURN_NOT_OK(format.check_words(file.word0, file.word1,
                                           file.payload_bytes, path));
  const uint64_t stored = GetLe(header + 24, 4);
  const uint32_t actual = Crc32(file.payload, file.payload_bytes);
  if (actual != stored) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "checksum mismatch (stored %08x, computed %08x)",
                  static_cast<uint32_t>(stored), actual);
    return Status::IoError("corrupt " + ext + " payload in " + path + ": " +
                           buf);
  }
  file.mapping = std::move(mapping);
  *out = std::move(file);
  return Status::OK();
}

std::string ContentAddressedPath(const std::string& dir, uint64_t hash,
                                 const char* extension) {
  return dir + "/" + Hex64(hash) + extension;
}

}  // namespace proclus::store
