#include "store/pds_format.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "data/matrix.h"

namespace proclus::store {
namespace {

class PdsFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "proclus_pds_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static data::Matrix MakeMatrix(int64_t rows, int64_t cols) {
    data::Matrix m(rows, cols);
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        m(i, j) = static_cast<float>(i) * 0.5f - static_cast<float>(j) * 2.0f;
      }
    }
    return m;
  }

  std::filesystem::path dir_;
};

TEST_F(PdsFormatTest, Crc32KnownAnswer) {
  // The IEEE 802.3 check value for the ASCII digits "123456789".
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST_F(PdsFormatTest, Crc32Incremental) {
  const char data[] = "hello, projected clustering";
  const size_t len = sizeof(data) - 1;
  const uint32_t whole = Crc32(data, len);
  const uint32_t first = Crc32(data, 5);
  EXPECT_EQ(Crc32(data + 5, len - 5, first), whole);
}

TEST_F(PdsFormatTest, WriteReadRoundTripIsBitIdentical) {
  const data::Matrix original = MakeMatrix(37, 11);
  ASSERT_TRUE(WritePds(original, Path("a.pds")).ok());
  data::Matrix loaded;
  ASSERT_TRUE(ReadPds(Path("a.pds"), &loaded).ok());
  EXPECT_EQ(loaded.rows(), 37);
  EXPECT_EQ(loaded.cols(), 11);
  EXPECT_TRUE(loaded == original);
  EXPECT_FALSE(loaded.borrowed());
}

TEST_F(PdsFormatTest, MapIsZeroCopyAndBitIdentical) {
  const data::Matrix original = MakeMatrix(64, 7);
  ASSERT_TRUE(WritePds(original, Path("b.pds")).ok());
  data::Matrix mapped;
  ASSERT_TRUE(MapPds(Path("b.pds"), &mapped).ok());
  EXPECT_TRUE(mapped.borrowed());
  EXPECT_TRUE(mapped == original);
  // Copies share the mapping; the data survives the source being reset.
  data::Matrix copy = mapped;
  mapped = data::Matrix();
  EXPECT_TRUE(copy == original);
  // Materialize() detaches from the mapping into owned storage.
  data::Matrix owned = copy.Materialize();
  EXPECT_FALSE(owned.borrowed());
  EXPECT_TRUE(owned == original);
}

TEST_F(PdsFormatTest, GoldenBytesV1) {
  // A 2x3 matrix in .pds v1, built by hand: the on-disk format is frozen.
  const unsigned char golden[] = {
      'P',  'D',  'S',  '1',  1,    0,    0,    0,     // magic, version 1
      2,    0,    0,    0,    0,    0,    0,    0,     // int64 rows
      3,    0,    0,    0,    0,    0,    0,    0,     // int64 cols
      0xbb, 0x4e, 0xe1, 0x1d, 0,    0,    0,    0,     // CRC32, reserved
      0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x20, 0xc0,  // 1.0f, -2.5f
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x40,  // 0.0f, 3.0f
      0x00, 0x00, 0x80, 0x3e, 0x00, 0x00, 0xc8, 0x42,  // 0.25f, 100.0f
  };
  const std::string golden_bytes(reinterpret_cast<const char*>(golden),
                                 sizeof(golden));
  EXPECT_EQ(Crc32(golden + kPdsHeaderBytes, 24), 0x1de14ebbu);
  data::Matrix m(2, 3);
  const float values[6] = {1.0f, -2.5f, 0.0f, 3.0f, 0.25f, 100.0f};
  for (int i = 0; i < 6; ++i) m(i / 3, i % 3) = values[i];

  ASSERT_TRUE(WritePds(m, Path("written.pds")).ok());
  std::ifstream in(Path("written.pds"), std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, golden_bytes);

  std::ofstream(Path("golden.pds"), std::ios::binary) << golden_bytes;
  data::Matrix owned;
  ASSERT_TRUE(ReadPds(Path("golden.pds"), &owned).ok());
  EXPECT_FALSE(owned.borrowed());
  data::Matrix mapped;
  ASSERT_TRUE(MapPds(Path("golden.pds"), &mapped).ok());
  EXPECT_TRUE(mapped.borrowed());
  for (const data::Matrix* loaded : {&owned, &mapped}) {
    ASSERT_EQ(loaded->rows(), 2);
    ASSERT_EQ(loaded->cols(), 3);
    EXPECT_EQ(std::memcmp(loaded->data(), values, sizeof(values)), 0);
  }
}

TEST_F(PdsFormatTest, CorruptedPayloadIsRejected) {
  const data::Matrix original = MakeMatrix(16, 4);
  ASSERT_TRUE(WritePds(original, Path("d.pds")).ok());
  // Flip one payload byte behind the header.
  {
    std::fstream f(Path("d.pds"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kPdsHeaderBytes) + 9);
    f.put(static_cast<char>(0x7f));
  }
  data::Matrix loaded;
  const Status read = ReadPds(Path("d.pds"), &loaded);
  EXPECT_EQ(read.code(), StatusCode::kIoError);
  EXPECT_NE(read.message().find("checksum mismatch"), std::string::npos);
  const Status mapped = MapPds(Path("d.pds"), &loaded);
  EXPECT_EQ(mapped.code(), StatusCode::kIoError);
  EXPECT_NE(mapped.message().find("checksum mismatch"), std::string::npos);
}

TEST_F(PdsFormatTest, TruncatedFileIsRejected) {
  const data::Matrix original = MakeMatrix(16, 4);
  ASSERT_TRUE(WritePds(original, Path("e.pds")).ok());
  std::filesystem::resize_file(Path("e.pds"), kPdsHeaderBytes + 10);
  data::Matrix loaded;
  EXPECT_FALSE(ReadPds(Path("e.pds"), &loaded).ok());
  EXPECT_FALSE(MapPds(Path("e.pds"), &loaded).ok());

  // A header that claims one row more than the file holds. The CRC covers
  // only the payload, so it still matches: the size check must catch it.
  ASSERT_TRUE(WritePds(original, Path("e2.pds")).ok());
  {
    std::fstream f(Path("e2.pds"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.put(static_cast<char>(17));  // rows 16 -> 17
  }
  const Status lying = MapPds(Path("e2.pds"), &loaded);
  EXPECT_EQ(lying.code(), StatusCode::kIoError);
  EXPECT_NE(lying.message().find("truncated .pds file"), std::string::npos);
}

TEST_F(PdsFormatTest, BadMagicAndVersionAreRejected) {
  const data::Matrix original = MakeMatrix(4, 4);
  ASSERT_TRUE(WritePds(original, Path("f.pds")).ok());
  {
    std::fstream f(Path("f.pds"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.put('X');  // breaks the magic
  }
  data::Matrix loaded;
  EXPECT_FALSE(ReadPds(Path("f.pds"), &loaded).ok());

  ASSERT_TRUE(WritePds(original, Path("g.pds")).ok());
  {
    std::fstream f(Path("g.pds"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.put(static_cast<char>(99));  // unknown version
  }
  EXPECT_FALSE(ReadPds(Path("g.pds"), &loaded).ok());
}

TEST_F(PdsFormatTest, MissingFileIsRejected) {
  data::Matrix loaded;
  EXPECT_EQ(ReadPds(Path("missing.pds"), &loaded).code(),
            StatusCode::kIoError);
  EXPECT_EQ(MapPds(Path("missing.pds"), &loaded).code(), StatusCode::kIoError);
}

TEST_F(PdsFormatTest, WriteToUnwritablePathFails) {
  EXPECT_FALSE(WritePds(MakeMatrix(2, 2), "/nonexistent_dir/x.pds").ok());
}

TEST_F(PdsFormatTest, NoTmpFileLeftBehind) {
  ASSERT_TRUE(WritePds(MakeMatrix(8, 2), Path("h.pds")).ok());
  EXPECT_TRUE(std::filesystem::exists(Path("h.pds")));
  EXPECT_FALSE(std::filesystem::exists(Path("h.pds") + ".tmp"));
}

}  // namespace
}  // namespace proclus::store
