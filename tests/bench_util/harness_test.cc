#include "bench_util/harness.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"

namespace proclus::bench {
namespace {

TEST(BenchScaleTest, DefaultIsOne) {
  unsetenv("PROCLUS_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(BenchScale(), 1.0);
}

TEST(BenchScaleTest, ReadsEnv) {
  setenv("PROCLUS_BENCH_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(BenchScale(), 0.25);
  unsetenv("PROCLUS_BENCH_SCALE");
}

TEST(BenchScaleTest, NonPositiveFallsBackToOne) {
  setenv("PROCLUS_BENCH_SCALE", "-2", 1);
  EXPECT_DOUBLE_EQ(BenchScale(), 1.0);
  unsetenv("PROCLUS_BENCH_SCALE");
}

TEST(BenchRepeatsTest, DefaultIsOneAndClampsToOne) {
  unsetenv("PROCLUS_BENCH_REPEATS");
  EXPECT_EQ(BenchRepeats(), 1);
  setenv("PROCLUS_BENCH_REPEATS", "0", 1);
  EXPECT_EQ(BenchRepeats(), 1);
  setenv("PROCLUS_BENCH_REPEATS", "5", 1);
  EXPECT_EQ(BenchRepeats(), 5);
  unsetenv("PROCLUS_BENCH_REPEATS");
}

TEST(MeasureSecondsTest, AveragesOverRepeats) {
  int calls = 0;
  const double seconds =
      MeasureSeconds([&](uint64_t) { ++calls; }, /*repeats=*/4);
  EXPECT_EQ(calls, 4);
  EXPECT_GE(seconds, 0.0);
}

TEST(MeasureSecondsTest, PassesDistinctSeeds) {
  std::vector<uint64_t> seeds;
  MeasureSeconds([&](uint64_t seed) { seeds.push_back(seed); }, 3, 100);
  EXPECT_EQ(seeds, (std::vector<uint64_t>{100, 101, 102}));
}

TEST(FormatTest, Seconds) {
  EXPECT_EQ(TablePrinter::FormatSeconds(0.0000005), "0.5 us");
  EXPECT_EQ(TablePrinter::FormatSeconds(0.0025), "2.50 ms");
  EXPECT_EQ(TablePrinter::FormatSeconds(1.5), "1.500 s");
}

TEST(FormatTest, Double) {
  EXPECT_EQ(TablePrinter::FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::FormatDouble(2.0, 0), "2");
}

TEST(FormatTest, Bytes) {
  EXPECT_EQ(TablePrinter::FormatBytes(512), "0.5 KiB");
  EXPECT_EQ(TablePrinter::FormatBytes(3 << 20), "3.00 MiB");
  EXPECT_EQ(TablePrinter::FormatBytes(2ULL << 30), "2.00 GiB");
}

TEST(FormatTest, Count) {
  EXPECT_EQ(TablePrinter::FormatCount(1234567), "1234567");
  EXPECT_EQ(TablePrinter::FormatCount(-5), "-5");
}

TEST(TablePrinterTest, WritesCsvMirror) {
  std::error_code ec;
  std::filesystem::remove_all("bench_results", ec);
  {
    TablePrinter table("test table", {"a", "b"}, "harness_test_table");
    table.AddRow({"1", "x"});
    table.AddRow({"2", "y"});
    table.Print();
  }
  std::ifstream csv("bench_results/harness_test_table.csv");
  ASSERT_TRUE(csv.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "a,b");
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "1,x");
  std::filesystem::remove_all("bench_results", ec);
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter table("padding", {"a", "b", "c"});
  table.AddRow({"only"});
  table.Print();  // must not crash
}

TEST(TablePrinterTest, WritesJsonMirror) {
  std::error_code ec;
  std::filesystem::remove_all("bench_results", ec);
  {
    TablePrinter table("json \"quoted\" table", {"kernel", "modeled_time"},
                      "harness_test_json");
    table.AddRow({"assign", "1.5 ms"});
    table.Print();
  }
  std::ifstream in("bench_results/BENCH_harness_test_json.json");
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  proclus::json::JsonValue root;
  std::string error;
  ASSERT_TRUE(proclus::json::Parse(buffer.str(), &root, &error))
      << error;
  EXPECT_EQ(root.Find("title")->string_value, "json \"quoted\" table");
  ASSERT_TRUE(root.Find("columns")->is_array());
  EXPECT_EQ(root.Find("columns")->array_value[0].string_value, "kernel");
  ASSERT_EQ(root.Find("rows")->array_value.size(), 1u);
  EXPECT_EQ(root.Find("rows")->array_value[0].array_value[1].string_value,
            "1.5 ms");
  std::filesystem::remove_all("bench_results", ec);
}

TEST(TablePrinterTest, JsonQuoteEscapes) {
  EXPECT_EQ(TablePrinter::JsonQuote("plain"), "plain");
  EXPECT_EQ(TablePrinter::JsonQuote("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(TablePrinter::JsonQuote("a\nb"), "a\\u000ab");
}

}  // namespace
}  // namespace proclus::bench
