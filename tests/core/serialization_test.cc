#include "core/serialization.h"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/api.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "testing/must_cluster.h"

namespace proclus::core {
namespace {

ProclusResult SampleResult() {
  data::GeneratorConfig config;
  config.n = 400;
  config.d = 6;
  config.num_clusters = 3;
  config.subspace_dim = 3;
  config.seed = 77;
  data::Dataset ds = data::GenerateSubspaceDataOrDie(config);
  data::MinMaxNormalize(&ds.points);
  ProclusParams params;
  params.k = 3;
  params.l = 3;
  params.a = 20.0;
  params.b = 5.0;
  return MustCluster(ds.points, params);
}

std::string EncodeText(const ProclusResult& result) {
  return json::Dump(EncodeProclusResult(result));
}

// Parses and decodes `text` the way the wire and `.pcr` readers do.
Status DecodeText(const std::string& text, ProclusResult* result) {
  json::JsonValue value;
  std::string error;
  if (!json::Parse(text, &value, &error)) {
    return Status::InvalidArgument("malformed JSON: " + error);
  }
  return DecodeProclusResult(value, result);
}

TEST(SerializationTest, RoundTripThroughJson) {
  const ProclusResult original = SampleResult();
  ProclusResult loaded;
  ASSERT_TRUE(DecodeText(EncodeText(original), &loaded).ok());
  EXPECT_EQ(loaded.medoids, original.medoids);
  EXPECT_EQ(loaded.dimensions, original.dimensions);
  EXPECT_EQ(loaded.assignment, original.assignment);
  EXPECT_DOUBLE_EQ(loaded.iterative_cost, original.iterative_cost);
  EXPECT_DOUBLE_EQ(loaded.refined_cost, original.refined_cost);
}

TEST(SerializationTest, RoundTripThroughFile) {
  const auto dir =
      std::filesystem::temp_directory_path() / "proclus_serial_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "result.json").string();
  const ProclusResult original = SampleResult();
  ASSERT_TRUE(WriteResultToFile(original, path).ok());
  ProclusResult loaded;
  ASSERT_TRUE(ReadResultFromFile(path, &loaded).ok());
  EXPECT_EQ(loaded.assignment, original.assignment);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(SerializationTest, OutliersSurviveRoundTrip) {
  ProclusResult result;
  result.medoids = {10, 20};
  result.dimensions = {{0, 1}, {2, 3}};
  result.assignment = {0, kOutlier, 1, kOutlier, 0};
  result.iterative_cost = 0.5;
  result.refined_cost = 0.25;
  ProclusResult loaded;
  ASSERT_TRUE(DecodeText(EncodeText(result), &loaded).ok());
  EXPECT_EQ(loaded.assignment, result.assignment);
  EXPECT_EQ(loaded.NumOutliers(), 2);
}

TEST(SerializationTest, NonResultRejected) {
  ProclusResult loaded;
  EXPECT_FALSE(DecodeText("not a result\n", &loaded).ok());
  EXPECT_FALSE(DecodeText("[1, 2, 3]", &loaded).ok());
  EXPECT_FALSE(DecodeText("{\"medoids\": [1]}", &loaded).ok());
}

TEST(SerializationTest, TruncatedInputRejected) {
  const ProclusResult original = SampleResult();
  const std::string full = EncodeText(original);
  // Chop the serialized text at several points; every prefix must fail
  // cleanly (property-style truncation sweep).
  for (const double fraction : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const std::string cut =
        full.substr(0, static_cast<size_t>(fraction * full.size()));
    ProclusResult loaded;
    EXPECT_FALSE(DecodeText(cut, &loaded).ok()) << fraction;
  }
}

TEST(SerializationTest, OutOfRangeAssignmentRejected) {
  ProclusResult loaded;
  EXPECT_FALSE(DecodeText(
      "{\"medoids\":[1,2],\"dimensions\":[[0,1],[2,3]],"
      "\"iterative_cost\":1,\"refined_cost\":1,\"assignment\":[0,5,1]}",
      &loaded).ok());
}

TEST(SerializationTest, MismatchedMedoidAndDimensionCountsRejected) {
  ProclusResult loaded;
  const Status status = DecodeText(
      "{\"medoids\":[1,2,3],\"dimensions\":[[0,1],[2,3]],"
      "\"iterative_cost\":1,\"refined_cost\":1,\"assignment\":[0,1,2]}",
      &loaded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("mismatched medoid/dimension counts"),
            std::string::npos);
}

TEST(SerializationTest, MissingFileRejected) {
  ProclusResult loaded;
  EXPECT_FALSE(ReadResultFromFile("/nonexistent/result.json", &loaded).ok());
  EXPECT_FALSE(DecodeProclusResult(json::JsonValue::Object(), nullptr).ok());
}

TEST(SerializationTest, CostsKeepFullPrecision) {
  ProclusResult result;
  result.medoids = {0};
  result.dimensions = {{0, 1}};
  result.assignment = {0};
  result.iterative_cost = 0.12345678901234567;
  result.refined_cost = 1e-17;
  ProclusResult loaded;
  ASSERT_TRUE(DecodeText(EncodeText(result), &loaded).ok());
  EXPECT_DOUBLE_EQ(loaded.iterative_cost, result.iterative_cost);
  EXPECT_DOUBLE_EQ(loaded.refined_cost, result.refined_cost);
}

}  // namespace
}  // namespace proclus::core
