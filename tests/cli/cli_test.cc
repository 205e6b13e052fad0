#include "cli/cli.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json.h"
#include "data/generator.h"
#include "data/io.h"
#include "store/pds_format.h"

namespace proclus::cli {
namespace {

Status Parse(std::initializer_list<const char*> args, CliConfig* config) {
  return ParseArgs(std::vector<std::string>(args.begin(), args.end()),
                   config);
}

TEST(ParseArgsTest, RequiresInputOrGenerate) {
  CliConfig config;
  EXPECT_FALSE(Parse({}, &config).ok());
  EXPECT_TRUE(Parse({"--generate", "100,5,2"}, &config).ok());
  EXPECT_TRUE(Parse({"--input", "x.csv"}, &config).ok());
  EXPECT_FALSE(
      Parse({"--input", "x.csv", "--generate", "100,5,2"}, &config).ok());
}

TEST(ParseArgsTest, HelpShortCircuits) {
  CliConfig config;
  ASSERT_TRUE(Parse({"--help"}, &config).ok());
  EXPECT_TRUE(config.show_help);
  ASSERT_TRUE(Parse({"-h"}, &config).ok());
  EXPECT_TRUE(config.show_help);
}

TEST(ParseArgsTest, GenerateParsesTriple) {
  CliConfig config;
  ASSERT_TRUE(Parse({"--generate", "5000,12,4"}, &config).ok());
  EXPECT_TRUE(config.generate);
  EXPECT_EQ(config.gen_n, 5000);
  EXPECT_EQ(config.gen_d, 12);
  EXPECT_EQ(config.gen_clusters, 4);
}

TEST(ParseArgsTest, GenerateRejectsMalformed) {
  CliConfig config;
  EXPECT_FALSE(Parse({"--generate", "5000"}, &config).ok());
  EXPECT_FALSE(Parse({"--generate", "5000,12"}, &config).ok());
  EXPECT_FALSE(Parse({"--generate", "a,b,c"}, &config).ok());
}

TEST(ParseArgsTest, AlgorithmParameters) {
  CliConfig config;
  ASSERT_TRUE(Parse({"--generate", "100,5,2", "--k", "7", "--l", "3", "--A",
                     "50", "--B", "5", "--min-dev", "0.5", "--itr-pat", "9",
                     "--seed", "123"},
                    &config)
                  .ok());
  EXPECT_EQ(config.params.k, 7);
  EXPECT_EQ(config.params.l, 3);
  EXPECT_DOUBLE_EQ(config.params.a, 50.0);
  EXPECT_DOUBLE_EQ(config.params.b, 5.0);
  EXPECT_DOUBLE_EQ(config.params.min_dev, 0.5);
  EXPECT_EQ(config.params.itr_pat, 9);
  EXPECT_EQ(config.params.seed, 123u);
}

TEST(ParseArgsTest, BackendAndStrategy) {
  CliConfig config;
  ASSERT_TRUE(Parse({"--generate", "100,5,2", "--backend", "cpu",
                     "--strategy", "baseline"},
                    &config)
                  .ok());
  EXPECT_EQ(config.options.backend, core::ComputeBackend::kCpu);
  EXPECT_EQ(config.options.strategy, core::Strategy::kBaseline);
  ASSERT_TRUE(Parse({"--generate", "100,5,2", "--backend", "mc",
                     "--strategy", "faststar", "--threads", "4"},
                    &config)
                  .ok());
  EXPECT_EQ(config.options.backend, core::ComputeBackend::kMultiCore);
  EXPECT_EQ(config.options.strategy, core::Strategy::kFastStar);
  EXPECT_EQ(config.options.num_threads, 4);
  EXPECT_FALSE(
      Parse({"--generate", "100,5,2", "--backend", "tpu"}, &config).ok());
  EXPECT_FALSE(
      Parse({"--generate", "100,5,2", "--strategy", "slow"}, &config).ok());
}

TEST(ParseArgsTest, SimtcheckRequiresGpuBackendForRuns) {
  CliConfig config;
  EXPECT_FALSE(Parse({"--generate", "100,5,2", "--backend", "cpu",
                      "--simtcheck"},
                     &config)
                   .ok());
  EXPECT_FALSE(Parse({"--generate", "100,5,2", "--backend", "mc",
                      "--simtcheck"},
                     &config)
                   .ok());
  ASSERT_TRUE(Parse({"--generate", "100,5,2", "--backend", "gpu",
                     "--simtcheck"},
                    &config)
                  .ok());
  EXPECT_TRUE(config.simtcheck);
  EXPECT_TRUE(config.options.gpu_sanitize);
}

TEST(ParseArgsTest, UnknownFlagRejectedWithHint) {
  CliConfig config;
  const Status st = Parse({"--generate", "100,5,2", "--frobnicate"}, &config);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--frobnicate"), std::string::npos);
}

TEST(ParseArgsTest, MissingValueRejected) {
  CliConfig config;
  EXPECT_FALSE(Parse({"--generate", "100,5,2", "--k"}, &config).ok());
  EXPECT_FALSE(Parse({"--input"}, &config).ok());
}

TEST(ParseArgsTest, DefaultsMatchLibraryDefaults) {
  CliConfig config;
  ASSERT_TRUE(Parse({"--generate", "100,5,2"}, &config).ok());
  EXPECT_EQ(config.params.k, 10);
  EXPECT_EQ(config.params.l, 5);
  EXPECT_EQ(config.options.backend, core::ComputeBackend::kGpu);
  EXPECT_EQ(config.options.strategy, core::Strategy::kFast);
  EXPECT_TRUE(config.normalize);
}

class RunCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "proclus_cli_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(RunCliTest, HelpPrintsUsage) {
  CliConfig config;
  config.show_help = true;
  std::ostringstream out;
  ASSERT_TRUE(RunCli(config, out).ok());
  EXPECT_NE(out.str().find("--input"), std::string::npos);
  EXPECT_NE(out.str().find("--strategy"), std::string::npos);
}

TEST_F(RunCliTest, GenerateAndClusterEndToEnd) {
  CliConfig config;
  ASSERT_TRUE(Parse({"--generate", "800,8,3", "--k", "3", "--l", "4", "--A",
                     "20", "--B", "5", "--backend", "cpu"},
                    &config)
                  .ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(config, out).ok());
  EXPECT_NE(out.str().find("cluster"), std::string::npos);
  EXPECT_NE(out.str().find("subspace"), std::string::npos);
  EXPECT_NE(out.str().find("ARI vs labels"), std::string::npos);
}

TEST_F(RunCliTest, SimtcheckRunReportsCheckedAccesses) {
  CliConfig config;
  ASSERT_TRUE(Parse({"--generate", "400,8,3", "--k", "3", "--l", "4",
                     "--backend", "gpu", "--simtcheck"},
                    &config)
                  .ok());
  std::ostringstream out;
  const Status status = RunCli(config, out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // The clean run prints the checked-access count and zero findings.
  EXPECT_NE(out.str().find("simtcheck:"), std::string::npos);
  EXPECT_NE(out.str().find("0 finding(s)"), std::string::npos);
}

TEST_F(RunCliTest, CsvInputAndAssignmentOutput) {
  data::GeneratorConfig gen;
  gen.n = 500;
  gen.d = 6;
  gen.num_clusters = 2;
  gen.subspace_dim = 3;
  gen.seed = 5;
  const data::Dataset ds = data::GenerateSubspaceDataOrDie(gen);
  ASSERT_TRUE(data::WriteCsv(ds, Path("in.csv")).ok());

  CliConfig config;
  ASSERT_TRUE(Parse({"--input", Path("in.csv").c_str(), "--labels", "--k",
                     "2", "--l", "3", "--A", "20", "--B", "5", "--backend",
                     "gpu", "--output", Path("out.csv").c_str()},
                    &config)
                  .ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(config, out).ok());

  std::ifstream assignment(Path("out.csv"));
  ASSERT_TRUE(assignment.is_open());
  int64_t lines = 0;
  std::string line;
  while (std::getline(assignment, line)) {
    ++lines;
    const int c = std::stoi(line);
    EXPECT_GE(c, -1);
    EXPECT_LT(c, 2);
  }
  EXPECT_EQ(lines, 500);
}

TEST_F(RunCliTest, MissingInputFileReportsIoError) {
  CliConfig config;
  ASSERT_TRUE(Parse({"--input", Path("nope.csv").c_str()}, &config).ok());
  std::ostringstream out;
  const Status st = RunCli(config, out);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST_F(RunCliTest, InvalidParametersSurfaceAsStatus) {
  CliConfig config;
  ASSERT_TRUE(
      Parse({"--generate", "800,8,3", "--l", "20"}, &config).ok());
  std::ostringstream out;
  EXPECT_FALSE(RunCli(config, out).ok());
}

TEST_F(RunCliTest, BatchRunsJobsThroughService) {
  CliConfig config;
  ASSERT_TRUE(Parse({"batch", "--generate", "600,8,3", "--A", "15", "--B",
                     "4", "--jobs", "3:3,4:4", "--backend", "cpu"},
                    &config)
                  .ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(config, out).ok());
  EXPECT_NE(out.str().find("k=3 l=3"), std::string::npos);
  EXPECT_NE(out.str().find("k=4 l=4"), std::string::npos);
  EXPECT_NE(out.str().find("2 completed"), std::string::npos);
}

TEST_F(RunCliTest, BatchSweepSharesWork) {
  CliConfig config;
  ASSERT_TRUE(Parse({"batch", "--generate", "600,8,3", "--A", "15", "--B",
                     "4", "--jobs", "3:3,4:4", "--sweep", "--backend", "cpu"},
                    &config)
                  .ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(config, out).ok());
  EXPECT_NE(out.str().find("1 completed"), std::string::npos);
}

TEST_F(RunCliTest, BatchGpuSweepShardsAcrossTheDevicePool) {
  CliConfig config;
  ASSERT_TRUE(Parse({"batch", "--generate", "600,8,3", "--A", "15", "--B",
                     "4", "--jobs", "3:3,4:4,5:4", "--sweep", "--backend",
                     "gpu", "--gpu-devices", "2", "--shards", "2"},
                    &config)
                  .ok());
  EXPECT_EQ(config.batch_shards, 2);
  std::ostringstream out;
  ASSERT_TRUE(RunCli(config, out).ok());
  EXPECT_NE(out.str().find("1 completed"), std::string::npos);
  EXPECT_NE(out.str().find("sweep shards 2"), std::string::npos);
}

TEST(ParseArgsTest, ShardsRequiresBatchMode) {
  CliConfig config;
  EXPECT_FALSE(Parse({"--generate", "600,8,3", "--shards", "2"}, &config)
                   .ok());
}

TEST(ParseArgsTest, TraceOutAcceptsBothForms) {
  CliConfig config;
  ASSERT_TRUE(
      Parse({"--generate", "100,5,2", "--trace-out", "t.json"}, &config).ok());
  EXPECT_EQ(config.trace_out_path, "t.json");
  CliConfig eq_form;
  ASSERT_TRUE(
      Parse({"--generate", "100,5,2", "--trace-out=u.json"}, &eq_form).ok());
  EXPECT_EQ(eq_form.trace_out_path, "u.json");
  CliConfig empty;
  EXPECT_FALSE(Parse({"--generate", "100,5,2", "--trace-out="}, &empty).ok());
  CliConfig missing;
  EXPECT_FALSE(Parse({"--generate", "100,5,2", "--trace-out"}, &missing).ok());
}

TEST_F(RunCliTest, TraceOutWritesValidChromeTrace) {
  CliConfig config;
  ASSERT_TRUE(Parse({"--generate", "800,8,3", "--k", "3", "--l", "4", "--A",
                     "20", "--B", "5", "--backend", "gpu", "--trace-out",
                     Path("trace.json").c_str()},
                    &config)
                  .ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(config, out).ok());
  EXPECT_NE(out.str().find("trace written to"), std::string::npos);

  std::ifstream in(Path("trace.json"));
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  proclus::json::JsonValue root;
  std::string error;
  ASSERT_TRUE(proclus::json::Parse(buffer.str(), &root, &error))
      << error;
  const auto* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_driver_span = false;
  bool saw_kernel_event = false;
  for (const auto& event : events->array_value) {
    const auto* cat = event.Find("cat");
    if (cat == nullptr) continue;
    if (cat->string_value == "driver") saw_driver_span = true;
    if (cat->string_value == "kernel") saw_kernel_event = true;
  }
  EXPECT_TRUE(saw_driver_span);
  EXPECT_TRUE(saw_kernel_event);
}

TEST_F(RunCliTest, ExploreModeTracesEverySetting) {
  CliConfig config;
  ASSERT_TRUE(Parse({"--generate", "600,8,3", "--k", "4", "--l", "3", "--A",
                     "15", "--B", "4", "--explore", "--backend", "cpu",
                     "--trace-out", Path("explore.json").c_str()},
                    &config)
                  .ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(config, out).ok());
  std::ifstream in(Path("explore.json"));
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  proclus::json::JsonValue root;
  std::string error;
  ASSERT_TRUE(proclus::json::Parse(buffer.str(), &root, &error))
      << error;
  // One "iterative" driver span per grid setting.
  int iterative_spans = 0;
  for (const auto& event : root.Find("traceEvents")->array_value) {
    const auto* name = event.Find("name");
    const auto* cat = event.Find("cat");
    if (name != nullptr && cat != nullptr && cat->string_value == "driver" &&
        name->string_value == "iterative") {
      ++iterative_spans;
    }
  }
  EXPECT_GT(iterative_spans, 1);
}

TEST(ParseArgsBatchTest, BatchFlagsRequireBatchMode) {
  CliConfig config;
  const Status st = ParseArgs({"--generate", "600,8,3", "--jobs", "3:3"},
                              &config);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // Tuning flags are batch-only too; they must be rejected, not silently
  // ignored, outside batch mode.
  for (const auto& args :
       std::vector<std::vector<std::string>>{
           {"--generate", "600,8,3", "--workers", "2"},
           {"--generate", "600,8,3", "--gpu-devices", "1"},
           {"--generate", "600,8,3", "--timeout-ms", "10"}}) {
    CliConfig c;
    EXPECT_EQ(ParseArgs(args, &c).code(), StatusCode::kInvalidArgument);
  }
}

TEST(ParseArgsBatchTest, MalformedJobsRejected) {
  CliConfig config;
  EXPECT_FALSE(
      ParseArgs({"batch", "--generate", "600,8,3", "--jobs", "3-3"}, &config)
          .ok());
}

TEST(ParseArgsStoreTest, StoreFlagsRequireServeMode) {
  CliConfig config;
  EXPECT_EQ(ParseArgs({"--generate", "100,5,2", "--store-dir", "/tmp/x"},
                      &config)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseArgs(
                {"--generate", "100,5,2", "--store-budget-mb", "64"}, &config)
                .code(),
            StatusCode::kInvalidArgument);

  CliConfig serve;
  ASSERT_TRUE(ParseArgs({"serve", "--generate", "100,5,2", "--port", "0",
                         "--store-dir", "/tmp/x", "--store-budget-mb", "64"},
                        &serve)
                  .ok());
  EXPECT_EQ(serve.store_dir, "/tmp/x");
  EXPECT_EQ(serve.store_budget_mb, 64);

  CliConfig bad;
  EXPECT_FALSE(ParseArgs({"serve", "--generate", "100,5,2", "--port", "0",
                          "--store-budget-mb", "-1"},
                         &bad)
                   .ok());
}

TEST(ParseArgsStoreTest, UploadModeValidation) {
  CliConfig config;
  // Upload needs a server port to talk to.
  EXPECT_FALSE(ParseArgs({"upload", "--input", "x.csv"}, &config).ok());
  ASSERT_TRUE(ParseArgs({"upload", "--input", "x.csv", "--port", "7001",
                         "--dataset-id", "mine"},
                        &config)
                  .ok());
  EXPECT_TRUE(config.upload);
  EXPECT_EQ(config.serve_port, 7001);
  // Run-mode outputs make no sense when only shipping bytes.
  CliConfig bad;
  EXPECT_FALSE(ParseArgs({"upload", "--input", "x.csv", "--port", "7001",
                          "--output", "a.csv"},
                         &bad)
                   .ok());
}

TEST(ParseArgsStoreTest, ConvertModeValidation) {
  CliConfig config;
  EXPECT_FALSE(ParseArgs({"convert", "--input", "x.csv"}, &config).ok());
  ASSERT_TRUE(ParseArgs(
                  {"convert", "--input", "x.csv", "--output", "x.pds"},
                  &config)
                  .ok());
  EXPECT_TRUE(config.convert);
}

TEST_F(RunCliTest, ConvertRoundTripClustersBitIdentically) {
  data::GeneratorConfig gen;
  gen.n = 500;
  gen.d = 6;
  gen.num_clusters = 2;
  gen.subspace_dim = 3;
  gen.seed = 11;
  const data::Dataset ds = data::GenerateSubspaceDataOrDie(gen);
  ASSERT_TRUE(data::WriteCsv(ds, Path("in.csv")).ok());

  // The dataset the converter saw: CSV text is not a bit-exact float32
  // serialization, so the round-trip baseline is the parsed CSV.
  data::Dataset parsed;
  ASSERT_TRUE(data::ReadCsv(Path("in.csv"), /*has_labels=*/true, &parsed).ok());

  // CSV -> .pds conversion preserves the matrix bit for bit (convert never
  // normalizes; run modes normalize at load time).
  CliConfig convert;
  ASSERT_TRUE(Parse({"convert", "--input", Path("in.csv").c_str(), "--labels",
                     "--output", Path("out.pds").c_str()},
                    &convert)
                  .ok());
  std::ostringstream convert_out;
  const Status converted = RunCli(convert, convert_out);
  ASSERT_TRUE(converted.ok()) << converted.ToString();
  EXPECT_NE(convert_out.str().find("wrote"), std::string::npos);
  data::Matrix reread;
  ASSERT_TRUE(store::ReadPds(Path("out.pds"), &reread).ok());
  ASSERT_EQ(reread.rows(), parsed.points.rows());
  ASSERT_EQ(reread.cols(), parsed.points.cols());
  EXPECT_EQ(std::memcmp(reread.data(), parsed.points.data(),
                        static_cast<size_t>(parsed.points.size()) * 4),
            0);

  // Clustering the CSV and its .pds conversion must agree exactly.
  auto run = [&](const char* input, bool labels, const std::string& out_csv) {
    std::vector<std::string> args = {"--input",  input, "--k",     "2",
                                     "--l",      "3",   "--A",     "20",
                                     "--B",      "5",   "--backend", "gpu",
                                     "--output", out_csv};
    if (labels) args.push_back("--labels");
    CliConfig config;
    ASSERT_TRUE(ParseArgs(args, &config).ok());
    std::ostringstream sink;
    const Status status = RunCli(config, sink);
    ASSERT_TRUE(status.ok()) << status.ToString();
  };
  run(Path("in.csv").c_str(), true, Path("a_csv.csv"));
  run(Path("out.pds").c_str(), false, Path("a_pds.csv"));
  std::ifstream a(Path("a_csv.csv")), b(Path("a_pds.csv"));
  std::stringstream a_text, b_text;
  a_text << a.rdbuf();
  b_text << b.rdbuf();
  EXPECT_GT(a_text.str().size(), 0u);
  EXPECT_EQ(a_text.str(), b_text.str());
}

TEST_F(RunCliTest, PdsInputRejectsLabelsFlag) {
  CliConfig config;
  ASSERT_TRUE(
      Parse({"--input", Path("x.pds").c_str(), "--labels"}, &config).ok());
  std::ostringstream out;
  EXPECT_EQ(RunCli(config, out).code(), StatusCode::kInvalidArgument);
}

TEST_F(RunCliTest, ExploreRunsGrid) {
  CliConfig config;
  ASSERT_TRUE(Parse({"--generate", "600,8,3", "--k", "4", "--l", "3", "--A",
                     "15", "--B", "4", "--explore", "--backend", "cpu"},
                    &config)
                  .ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(config, out).ok());
  EXPECT_NE(out.str().find("explored 9 settings"), std::string::npos);
  EXPECT_NE(out.str().find("k=4 l=3"), std::string::npos);
}

}  // namespace
}  // namespace proclus::cli
