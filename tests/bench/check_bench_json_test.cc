// check_bench_json's CLI contract for the parallel-speedup gate: a
// --require-min-parallel floor is enforced exactly like --require-min when
// the bench file records hardware_concurrency >= 2, and is SKIPPED — with
// a visible note, exit 0 — when the bench ran on a single-core host, where
// any speedup figure is timeslicing noise. Exercised end-to-end through
// the real binary (path baked in by tests/CMakeLists.txt) because the gate
// is a CI shell step, not a library call.
//
// The bench emitter (bench/bench_json.h), the one writer of BENCH files, is
// read back through the same binary: every value kind the benches emit must
// come out as JSON the checker accepts, and a non-finite number or an
// unwritable path must exit 1 without leaving a file.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "obs/metrics.h"

namespace {

#ifndef WAFP_CHECK_BENCH_JSON_BIN
#error "build must define WAFP_CHECK_BENCH_JSON_BIN (see tests/CMakeLists.txt)"
#endif

struct CheckerResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

CheckerResult run_checker_on(const std::string& json_path,
                             const std::string& args, const std::string& tag) {
  const std::string log_path =
      ::testing::TempDir() + "check_bench_" + tag + ".log";
  const std::string command = std::string(WAFP_CHECK_BENCH_JSON_BIN) + " " +
                              json_path + " " + args + " > " + log_path +
                              " 2>&1";
  const int status = std::system(command.c_str());
  CheckerResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.output = read_file(log_path);
  return result;
}

CheckerResult run_checker(const std::string& json_body,
                          const std::string& args, const std::string& tag) {
  const std::string json_path =
      ::testing::TempDir() + "check_bench_" + tag + ".json";
  {
    std::ofstream out(json_path);
    out << json_body;
  }
  return run_checker_on(json_path, args, tag);
}

constexpr const char* kSingleCoreJson = R"({
  "benchmark": "parallel_pipeline",
  "hardware_concurrency": 1,
  "effective_parallelism": 1.0,
  "speedup_max_threads_vs_serial": 0.4
})";

constexpr const char* kMultiCoreJson = R"({
  "benchmark": "parallel_pipeline",
  "hardware_concurrency": 8,
  "effective_parallelism": 1.1,
  "speedup_max_threads_vs_serial": 1.1
})";

TEST(CheckBenchJsonTest, ParallelFloorSkippedOnSingleCoreHost) {
  const CheckerResult result = run_checker(
      kSingleCoreJson, "--require-min-parallel effective_parallelism 1.5",
      "skip_single_core");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("skipping parallel floor"), std::string::npos)
      << "the waiver must be visible in the CI log, got: " << result.output;
}

TEST(CheckBenchJsonTest, ParallelFloorSkippedWhenConcurrencyUnrecorded) {
  const CheckerResult result = run_checker(
      R"({"benchmark": "x", "effective_parallelism": 0.9})",
      "--require-min-parallel effective_parallelism 1.5", "skip_unrecorded");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("skipping parallel floor"), std::string::npos)
      << result.output;
}

TEST(CheckBenchJsonTest, ParallelFloorEnforcedOnMultiCoreHost) {
  const CheckerResult failing = run_checker(
      kMultiCoreJson, "--require-min-parallel effective_parallelism 1.5",
      "enforce_fail");
  EXPECT_EQ(failing.exit_code, 1) << failing.output;
  EXPECT_NE(failing.output.find("below the required minimum"),
            std::string::npos)
      << failing.output;

  const CheckerResult passing = run_checker(
      kMultiCoreJson, "--require-min-parallel effective_parallelism 1.05",
      "enforce_pass");
  EXPECT_EQ(passing.exit_code, 0) << passing.output;
}

TEST(CheckBenchJsonTest, PlainRequireMinIgnoresHardwareConcurrency) {
  // The unconditional floor must NOT inherit the single-core waiver.
  const CheckerResult result =
      run_checker(kSingleCoreJson, "--require-min effective_parallelism 1.5",
                  "plain_min");
  EXPECT_EQ(result.exit_code, 1) << result.output;
}

TEST(CheckBenchJsonTest, RequiredKeysStillCheckedAlongsideSkip) {
  const CheckerResult result = run_checker(
      kSingleCoreJson,
      "--require-min-parallel effective_parallelism 1.5 --require missing_key",
      "skip_plus_missing");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("missing required key"), std::string::npos)
      << result.output;
}

TEST(BenchJsonTest, EveryValueKindReadsBackThroughTheChecker) {
  // wafp-lint: allow(metric-name): a synthetic family for the metrics block.
  wafp::obs::MetricsRegistry::global().counter("wafp_bench_json_test_total")
      .inc(3);
  const std::string path = ::testing::TempDir() + "bench_json_kinds.json";
  wafp::bench::BenchJson json("bench_json_test");
  json.string("label", "quote\" backslash\\ newline\n tab\t bell\x07");
  json.integer("users", 1000000);
  json.integer("max_u64", std::numeric_limits<std::uint64_t>::max());
  json.fixed("seconds", 61.73456, 3);
  json.scientific("fmr", 2.381648e-01, 6);
  json.hex("component_checksum", 0x68572a6a637d7ea8);
  json.boolean("parity_ok", true);
  std::vector<wafp::bench::JsonObject> rows(2);
  rows[0].integer("threads", 1).fixed("total_s", 2.5, 6);
  rows[1].integer("threads", 4).fixed("total_s", 0.75, 6);
  json.rows("runs", rows);
  json.rows("empty_rows", {});
  json.write(path);

  std::string args;
  for (const char* key :
       {"bench", "host", "label", "users", "max_u64", "seconds", "fmr",
        "component_checksum", "parity_ok", "runs", "empty_rows", "metrics"}) {
    args += std::string(" --require ") + key;
  }
  args += " --require-min users 1000000 --require-min seconds 61.735"
          " --require-metric-prefix wafp_bench_json_test";
  const CheckerResult result = run_checker_on(path, args, "emitter_kinds");
  EXPECT_EQ(result.exit_code, 0) << result.output;

  const std::string text = read_file(path);
  for (const char* expected :
       {"\"bench\": \"bench_json_test\"", "\"cpu_model\": ",
        "\"logical_cpus\": ", "\"compiler\": ", "\"build_type\": ",
        "\"sanitizer\": ",
        R"("label": "quote\" backslash\\ newline\n tab\t bell\u0007")",
        "\"max_u64\": 18446744073709551615", "\"seconds\": 61.735",
        "\"fmr\": 2.381648e-01",
        "\"component_checksum\": \"68572a6a637d7ea8\"",
        "{\"threads\": 4, \"total_s\": 0.750000}", "\"empty_rows\": []",
        "\"wafp_bench_json_test_total\": 3"}) {
    EXPECT_NE(text.find(expected), std::string::npos)
        << "missing " << expected << " in\n" << text;
  }
  std::filesystem::remove(path);
}

TEST(BenchJsonDeathTest, NonFiniteNumberExitsWithoutAFile) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "bench_json_nan.json";
  std::filesystem::remove(path);
  EXPECT_EXIT(
      {
        wafp::bench::BenchJson json("bench_json_test");
        json.integer("users", 5);
        json.fixed("ns_per_elem", std::nan(""), 4);
        json.write(path);
      },
      testing::ExitedWithCode(1), "\"ns_per_elem\" is not a finite number");
  EXPECT_EXIT(
      {
        wafp::bench::BenchJson json("bench_json_test");
        json.scientific("fmr", std::numeric_limits<double>::infinity(), 6);
        json.write(path);
      },
      testing::ExitedWithCode(1), "\"fmr\" is not a finite number");
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(BenchJsonDeathTest, UnwritablePathExitsWithoutAFile) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path =
      ::testing::TempDir() + "bench_json_no_such_dir/out.json";
  EXPECT_EXIT(
      {
        wafp::bench::BenchJson json("bench_json_test");
        json.write(path);
      },
      testing::ExitedWithCode(1), "cannot write");
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
