// The one writer of the BENCH_*.json files.
//
// A bench hands its results over one key per call, then write() puts them
// in the file between a fixed head and tail:
//
//   {
//     "bench": "<name>",
//     "host": {"cpu_model": ..., "logical_cpus": ..., "compiler": ...,
//              "build_type": ..., "sanitizer": ...},
//     <the bench's keys, in call order>,
//     "metrics": <obs::MetricsRegistry::global().render_json()>
//   }
//
//   bench::BenchJson json("shard_throughput");
//   json.boolean("smoke", smoke);
//   json.integer("users", users);
//   json.fixed("sharded_submissions_per_sec", per_sec, 1);
//   json.hex("component_checksum", checksum);
//   json.write(out_path);
//
// "host" names the machine and build behind the numbers (the build half
// comes from testing::BuildStamp), so a committed file says where it was
// recorded. A non-finite number or an I/O error ends the process with exit
// code 1 and leaves no file: a BENCH file is either whole and valid JSON or
// absent. bench/check_bench_json is the independent reader CI gates on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wafp::bench {

/// An ordered JSON object built one key per call; each value is rendered
/// when it is set.
class JsonObject {
 public:
  JsonObject& string(std::string_view key, std::string_view value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& integer(std::string_view key, std::uint64_t value);
  /// printf("%.*f", decimals, value); exits 1 if `value` is not finite.
  JsonObject& fixed(std::string_view key, double value, int decimals);
  /// printf("%.*e", digits, value); exits 1 if `value` is not finite.
  JsonObject& scientific(std::string_view key, double value, int digits);
  /// A 64-bit checksum as a 16-digit lowercase hex string.
  JsonObject& hex(std::string_view key, std::uint64_t value);
  /// An array of objects (per-run or per-kernel rows), one row per line.
  JsonObject& rows(std::string_view key, const std::vector<JsonObject>& items);

 private:
  friend class BenchJson;

  JsonObject& add(std::string_view key, std::string rendered);
  /// The object on one line: {"key": value, ...}.
  [[nodiscard]] std::string render_inline() const;

  /// (key, rendered value) pairs in call order.
  std::vector<std::pair<std::string, std::string>> members_;
};

/// A BENCH file's top-level object.
class BenchJson : public JsonObject {
 public:
  explicit BenchJson(std::string_view bench) : bench_(bench) {}

  /// Writes the document to `path` and prints "wrote <path>". Exits 1,
  /// removing whatever was written, if the file cannot be written whole.
  void write(const std::string& path) const;

 private:
  std::string bench_;
};

}  // namespace wafp::bench
