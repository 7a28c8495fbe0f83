#include "bench_json.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "obs/metrics.h"
#include "testing/build_stamp.h"

namespace wafp::bench {

namespace {

std::string finite_number(std::string_view key, double value, int precision,
                          bool scientific) {
  if (!std::isfinite(value)) {
    std::fprintf(stderr, "bench json: \"%.*s\" is not a finite number (%g)\n",
                 static_cast<int>(key.size()), key.data(), value);
    std::exit(1);
  }
  char buf[400];  // room for DBL_MAX in %f
  std::snprintf(buf, sizeof(buf), scientific ? "%.*e" : "%.*f", precision,
                value);
  return buf;
}

/// "model name" from /proc/cpuinfo; "unknown" where there is none.
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

}  // namespace

JsonObject& JsonObject::add(std::string_view key, std::string rendered) {
  members_.emplace_back(std::string(key), std::move(rendered));
  return *this;
}

JsonObject& JsonObject::string(std::string_view key, std::string_view value) {
  return add(key, obs::json_string(value));
}

JsonObject& JsonObject::boolean(std::string_view key, bool value) {
  return add(key, value ? "true" : "false");
}

JsonObject& JsonObject::integer(std::string_view key, std::uint64_t value) {
  return add(key, std::to_string(value));
}

JsonObject& JsonObject::fixed(std::string_view key, double value,
                              int decimals) {
  return add(key, finite_number(key, value, decimals, /*scientific=*/false));
}

JsonObject& JsonObject::scientific(std::string_view key, double value,
                                   int digits) {
  return add(key, finite_number(key, value, digits, /*scientific=*/true));
}

JsonObject& JsonObject::hex(std::string_view key, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", value);
  return add(key, buf);
}

JsonObject& JsonObject::rows(std::string_view key,
                             const std::vector<JsonObject>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    out += items[i].render_inline();
  }
  out += items.empty() ? "]" : "\n  ]";
  return add(key, std::move(out));
}

std::string JsonObject::render_inline() const {
  std::string out = "{";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i > 0) out += ", ";
    out += obs::json_string(members_[i].first) + ": " + members_[i].second;
  }
  return out + "}";
}

void BenchJson::write(const std::string& path) const {
  const testing::BuildStamp stamp = testing::BuildStamp::current();
  JsonObject host;
  host.string("cpu_model", cpu_model())
      .integer("logical_cpus", std::thread::hardware_concurrency())
      .string("compiler", stamp.compiler)
      .string("build_type", stamp.build_type)
      .string("sanitizer", stamp.sanitizer);

  std::string doc = "{\n  \"bench\": " + obs::json_string(bench_) +
                    ",\n  \"host\": " + host.render_inline();
  for (const auto& [key, value] : members_) {
    doc += ",\n  " + obs::json_string(key) + ": " + value;
  }
  doc += ",\n  \"metrics\": " +
         obs::MetricsRegistry::global().render_json() + "\n}\n";

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (out.is_open()) {
    out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
    out.close();
    if (!out.fail()) {
      std::printf("wrote %s\n", path.c_str());
      return;
    }
    std::remove(path.c_str());
  }
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  std::exit(1);
}

}  // namespace wafp::bench
