#include "service/sharding.h"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace wafp::service {
namespace {

constexpr std::string_view kMetaHeader = "wafp-shards v1";

/// Parse shards.meta. Returns 0 on any structural problem (0 is never a
/// valid shard count, so it doubles as the error value); the caller turns
/// that into a diagnosable ShardLayoutError with the file path.
std::size_t parse_shard_meta(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return 0;
  std::string header;
  std::string count_line;
  if (!std::getline(in, header) || header != kMetaHeader) return 0;
  if (!std::getline(in, count_line)) return 0;
  if (count_line.rfind("shards,", 0) != 0) return 0;
  std::size_t value = 0;
  std::istringstream fields(count_line.substr(7));
  if (!(fields >> value) || !fields.eof()) return 0;
  return value;
}

}  // namespace

std::string shard_dir(const std::string& root, std::size_t index) {
  return (std::filesystem::path(root) / ("shard-" + std::to_string(index)))
      .string();
}

std::string shard_meta_path(const std::string& root) {
  return (std::filesystem::path(root) / "shards.meta").string();
}

void write_shard_meta(const std::string& root, std::size_t shard_count) {
  const std::string path = shard_meta_path(root);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << kMetaHeader << "\n"
        << "shards," << shard_count << "\n";
    if (!out.good()) {
      throw ShardLayoutError("cannot write shard layout metadata at " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw ShardLayoutError("cannot install shard layout metadata at " + path +
                           ": " + ec.message());
  }
}

void check_or_pin_shard_layout(const std::string& root,
                               std::size_t shard_count) {
  std::filesystem::create_directories(root);
  const std::string meta = shard_meta_path(root);
  if (std::filesystem::exists(meta)) {
    const std::size_t recorded = parse_shard_meta(meta);
    if (recorded == 0) {
      throw ShardLayoutError("unreadable shard layout metadata at " + meta +
                             " — refusing to guess a shard count");
    }
    if (recorded != shard_count) {
      throw ShardLayoutError(
          "shard layout mismatch at " + root + ": state was written with " +
          std::to_string(recorded) + " shard(s) but the engine was "
          "configured with " + std::to_string(shard_count) +
          "; reopening under a different modulus would misroute WAL replay");
    }
    return;
  }
  // No meta: the directory must be fresh. The older single-loop engine's
  // layout or stray shard directories mean prior state whose routing we
  // cannot know.
  if (std::filesystem::exists(std::filesystem::path(root) /
                              "submissions.wal")) {
    throw ShardLayoutError(
        root + " holds state from the older single-loop engine "
        "(submissions.wal in the root, no shards.meta); the engine only "
        "opens the shards.meta + shard-<i>/ layout");
  }
  for (std::size_t i = 0; i < 2; ++i) {
    // Probing shard-0/shard-1 catches every plausible orphaned layout:
    // any shard count >= 1 writes shard-0.
    if (std::filesystem::exists(shard_dir(root, i))) {
      throw ShardLayoutError(root + " holds shard state but no shards.meta; "
                             "refusing to guess its layout");
    }
  }
  write_shard_meta(root, shard_count);
}

}  // namespace wafp::service
