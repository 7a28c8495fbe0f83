// Shard routing and on-disk layout metadata for the collation engine
// (DESIGN.md §3j).
//
// The bipartite user↔fingerprint graph is partitioned by *fingerprint*
// hash: every edge (user, efp) lives on exactly one shard, so elementary
// fingerprints never span shards and users are the only cross-shard glue.
// The routing function is part of the durable format — records in shard
// k's WAL are only replayed into shard k — so a state directory written
// with one shard count must never be opened with another. A `shards.meta`
// file pins the layout and recovery hard-fails on any mismatch with a
// typed, diagnosable ShardLayoutError instead of silently misrouting.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/hash.h"

namespace wafp::service {

/// Thrown when a state directory's recorded shard layout conflicts with
/// the configuration trying to open it (different shard count, foreign or
/// unreadable metadata, or state from the older single-loop engine).
/// Recovery refuses to proceed: replaying shard k's WAL under a different
/// modulus would route edges to the wrong graphs and silently corrupt the
/// partition.
class ShardLayoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The routing function: which shard owns every edge bearing this
/// elementary fingerprint. Stable across runs (it feeds the durable
/// layout); uniform because the digest is already a SHA-256.
[[nodiscard]] inline std::size_t shard_for_digest(const util::Digest& efp,
                                                  std::size_t shard_count) {
  return static_cast<std::size_t>(efp.prefix64() % shard_count);
}

/// Subdirectory of the engine root that shard `index` persists into.
[[nodiscard]] std::string shard_dir(const std::string& root,
                                    std::size_t index);

/// Path of the layout-pinning metadata file under `root`.
[[nodiscard]] std::string shard_meta_path(const std::string& root);

/// Record `shard_count` in root's shards.meta (atomic tmp+rename). Throws
/// ShardLayoutError on I/O failure — an unpinned layout is not safe to
/// write shard state under.
void write_shard_meta(const std::string& root, std::size_t shard_count);

/// Validate `root` against `shard_count` before any shard recovers:
///   * fresh directory (no meta, no shard state) => writes the meta;
///   * meta present and matching                 => ok;
///   * meta present but different count, meta unparseable, shard state
///     with no meta, or the older single-loop engine's layout
///     (submissions.wal in root) => throws ShardLayoutError naming the
///     conflict. That layout is refused, not migrated.
void check_or_pin_shard_layout(const std::string& root,
                               std::size_t shard_count);

}  // namespace wafp::service
