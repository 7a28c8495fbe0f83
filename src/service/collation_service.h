// CollationService: the online collation engine (DESIGN.md §3c, §3j)
// behind examples/tracking_server.cpp, the study parity bridge, the drift
// scenarios and the throughput benches.
//
// The paper's collation scheme (§3.2) is an online algorithm — submissions
// stream in and the user↔fingerprint bipartite graph merges clusters as
// they arrive. This engine wraps that graph with what a deployment needs:
//
//   submit(): validate -> network fault schedule -> route -> bounded queue
//   pump():   WAL append (retry with backoff) -> apply to graph -> snapshot
//
// Router and shards. The engine runs N >= 1 shards, fixed at construction.
// The router is the only admission point: it owns the one
// SubmissionValidator (per-user monotone clocks span shards), the network
// fault schedule (drop / duplicate / reorder on router ordinals), the
// ServiceStats and the user->shard residency masks, and hands each parsed
// Submission to shard shard_for_digest(efp, N). A shard is an apply loop:
// its bounded queue, graph, WAL, snapshots and storage-fault ordinal, plus
// one worker under start(). Every edge (user, efp) lives on exactly one
// shard, so users are the only cross-shard glue; a user's first
// fingerprint on a further shard counts as a migration.
//
// Durability, per shard: WAL-before-apply, snapshot-then-truncate. Replay
// after a crash is idempotent (re-uniting an existing edge is a partition
// no-op), so the snapshot/WAL-truncation race loses nothing. Recovery =
// load snapshot (checksum-verified) + replay WAL, then the router re-arms
// its clocks from the shards; the components are bit-identical to an
// uninterrupted run, witnessed by component_checksum(). Every N keeps the
// same layout under state_dir: shards.meta plus shard-<i>/ (sharding.h).
//
// Reads. At N = 1 every query reads shard 0's graph directly. At N > 1 a
// query folds the shards' partition exports into one merged graph, cached
// until the next apply.
//
// Contract:
//   * submit() is thread-safe; kQueueFull is backpressure, not failure —
//     the caller pumps (or waits for the workers) and resubmits.
//   * pump() may be called from one thread at a time, and never while
//     start()ed workers run; an overlapping pump of a shard aborts.
//   * The query surface (counts, match, user_component, checksum) requires
//     the engine quiescent: stopped, or no pump() in flight. Queries are
//     not snapshot-isolated.
//   * component_checksum() is the canonical order-independent partition
//     witness (FingerprintGraph::component_checksum): the same applied
//     observations give the same checksum at every shard count.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "collation/fingerprint_graph.h"
#include "obs/metrics.h"
#include "service/fault_injection.h"
#include "service/sharding.h"
#include "service/snapshot.h"
#include "service/types.h"
#include "service/validator.h"
#include "util/hash.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace wafp::service {

struct ServiceConfig {
  /// Engine root: shards.meta plus one WAL + snapshot directory per shard
  /// (shard-<i>/). Empty = volatile in-memory engine.
  std::string state_dir;

  /// Ingest queue bound per shard; submit() returns kQueueFull beyond it.
  std::size_t queue_capacity = 4096;

  /// Snapshot a shard after it applied this many submissions (0 = never
  /// snapshot; recovery then replays the whole WAL).
  std::size_t snapshot_every = 1024;

  /// When true, every WAL append fdatasync()s to disk so records survive an
  /// OS crash, not just a process crash. Default off: benches and tests
  /// measure the flush-only path honestly, and recovery parity never
  /// depended on fd-level sync (the kill model is process death).
  bool fsync_wal = false;

  /// WAL append retry policy for transient failures: total attempts =
  /// 1 + max_append_retries, sleeping retry_backoff * 2^attempt between.
  std::size_t max_append_retries = 3;
  std::chrono::milliseconds retry_backoff{1};

  /// Injectable sleeper so tests assert the backoff schedule without
  /// wall-clock waits; defaults to std::this_thread::sleep_for.
  std::function<void(std::chrono::milliseconds)> sleeper;

  /// Metrics sink for queue depth, ingest->apply latency, WAL timings,
  /// snapshot duration, recovery and shard counters. nullptr =
  /// obs::MetricsRegistry::global(). Purely observational; pair with
  /// MetricsRegistry::set_clock for deterministic latency tests.
  obs::MetricsRegistry* metrics = nullptr;

  /// Network faults (drop, duplicate, reorder) run at the router on its
  /// accepted ordinals; storage faults run per shard on its appends.
  FaultPlan faults;
};

/// Thrown when a WAL append keeps failing past the retry budget: the
/// submission cannot be made durable, so it is not applied.
class WalAppendError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Router-level extras beyond ServiceStats.
struct ShardedStats {
  std::size_t shards = 0;
  std::uint64_t migration_records = 0;  // user first seen on an extra shard
  std::uint64_t cross_shard_users = 0;  // users resident on >1 shard now
  std::uint64_t merged_view_builds = 0;
};

class CollationService {
 public:
  /// Largest supported shard count (residency masks are std::uint64_t).
  static constexpr std::size_t kMaxShards = 64;

  /// Construction pins (or checks) the state dir's shard layout — a
  /// mismatch is a ShardLayoutError — and recovers every shard; at N > 1
  /// the shards recover in parallel. Throws SnapshotCorruptError if a
  /// snapshot exists but fails verification.
  explicit CollationService(ServiceConfig config, std::size_t shards = 1);
  ~CollationService();

  CollationService(const CollationService&) = delete;
  CollationService& operator=(const CollationService&) = delete;

  /// Validate, admit and route one raw submission. Thread-safe. kQueueFull
  /// (the target shard's queue is at capacity) asks the caller to back off
  /// and resubmit; it consumes no fault ordinal and advances no clock.
  SubmitResult submit(const RawSubmission& raw);

  /// Drain up to `max_records` queued submissions into the shards' WALs
  /// and graphs, round-robin in bounded chunks; returns the number applied.
  /// A WalAppendError propagates with the record still queued on its shard.
  std::size_t pump(std::size_t max_records = SIZE_MAX);

  /// Background ingestion: one worker per shard pumps until stop().
  /// submit() keeps working concurrently. A worker whose WAL append
  /// exhausts its retry budget records the failure
  /// (stats().wal_append_failures) and parks itself with the record still
  /// queued; start() again resumes it.
  void start();
  void stop();

  /// Flush everything queued, then snapshot every shard with unsnapshotted
  /// applies. The orderly shutdown path (the destructor calls it for
  /// durable engines).
  void drain_and_checkpoint();

  /// Fault hook: abandon all in-memory state *without* checkpointing, as a
  /// kill -9 would. The next engine constructed on the same state_dir
  /// recovers from the shards' snapshots + WALs. (In-memory engines lose
  /// everything, which is the point.)
  void crash();

  /// Ingest-side counters are router truth; apply, WAL, snapshot and
  /// recovery counters add up over the shards.
  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] ShardedStats sharded_stats() const;

  /// Newest timestamp any user's clock has reached (0 if none). Lets a
  /// resuming producer pick timestamps that clear the recovered clocks
  /// instead of tripping kTimestampRegression.
  [[nodiscard]] std::uint64_t max_observed_timestamp() const;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  // --- Collated-state queries (engine quiescent; see the contract) -------

  /// Canonical partition checksum (crash-recovery and cross-shard-count
  /// parity witness).
  [[nodiscard]] std::uint64_t component_checksum() const;

  /// Number of collated fingerprints = connected components.
  [[nodiscard]] std::size_t cluster_count() const;
  [[nodiscard]] std::size_t user_count() const;
  [[nodiscard]] std::size_t fingerprint_count() const;

  /// Number of users in each cluster (unordered; fingerprint-only
  /// components excluded).
  [[nodiscard]] std::vector<std::size_t> cluster_user_counts() const;

  /// Probe matching (§3.3 "fingerprint match"): the component id the
  /// majority of known probe fingerprints belong to. Component ids are
  /// only comparable against user_component() of the same engine with no
  /// applies in between.
  [[nodiscard]] std::optional<std::size_t> match(
      std::span<const util::Digest> probe) const;

  /// Component id of a user (for comparing against match()).
  [[nodiscard]] std::optional<std::size_t> user_component(
      std::uint32_t user) const;

 private:
  struct Shard;
  struct Recovery;

  [[nodiscard]] Recovery recover(Shard& shard);
  void append_with_retry(Shard& shard, const Submission& s);
  std::size_t pump_shard(Shard& shard, std::size_t max_records);
  void checkpoint(Shard& shard);
  void discard_queued();
  void note_residency_locked(std::uint32_t user, std::size_t shard)
      WAFP_REQUIRES(mu_);

  /// Run `fn` on the graph queries read: shard 0's at N = 1, otherwise
  /// the merged view, rebuilt first if any shard applied since it was
  /// built.
  template <typename Fn>
  auto read(Fn&& fn) const;

  ServiceConfig config_;

  /// Resolved metrics sink plus instrument references (heap-stable in the
  /// registry, so resolving once at construction keeps the hot paths off
  /// the registry maps).
  obs::MetricsRegistry& metrics_;
  obs::Gauge& queue_depth_gauge_;
  obs::Histogram& ingest_apply_ns_;
  obs::Histogram& wal_append_ns_;
  obs::Histogram& snapshot_ns_;
  obs::Counter& wal_appends_counter_;
  obs::Counter& wal_retries_counter_;
  obs::Counter& applied_counter_;
  obs::Counter& recovered_snapshot_counter_;
  obs::Counter& recovered_wal_counter_;
  obs::Counter& submissions_counter_;
  obs::Counter& migrations_counter_;
  obs::Gauge& cross_shard_users_gauge_;
  obs::Counter& view_builds_counter_;
  obs::Histogram& view_build_ns_;
  obs::Histogram& recovery_ns_;

  /// Construction-immutable after the constructor returns.
  std::vector<std::unique_ptr<Shard>> shards_;

  // Router state. Lock order: mu_ before any shard's queue mutex.
  mutable util::Mutex mu_;
  SubmissionValidator validator_ WAFP_GUARDED_BY(mu_);
  ServiceStats stats_ WAFP_GUARDED_BY(mu_);
  /// Network-fault ordinal: accepted submissions so far.
  std::uint64_t accepted_ordinal_ WAFP_GUARDED_BY(mu_) = 0;
  /// user -> bitmask of shards holding at least one of their fingerprints
  /// (kept at N > 1 only).
  std::unordered_map<std::uint32_t, std::uint64_t> residency_
      WAFP_GUARDED_BY(mu_);
  std::uint64_t migration_records_ WAFP_GUARDED_BY(mu_) = 0;
  std::uint64_t cross_shard_users_ WAFP_GUARDED_BY(mu_) = 0;
  bool crashed_ WAFP_GUARDED_BY(mu_) = false;

  // The merged view (N > 1 only), valid while stats_.applied equals
  // view_applied_; crash() drops it.
  mutable util::Mutex view_mu_;
  mutable std::unique_ptr<collation::FingerprintGraph> view_
      WAFP_GUARDED_BY(view_mu_);
  mutable std::uint64_t view_applied_ WAFP_GUARDED_BY(view_mu_) = 0;
  mutable std::uint64_t view_builds_ WAFP_GUARDED_BY(view_mu_) = 0;
};

/// Engine factory: one CollationService with `shards` shards, 0 read as 1.
[[nodiscard]] std::unique_ptr<CollationService> make_engine(
    const ServiceConfig& base, std::size_t shards);

}  // namespace wafp::service
