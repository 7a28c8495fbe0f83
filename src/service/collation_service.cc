#include "service/collation_service.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <exception>
#include <filesystem>
#include <thread>
#include <utility>

#include "obs/span.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "util/check.h"

namespace wafp::service {
namespace {

/// Round-robin pump granularity: small enough that no shard's queue starves
/// behind another's backlog, large enough to amortize the per-chunk work.
constexpr std::size_t kPumpChunk = 256;

}  // namespace

/// One apply loop. graph, wal and the counters below it are pump-owned:
/// only the single thread inside pump_shard() (the shard's worker while it
/// runs) and the constructor's recovery touch them, so they carry no mutex;
/// queries read graph only while the engine is quiescent.
struct CollationService::Shard {
  /// One queued record plus its enqueue timestamp, so the pump can observe
  /// the ingest->apply latency the moment a submission reaches the graph.
  struct Queued {
    Submission s;
    std::uint64_t enqueued_ns = 0;
  };

  explicit Shard(std::string state_dir) : dir(std::move(state_dir)) {}

  [[nodiscard]] std::string wal_path() const {
    return (std::filesystem::path(dir) / "submissions.wal").string();
  }
  [[nodiscard]] std::string snapshot_path() const {
    return (std::filesystem::path(dir) / "graph.snapshot").string();
  }

  const std::string dir;  // empty = volatile
  collation::FingerprintGraph graph;
  /// Null while the shard runs without durable state (and after crash()).
  std::unique_ptr<Wal> wal;
  std::uint64_t appends = 0;  // storage-fault ordinal: WAL records written
  std::uint64_t applied = 0;  // records in graph (the snapshot's count)
  std::uint64_t applied_since_snapshot = 0;

  util::Mutex mu;
  std::deque<Queued> queue WAFP_GUARDED_BY(mu);

  /// Owner flag backing pump's single-caller contract.
  std::atomic<bool> pump_active{false};
  std::atomic<bool> running{false};
  util::Mutex worker_mu;  // serializes join/launch of worker
  std::thread worker WAFP_GUARDED_BY(worker_mu);
};

/// What one shard's recovery hands back to the router.
struct CollationService::Recovery {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> clocks;
  std::uint64_t from_snapshot = 0;
  std::uint64_t from_wal = 0;
  std::uint64_t tail_lines_dropped = 0;
};

CollationService::CollationService(ServiceConfig config, std::size_t shards)
    : config_(std::move(config)),
      metrics_(config_.metrics != nullptr ? *config_.metrics
                                          : obs::MetricsRegistry::global()),
      queue_depth_gauge_(metrics_.gauge(
          "wafp_service_queue_depth", "Submissions waiting in the ingest "
                                      "queues, all shards")),
      ingest_apply_ns_(metrics_.histogram(
          "wafp_service_ingest_apply_ns",
          "Latency from submit() enqueue to graph apply (ns)")),
      wal_append_ns_(metrics_.histogram(
          "wafp_wal_append_ns",
          "One WAL append attempt, write through flush (ns)")),
      snapshot_ns_(metrics_.histogram("wafp_service_snapshot_ns",
                                      "Checkpoint (snapshot write + WAL "
                                      "truncate) duration (ns)")),
      wal_appends_counter_(metrics_.counter("wafp_wal_appends_total",
                                            "Successful WAL record writes")),
      wal_retries_counter_(metrics_.counter(
          "wafp_wal_retries_total", "Transient WAL append failures retried")),
      applied_counter_(metrics_.counter(
          "wafp_service_applied_total",
          "Submissions applied to the collation graph (excluding recovery "
          "replay)")),
      recovered_snapshot_counter_(metrics_.counter(
          "wafp_service_recovered_from_snapshot_total",
          "Submissions restored from the snapshot at recovery")),
      recovered_wal_counter_(metrics_.counter(
          "wafp_service_recovered_from_wal_total",
          "Submissions replayed from the WAL at recovery")),
      submissions_counter_(metrics_.counter(
          "wafp_shard_submissions_total",
          "Router-level submit() calls on the collation engine")),
      migrations_counter_(metrics_.counter(
          "wafp_shard_migrations_total",
          "Durable cross-shard migration records (a user's first fingerprint "
          "routed to a shard they were not yet resident on)")),
      cross_shard_users_gauge_(metrics_.gauge(
          "wafp_shard_cross_shard_users",
          "Users currently resident on more than one shard")),
      view_builds_counter_(metrics_.counter(
          "wafp_shard_merged_view_builds_total",
          "Merged global graph view rebuilds (epoch cache misses)")),
      view_build_ns_(metrics_.histogram(
          "wafp_shard_merged_view_build_ns",
          "Merged global graph view rebuild duration (ns)")),
      recovery_ns_(metrics_.histogram(
          "wafp_shard_recovery_ns",
          "Per-shard recovery duration at engine construction (ns)")) {
  WAFP_CHECK(shards >= 1 && shards <= kMaxShards)
      << "shard count " << shards << " outside [1, " << kMaxShards << "]";
  if (!config_.sleeper) {
    config_.sleeper = [](std::chrono::milliseconds d) {
      std::this_thread::sleep_for(d);
    };
  }
  const bool durable = !config_.state_dir.empty();
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        durable ? shard_dir(config_.state_dir, i) : std::string()));
  }
  if (!durable) return;
  WAFP_SPAN_IN(metrics_, "service/recover");
  check_or_pin_shard_layout(config_.state_dir, shards);

  // Each shard replays its own snapshot + WAL; with several shards that is
  // embarrassingly parallel, with one it runs on this thread.
  std::vector<Recovery> recovered(shards);
  if (shards == 1) {
    recovered[0] = recover(*shards_[0]);
  } else {
    std::vector<std::exception_ptr> errors(shards);
    std::vector<std::thread> workers;
    workers.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      workers.emplace_back([&, i] {
        try {
          recovered[i] = recover(*shards_[i]);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  // Re-arm the router: per-user clocks are the max over every shard's
  // snapshot clocks and replayed records; residency comes from the shard
  // graphs. Rebuilding residency is not migrating, so no migration counts.
  util::MutexLock lock(mu_);
  for (std::size_t i = 0; i < shards; ++i) {
    const Recovery& r = recovered[i];
    for (const auto& [user, ts] : r.clocks) {
      validator_.observe_timestamp(user, ts);
    }
    stats_.applied += r.from_snapshot + r.from_wal;
    stats_.recovered_from_snapshot += r.from_snapshot;
    stats_.recovered_from_wal += r.from_wal;
    stats_.wal_tail_lines_dropped += r.tail_lines_dropped;
    if (shards == 1) continue;
    for (const auto& [user, node] : shards_[i]->graph.export_state().users) {
      residency_[user] |= std::uint64_t{1} << i;
    }
  }
  for (const auto& [user, mask] : residency_) {
    if (std::popcount(mask) > 1) ++cross_shard_users_;
  }
  cross_shard_users_gauge_.add(static_cast<std::int64_t>(cross_shard_users_));
}

CollationService::~CollationService() {
  stop();
  // crash() closes the WALs, so this drains only a live durable engine.
  if (shards_.front()->wal != nullptr) {
    try {
      drain_and_checkpoint();
    } catch (...) {
      // Destructors must not throw; an uncheckpointed tail stays in the
      // WAL, which recovery replays — nothing durable is lost.
    }
  }
  discard_queued();
  util::MutexLock lock(mu_);
  cross_shard_users_gauge_.add(-static_cast<std::int64_t>(cross_shard_users_));
}

CollationService::Recovery CollationService::recover(Shard& shard) {
  const std::uint64_t t0 = metrics_.now_ns();
  std::filesystem::create_directories(shard.dir);
  Recovery r;
  auto snapshot = load_snapshot(shard.snapshot_path());
  if (snapshot.has_value()) {
    shard.graph = collation::FingerprintGraph::import_state(snapshot->graph);
    r.clocks = std::move(snapshot->user_clocks);
    r.from_snapshot = snapshot->applied;
  }
  const WalReplay replay = Wal::replay(shard.wal_path());
  for (const Submission& s : replay.records) {
    r.clocks.emplace_back(s.user, s.timestamp);
    shard.graph.add_observation(s.user, s.efp);
  }
  r.from_wal = replay.records.size();
  shard.applied = r.from_snapshot + r.from_wal;
  shard.applied_since_snapshot = r.from_wal;
  recovered_snapshot_counter_.inc(r.from_snapshot);
  recovered_wal_counter_.inc(r.from_wal);
  // A torn tail (or missing header) must be rewritten away before the WAL
  // reopens for append: a record appended onto a partial final line would
  // merge with it, and the *next* replay would stop at that merged line and
  // silently discard every valid record written after the tear.
  if (replay.needs_repair()) {
    Wal::repair(shard.wal_path(), replay);
    r.tail_lines_dropped = replay.corrupt_tail_lines;
  }
  // Open the WAL for appending only after replay read it.
  shard.wal =
      std::make_unique<Wal>(shard.wal_path(), &metrics_, config_.fsync_wal);
  recovery_ns_.observe(metrics_.now_ns() - t0);
  // Note: if a crash hit between snapshot rename and WAL truncation, the
  // replayed records overlap the snapshot. add_observation is idempotent on
  // the partition, so the components are still exact; only the applied
  // counter can overcount across that narrow window.
  return r;
}

SubmitResult CollationService::submit(const RawSubmission& raw) {
  util::MutexLock lock(mu_);
  submissions_counter_.inc();
  ++stats_.submitted;
  if (crashed_) return {Reject::kShutdown};

  Submission s;
  const Reject reason = validator_.validate(raw, s);
  switch (reason) {
    case Reject::kMalformedHash:
      ++stats_.rejected_hash;
      return {reason};
    case Reject::kUnknownVector:
      ++stats_.rejected_vector;
      return {reason};
    case Reject::kTimestampRegression:
      ++stats_.rejected_timestamp;
      return {reason};
    case Reject::kNone:
      break;
    case Reject::kQueueFull:
    case Reject::kShutdown:
      WAFP_CHECK(false) << "validator returned pipeline-stage reject "
                        << to_string(reason);
  }

  // One shard needs no routing, and skipping it skips a 64-bit division.
  const std::size_t target =
      shards_.size() == 1 ? 0 : shard_for_digest(s.efp, shards_.size());
  Shard& shard = *shards_[target];
  util::MutexLock queue_lock(shard.mu);
  if (shard.queue.size() >= config_.queue_capacity) {
    ++stats_.rejected_queue_full;
    return {Reject::kQueueFull};
  }

  ++stats_.accepted;
  validator_.observe_timestamp(s.user, s.timestamp);
  const std::uint64_t ordinal = ++accepted_ordinal_;
  if (fault_hits(ordinal, config_.faults.drop_every)) {
    // Network loss after the ack: the submission never reaches a shard.
    ++stats_.dropped_by_fault;
    return {Reject::kNone};
  }
  if (shards_.size() > 1) note_residency_locked(s.user, target);
  const Shard::Queued queued{s, metrics_.now_ns()};
  shard.queue.push_back(queued);
  std::int64_t pushed = 1;
  if (fault_hits(ordinal, config_.faults.duplicate_every)) {
    // Duplicate delivery; may exceed the queue bound by one.
    shard.queue.push_back(queued);
    ++pushed;
    ++stats_.duplicated_by_fault;
  }
  if (fault_hits(ordinal, config_.faults.reorder_every) &&
      shard.queue.size() >= 2) {
    std::swap(shard.queue[shard.queue.size() - 1],
              shard.queue[shard.queue.size() - 2]);
  }
  queue_depth_gauge_.add(pushed);
  return {Reject::kNone};
}

void CollationService::note_residency_locked(std::uint32_t user,
                                             std::size_t shard) {
  const std::uint64_t bit = std::uint64_t{1} << shard;
  auto [it, inserted] = residency_.try_emplace(user, bit);
  if (inserted || (it->second & bit) != 0) return;
  it->second |= bit;
  ++migration_records_;
  migrations_counter_.inc();
  if (std::popcount(it->second) == 2) {
    ++cross_shard_users_;
    cross_shard_users_gauge_.add(1);
  }
}

void CollationService::append_with_retry(Shard& shard, const Submission& s) {
  const std::uint64_t ordinal = ++shard.appends;
  const bool hard = ordinal == config_.faults.fail_append_hard_at;
  const bool transient =
      ordinal == config_.faults.fail_append_at ||
      fault_hits(ordinal, config_.faults.fail_append_every);
  for (std::size_t attempt = 0; attempt <= config_.max_append_retries;
       ++attempt) {
    const bool inject = hard || (transient && attempt == 0);
    const std::uint64_t t0 = metrics_.now_ns();
    const bool ok = shard.wal->append(s, inject);
    wal_append_ns_.observe(metrics_.now_ns() - t0);
    if (ok) {
      wal_appends_counter_.inc();
      return;
    }
    wal_retries_counter_.inc();
    {
      util::MutexLock lock(mu_);
      ++stats_.wal_retries;
    }
    if (attempt < config_.max_append_retries) {
      config_.sleeper(config_.retry_backoff * (1u << attempt));
    }
  }
  throw WalAppendError("WAL append failed after " +
                       std::to_string(1 + config_.max_append_retries) +
                       " attempts");
}

std::size_t CollationService::pump(std::size_t max_records) {
  // Another round only while some shard used its whole chunk: a shard that
  // returned less has drained its queue.
  std::size_t total = 0;
  bool more = true;
  while (more && total < max_records) {
    more = false;
    for (const auto& shard : shards_) {
      if (total >= max_records) break;
      const std::size_t budget = std::min(kPumpChunk, max_records - total);
      const std::size_t pumped = pump_shard(*shard, budget);
      total += pumped;
      more = more || pumped == budget;
    }
  }
  return total;
}

std::size_t CollationService::pump_shard(Shard& shard,
                                         std::size_t max_records) {
  // Enforce the single-caller contract: pump-owned state (graph, wal,
  // counters) is mutex-free by design, so a second concurrent caller is
  // memory corruption, not a performance bug. Abort loudly instead.
  WAFP_CHECK(!shard.pump_active.exchange(true, std::memory_order_acquire))
      << "CollationService::pump entered while another pump is in flight; "
         "exactly one caller (or the shard's worker) may pump at a time";
  // Releases the pump and publishes this call's applies once, also when an
  // append error unwinds, so a record costs one lock (the queue's).
  struct PumpScope {
    CollationService& svc;
    Shard& shard;
    std::uint64_t applied = 0;
    ~PumpScope() {
      if (applied > 0) {
        svc.applied_counter_.inc(applied);
        svc.queue_depth_gauge_.add(-static_cast<std::int64_t>(applied));
        util::MutexLock lock(svc.mu_);
        svc.stats_.applied += applied;
        if (shard.wal != nullptr) svc.stats_.wal_appends += applied;
      }
      shard.pump_active.store(false, std::memory_order_release);
    }
  } scope{*this, shard};

  while (scope.applied < max_records) {
    Shard::Queued queued;
    {
      util::MutexLock lock(shard.mu);
      if (shard.queue.empty()) break;
      queued = shard.queue.front();
      shard.queue.pop_front();
    }
    if (shard.wal != nullptr) {
      try {
        append_with_retry(shard, queued.s);
      } catch (...) {
        // Not durable => not applied. Requeue at the front so a later pump
        // (or an operator intervention) can retry in order.
        util::MutexLock lock(shard.mu);
        shard.queue.push_front(queued);
        throw;
      }
    }
    shard.graph.add_observation(queued.s.user, queued.s.efp);
    ++shard.applied;
    ++shard.applied_since_snapshot;
    ++scope.applied;
    ingest_apply_ns_.observe(metrics_.now_ns() - queued.enqueued_ns);
    if (shard.wal != nullptr && config_.snapshot_every != 0 &&
        shard.applied_since_snapshot >= config_.snapshot_every) {
      checkpoint(shard);
    }
  }
  return scope.applied;
}

void CollationService::checkpoint(Shard& shard) {
  WAFP_SPAN_IN(metrics_, "service/checkpoint");
  const std::uint64_t t0 = metrics_.now_ns();
  SnapshotState state;
  state.applied = shard.applied;
  {
    // Shards keep no clocks of their own: every snapshot carries the
    // router's clocks, and recovery max-merges them over the shards.
    util::MutexLock lock(mu_);
    state.user_clocks.assign(validator_.clocks().begin(),
                             validator_.clocks().end());
  }
  state.graph = shard.graph.export_state();
  if (!write_snapshot(shard.snapshot_path(), state)) return;  // keep WAL
  if (config_.faults.corrupt_snapshot) {
    corrupt_snapshot_file(shard.snapshot_path());
  }
  shard.wal->reset();
  shard.applied_since_snapshot = 0;
  snapshot_ns_.observe(metrics_.now_ns() - t0);
  util::MutexLock lock(mu_);
  ++stats_.snapshots_written;
}

void CollationService::drain_and_checkpoint() {
  stop();
  while (pump() > 0) {
  }
  for (const auto& owned : shards_) {
    Shard& shard = *owned;
    if (shard.wal != nullptr && shard.applied_since_snapshot > 0) {
      checkpoint(shard);
    }
  }
}

void CollationService::crash() {
  stop();
  {
    util::MutexLock lock(mu_);
    crashed_ = true;
    residency_.clear();
    cross_shard_users_gauge_.add(
        -static_cast<std::int64_t>(cross_shard_users_));
    cross_shard_users_ = 0;
  }
  discard_queued();
  for (const auto& owned : shards_) {
    Shard& shard = *owned;
    shard.wal.reset();
    shard.graph = collation::FingerprintGraph();
  }
  util::MutexLock lock(view_mu_);
  view_.reset();
}

void CollationService::discard_queued() {
  std::int64_t dropped = 0;
  for (const auto& owned : shards_) {
    Shard& shard = *owned;
    util::MutexLock lock(shard.mu);
    dropped += static_cast<std::int64_t>(shard.queue.size());
    shard.queue.clear();
  }
  queue_depth_gauge_.add(-dropped);
}

void CollationService::start() {
  for (const auto& owned : shards_) {
    Shard& shard = *owned;
    if (shard.running.exchange(true)) continue;
    util::MutexLock lock(shard.worker_mu);
    if (shard.worker.joinable()) shard.worker.join();  // reap a parked one
    shard.worker = std::thread([this, &shard] {
      while (shard.running.load(std::memory_order_relaxed)) {
        std::size_t applied = 0;
        try {
          applied = pump_shard(shard, kPumpChunk);
        } catch (const WalAppendError&) {
          // pump_shard() already requeued the submission. An exception
          // escaping a thread function would std::terminate the process,
          // so record the failure and park the worker. Clear running
          // *before* publishing the stat so an observer that sees the
          // failure count can immediately start() a replacement.
          shard.running.store(false, std::memory_order_relaxed);
          util::MutexLock stats_lock(mu_);
          ++stats_.wal_append_failures;
          break;
        }
        if (applied == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
}

void CollationService::stop() {
  for (const auto& owned : shards_) {
    Shard& shard = *owned;
    shard.running.store(false, std::memory_order_relaxed);
    util::MutexLock lock(shard.worker_mu);
    if (shard.worker.joinable()) shard.worker.join();
  }
}

ServiceStats CollationService::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

ShardedStats CollationService::sharded_stats() const {
  ShardedStats s;
  s.shards = shards_.size();
  {
    util::MutexLock lock(mu_);
    s.migration_records = migration_records_;
    s.cross_shard_users = cross_shard_users_;
  }
  util::MutexLock lock(view_mu_);
  s.merged_view_builds = view_builds_;
  return s;
}

std::uint64_t CollationService::max_observed_timestamp() const {
  util::MutexLock lock(mu_);
  std::uint64_t newest = 0;
  for (const auto& [user, ts] : validator_.clocks()) {
    newest = std::max(newest, ts);
  }
  return newest;
}

template <typename Fn>
auto CollationService::read(Fn&& fn) const {
  if (shards_.size() == 1) return fn(shards_.front()->graph);
  util::MutexLock lock(view_mu_);
  std::uint64_t applied = 0;
  {
    util::MutexLock stats_lock(mu_);
    applied = stats_.applied;
  }
  // Every apply bumps stats_.applied and crash() drops the view, so an
  // unchanged count means no shard graph changed since the build.
  if (view_ == nullptr || view_applied_ != applied) {
    const std::uint64_t t0 = metrics_.now_ns();
    auto fresh = std::make_unique<collation::FingerprintGraph>();
    for (const auto& shard : shards_) {
      fresh->merge_state(shard->graph.export_state());
    }
    view_ = std::move(fresh);
    view_applied_ = applied;
    ++view_builds_;
    view_builds_counter_.inc();
    view_build_ns_.observe(metrics_.now_ns() - t0);
  }
  return fn(*view_);
}

std::uint64_t CollationService::component_checksum() const {
  return read([](const collation::FingerprintGraph& g) {
    return g.component_checksum();
  });
}

std::size_t CollationService::cluster_count() const {
  return read(
      [](const collation::FingerprintGraph& g) { return g.cluster_count(); });
}

std::size_t CollationService::user_count() const {
  return read(
      [](const collation::FingerprintGraph& g) { return g.user_count(); });
}

std::size_t CollationService::fingerprint_count() const {
  return read([](const collation::FingerprintGraph& g) {
    return g.fingerprint_count();
  });
}

std::vector<std::size_t> CollationService::cluster_user_counts() const {
  return read([](const collation::FingerprintGraph& g) {
    return g.cluster_user_counts();
  });
}

std::optional<std::size_t> CollationService::match(
    std::span<const util::Digest> probe) const {
  return read(
      [probe](const collation::FingerprintGraph& g) { return g.match(probe); });
}

std::optional<std::size_t> CollationService::user_component(
    std::uint32_t user) const {
  return read([user](const collation::FingerprintGraph& g) {
    return g.user_component(user);
  });
}

std::unique_ptr<CollationService> make_engine(const ServiceConfig& base,
                                              std::size_t shards) {
  return std::make_unique<CollationService>(base, std::max<std::size_t>(
                                                      shards, 1));
}

}  // namespace wafp::service
