// Multi-shard CollationService unit + fault-matrix tests: the shard layout
// pin, per-shard torn-WAL-tail repair, cross-shard migration accounting,
// the merged-view epoch cache, engine-wide metrics, and the shard-count
// argument of make_engine. Whole-suite parity against the brute-force
// oracle lives in tests/conformance/sharded_oracle_test.cc; this file
// exercises the parts of the sharded engine a checksum cannot see.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "service/collation_service.h"
#include "testing/oracles.h"

namespace wafp::testing {
namespace {

using service::CollationService;
using service::RawSubmission;
using service::ServiceConfig;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sharded_svc_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void run_trace(CollationService& svc,
               const std::vector<RawSubmission>& trace) {
  for (const RawSubmission& raw : trace) {
    ASSERT_TRUE(svc.submit(raw).accepted());
  }
  svc.pump();
}

/// One user whose 16 digests split across both shards of a 2-shard engine.
std::vector<RawSubmission> cross_shard_user_trace() {
  std::vector<RawSubmission> trace;
  std::uint64_t mask = 0;
  for (std::uint64_t i = 0; i < 16; ++i) {
    RawSubmission raw;
    raw.user = 7;
    raw.vector = 0;
    raw.timestamp = i;
    raw.efp_hex = test_digest(i).hex();
    mask |= std::uint64_t{1}
            << service::shard_for_digest(digest_from_hex(raw.efp_hex), 2);
    trace.push_back(std::move(raw));
  }
  EXPECT_EQ(mask, 0b11u) << "test digests all routed to one shard";
  return trace;
}

TEST(ShardedServiceTest, ShardCountMismatchIsAHardDiagnosableError) {
  const std::string dir = temp_dir("layout");
  {
    ServiceConfig config;
    config.state_dir = dir;
    const auto svc = service::make_engine(config, 4);
    run_trace(*svc, make_submission_trace(1, 40));
    svc->drain_and_checkpoint();
  }
  ServiceConfig config;
  config.state_dir = dir;
  try {
    const auto svc = service::make_engine(config, 2);
    FAIL() << "reopening a 4-shard layout with 2 shards must throw";
  } catch (const service::ShardLayoutError& e) {
    // The message must diagnose the mismatch, not just refuse.
    EXPECT_NE(std::string(e.what()).find('4'), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find('2'), std::string::npos) << e.what();
  }
  // The pinned count still works.
  const auto svc = service::make_engine(config, 4);
  EXPECT_GT(svc->user_count(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ShardedServiceTest, OldSingleLoopLayoutIsRefusedAtEveryShardCount) {
  // The older single-loop engine kept its WAL in the state dir's root with
  // no shards.meta; that state is refused, not migrated.
  const std::string dir = temp_dir("single_layout");
  std::filesystem::create_directories(dir);
  { std::ofstream(std::filesystem::path(dir) / "submissions.wal") << "x\n"; }
  for (const std::size_t shards : {1, 4}) {
    ServiceConfig config;
    config.state_dir = dir;
    EXPECT_THROW((void)service::make_engine(config, shards),
                 service::ShardLayoutError)
        << shards << " shard(s)";
  }
  EXPECT_FALSE(std::filesystem::exists(service::shard_meta_path(dir)));
  std::filesystem::remove_all(dir);
}

TEST(ShardedServiceTest, PerShardTornWalTailsAreRepairedOnRecovery) {
  const std::string dir = temp_dir("torn");
  const auto trace = make_submission_trace(3, 120);
  const auto make_config = [&] {
    ServiceConfig config;
    config.state_dir = dir;
    config.snapshot_every = 0;  // keep every record in the shard WALs
    return config;
  };
  constexpr std::size_t kShards = 4;
  std::uint64_t before = 0;
  {
    const auto svc = service::make_engine(make_config(), kShards);
    run_trace(*svc, trace);
    before = svc->component_checksum();
    svc->crash();
  }
  // Crash mid-append on EVERY shard: each shard WAL gets its own partial
  // trailing record, and each shard must repair its own tail.
  std::size_t torn = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    const auto wal_path = std::filesystem::path(service::shard_dir(dir, i)) /
                          "submissions.wal";
    if (!std::filesystem::exists(wal_path)) continue;
    std::ofstream wal(wal_path, std::ios::binary | std::ios::app);
    wal << "12,6,999,deadbeef";
    ++torn;
  }
  ASSERT_GT(torn, 0u);
  const auto svc = service::make_engine(make_config(), kShards);
  EXPECT_EQ(svc->component_checksum(), before);
  EXPECT_EQ(svc->stats().wal_tail_lines_dropped, torn);
  svc->crash();
  std::filesystem::remove_all(dir);
}

TEST(ShardedServiceTest, CorruptShardSnapshotFailsRecoveryLoudly) {
  const std::string dir = temp_dir("corrupt");
  ServiceConfig config;
  config.state_dir = dir;
  config.snapshot_every = 8;
  config.faults.corrupt_snapshot = true;  // rot every written snapshot
  {
    const auto svc = service::make_engine(config, 2);
    run_trace(*svc, make_submission_trace(4, 60));
    svc->drain_and_checkpoint();
    svc->crash();  // skip the destructor's checkpoint
  }
  // The shards recover in parallel; the corruption must still surface.
  config.faults.corrupt_snapshot = false;
  EXPECT_THROW((void)service::make_engine(config, 2),
               service::SnapshotCorruptError);
  std::filesystem::remove_all(dir);
}

TEST(ShardedServiceTest, CrossShardUsersAreCountedAsMigrations) {
  const auto trace = cross_shard_user_trace();
  CollationService svc(ServiceConfig{}, 2);
  run_trace(svc, trace);
  const auto stats = svc.sharded_stats();
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_EQ(stats.cross_shard_users, 1u);
  EXPECT_EQ(stats.migration_records, 1u);
  // The user's fingerprints all share one merged component regardless of
  // which shard holds each edge.
  EXPECT_EQ(svc.cluster_count(), 1u);
  EXPECT_EQ(svc.user_count(), 1u);
  EXPECT_EQ(svc.fingerprint_count(), trace.size());
}

TEST(ShardedServiceTest, RecoveryRearmsResidencyWithoutCountingMigrations) {
  const std::string dir = temp_dir("residency");
  ServiceConfig config;
  config.state_dir = dir;
  {
    CollationService svc(config, 2);
    run_trace(svc, cross_shard_user_trace());
  }  // the destructor checkpoints
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  CollationService recovered(config, 2);
  const auto stats = recovered.sharded_stats();
  EXPECT_EQ(stats.cross_shard_users, 1u);
  EXPECT_EQ(stats.migration_records, 0u);
  EXPECT_EQ(registry.counter("wafp_shard_migrations_total").value(),
            stats.migration_records);
  EXPECT_EQ(registry.gauge("wafp_shard_cross_shard_users").value(), 1);
  recovered.crash();
  std::filesystem::remove_all(dir);
}

TEST(ShardedServiceTest, QueueDepthGaugeCountsEveryShard) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  const auto svc = service::make_engine(config, 4);
  for (const RawSubmission& raw : make_submission_trace(9, 100)) {
    ASSERT_TRUE(svc->submit(raw).accepted());
  }
  obs::Gauge& depth = registry.gauge("wafp_service_queue_depth");
  EXPECT_EQ(depth.value(), 100);
  EXPECT_EQ(svc->pump(), 100u);
  EXPECT_EQ(depth.value(), 0);
}

TEST(ShardedServiceTest, MergedViewRebuildsOnlyWhenShardsApply) {
  CollationService svc(ServiceConfig{}, 4);
  run_trace(svc, make_submission_trace(5, 80));
  (void)svc.component_checksum();
  (void)svc.cluster_count();
  (void)svc.user_count();
  // Three queries against an unchanged partition = one epoch build.
  EXPECT_EQ(svc.sharded_stats().merged_view_builds, 1u);
  RawSubmission raw;
  raw.user = 1;
  raw.vector = 0;
  raw.timestamp = 1'000'000;
  raw.efp_hex = test_digest(999).hex();
  ASSERT_TRUE(svc.submit(raw).accepted());
  svc.pump();
  (void)svc.component_checksum();
  EXPECT_EQ(svc.sharded_stats().merged_view_builds, 2u);
}

TEST(ShardedServiceTest, OneShardReadsNeverBuildAMergedView) {
  // At N = 1 every read goes straight to shard 0's graph: interleaved
  // writes and reads must never fold a merged view.
  const auto svc = service::make_engine(ServiceConfig{}, 1);
  const auto trace = make_submission_trace(10, 120);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_TRUE(svc->submit(trace[i]).accepted());
    if (i % 10 != 9) continue;
    svc->pump();
    const util::Digest probe = digest_from_hex(trace[i].efp_hex);
    EXPECT_EQ(svc->match({&probe, 1}), svc->user_component(trace[i].user));
    (void)svc->component_checksum();
  }
  EXPECT_EQ(svc->component_checksum(),
            brute_force_submission_checksum(trace));
  EXPECT_EQ(svc->sharded_stats().merged_view_builds, 0u);
}

TEST(ShardedServiceTest, PumpHonorsTheRecordBudget) {
  CollationService svc(ServiceConfig{}, 4);
  const auto trace = make_submission_trace(7, 60);
  for (const RawSubmission& raw : trace) {
    ASSERT_TRUE(svc.submit(raw).accepted());
  }
  EXPECT_EQ(svc.pump(10), 10u);
  EXPECT_EQ(svc.pump(), trace.size() - 10);
  EXPECT_EQ(svc.stats().applied, trace.size());
}

TEST(ShardedServiceTest, PerShardQueueBackpressureSurfacesAsQueueFull) {
  ServiceConfig config;
  config.queue_capacity = 4;
  CollationService svc(config, 2);
  // Identical digest = one shard; the 5th+ submission must bounce.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    RawSubmission raw;
    raw.user = static_cast<std::uint32_t>(i);
    raw.vector = 0;
    raw.timestamp = i;
    raw.efp_hex = test_digest(42).hex();
    const auto result = svc.submit(raw);
    if (result.accepted()) {
      ++accepted;
    } else {
      ASSERT_EQ(result.reason, service::Reject::kQueueFull);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(rejected, 6u);
  EXPECT_EQ(svc.stats().rejected_queue_full, 6u);
  svc.pump();
  EXPECT_EQ(svc.stats().applied, 4u);
}

TEST(ShardedServiceTest, BackgroundWorkersDrainAllShards) {
  CollationService svc(ServiceConfig{}, 4);
  const auto trace = make_submission_trace(8, 200);
  svc.start();
  for (const RawSubmission& raw : trace) {
    auto result = svc.submit(raw);
    while (result.reason == service::Reject::kQueueFull) {
      result = svc.submit(raw);
    }
    ASSERT_TRUE(result.accepted());
  }
  svc.drain_and_checkpoint();
  EXPECT_EQ(svc.stats().applied, trace.size());
  EXPECT_EQ(svc.component_checksum(), brute_force_submission_checksum(trace));
}

TEST(ShardedServiceTest, EngineFactorySelectsTheRequestedEngine) {
  const ServiceConfig config;
  EXPECT_EQ(service::make_engine(config, 0)->shard_count(), 1u);
  EXPECT_EQ(service::make_engine(config, 1)->shard_count(), 1u);
  EXPECT_EQ(service::make_engine(config, 3)->shard_count(), 3u);
}

TEST(ShardedServiceTest, SubmitResultToStringCoversEveryOutcome) {
  ServiceConfig config;
  config.queue_capacity = 1;
  CollationService svc(config, 2);
  RawSubmission good;
  good.user = 1;
  good.vector = 0;
  good.timestamp = 5;
  good.efp_hex = test_digest(1).hex();
  EXPECT_EQ(service::to_string(svc.submit(good)), "accepted");
  RawSubmission bad_hash = good;
  bad_hash.efp_hex = "nope";
  EXPECT_EQ(service::to_string(svc.submit(bad_hash)), "malformed hash");
  RawSubmission bad_vector = good;
  bad_vector.vector = 10'000;
  EXPECT_EQ(service::to_string(svc.submit(bad_vector)), "unknown vector");
  RawSubmission regression = good;
  regression.timestamp = 1;
  regression.efp_hex = test_digest(2).hex();
  EXPECT_EQ(service::to_string(svc.submit(regression)),
            "timestamp regression");
  RawSubmission full = good;
  full.timestamp = 6;
  EXPECT_EQ(service::to_string(svc.submit(full)), "queue full");
  svc.crash();
  EXPECT_EQ(service::to_string(svc.submit(good)), "shutting down");
}

}  // namespace
}  // namespace wafp::testing
