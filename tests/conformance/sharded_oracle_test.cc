// Differential testing of the collation engine across shard counts: a
// 540-sequence brute-force oracle budget (260 clean + 160 fault-injected +
// 120 kill-every-k durable sequences), every sequence replayed at several
// shard counts, and the partition checksum must agree with BOTH the
// brute-force RefBipartiteGraph oracle and a one-shard run on the
// byte-identical trace. Sharding is an implementation detail of the
// engine; if any shard count can be told apart through
// component_checksum(), that is a routing, merge, or recovery bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "service/collation_service.h"
#include "testing/oracles.h"

namespace wafp::testing {
namespace {

constexpr std::size_t kShardCounts[] = {1, 2, 8};
constexpr std::size_t kOpsPerSequence = 120;

/// Replay `trace` through a one-shard engine and return its partition
/// checksum — the second witness every shard count must agree with.
std::uint64_t single_checksum(const std::vector<service::RawSubmission>& trace,
                              const service::ServiceConfig& config) {
  const auto svc = service::make_engine(config, /*shards=*/1);
  for (const auto& raw : trace) {
    EXPECT_TRUE(svc->submit(raw).accepted());
  }
  svc->pump();
  return svc->component_checksum();
}

// 260 clean in-memory sequences, each replayed at 1/2/8 shards: merged
// checksum == brute force == one-shard run, and the aggregate stats agree
// with the trace.
TEST(ShardedOracleTest, CleanParityAcrossShardCounts) {
  for (std::uint64_t seed = 1; seed <= 260; ++seed) {
    const auto trace = make_submission_trace(seed, kOpsPerSequence);
    const std::uint64_t oracle = brute_force_submission_checksum(trace);
    const service::ServiceConfig config;
    const std::uint64_t single = single_checksum(trace, config);
    ASSERT_EQ(single, oracle) << "seed " << seed;
    for (const std::size_t shards : kShardCounts) {
      const auto svc = service::make_engine(config, shards);
      for (const auto& raw : trace) {
        ASSERT_TRUE(svc->submit(raw).accepted())
            << "seed " << seed << " shards " << shards;
      }
      svc->pump();
      ASSERT_EQ(svc->component_checksum(), oracle)
          << "seed " << seed << " shards " << shards
          << ": sharded partition diverged";
      const auto stats = svc->stats();
      ASSERT_EQ(stats.accepted, trace.size());
      ASSERT_EQ(stats.applied, trace.size());
    }
  }
}

// 160 fault-injected sequences: network faults (drop/duplicate/reorder)
// run at the router on its ordinals and storage faults run per shard, so
// every shard count must land on the identical checksum — the brute-force
// drop model for drops, bit-parity for everything else.
TEST(ShardedOracleTest, FaultInjectedParityAcrossShardCounts) {
  const std::uint64_t drop_periods[] = {0, 3, 5, 11};
  for (std::uint64_t seed = 1; seed <= 160; ++seed) {
    const auto trace = make_submission_trace(seed, kOpsPerSequence);
    service::ServiceConfig config;
    config.faults.drop_every = drop_periods[seed % 4];
    config.faults.duplicate_every = (seed % 3 == 0) ? 7 : 0;
    config.faults.reorder_every = (seed % 2 == 0) ? 5 : 0;
    const std::uint64_t oracle =
        brute_force_submission_checksum(trace, config.faults.drop_every);
    const std::uint64_t single = single_checksum(trace, config);
    ASSERT_EQ(single, oracle) << "seed " << seed;
    const std::size_t shards = kShardCounts[seed % 3];
    const auto svc = service::make_engine(config, shards);
    for (const auto& raw : trace) {
      ASSERT_TRUE(svc->submit(raw).accepted());
    }
    svc->pump();
    ASSERT_EQ(svc->component_checksum(), oracle)
        << "seed " << seed << " shards " << shards << " drop_every "
        << config.faults.drop_every
        << ": faults visible through the sharded partition";
    if (config.faults.drop_every != 0) {
      ASSERT_EQ(svc->stats().dropped_by_fault,
                trace.size() / config.faults.drop_every)
          << "router drop schedule diverged from global ordinals";
    }
  }
}

// 120 durable kill-every-k sequences across shard counts: every shard
// recovers from its own snapshot + WAL after each kill, the router re-arms
// its global clocks from the recovered shards, and the merged partition
// must still match the brute-force oracle.
TEST(ShardedOracleTest, KillEveryKRecoveryParityPerShardCount) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const auto trace = make_submission_trace(seed, kOpsPerSequence);
    const std::size_t shards = kShardCounts[seed % 3];
    const std::string dir =
        ::testing::TempDir() + "sharded_oracle_crash_" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    const auto make_config = [&] {
      service::ServiceConfig config;
      config.state_dir = dir;
      config.snapshot_every = 32;  // several per-shard snapshot cycles
      config.faults.duplicate_every = 6;
      config.faults.reorder_every = 9;
      return config;
    };
    auto svc = service::make_engine(make_config(), shards);
    const std::size_t kill_every = 17 + seed % 13;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_TRUE(svc->submit(trace[i]).accepted())
          << "seed " << seed << " submission " << i;
      svc->pump();  // durable on the owning shard before the crash window
      if ((i + 1) % kill_every == 0) {
        svc->crash();
        svc = service::make_engine(make_config(), shards);
      }
    }
    svc->pump();
    EXPECT_EQ(svc->component_checksum(),
              brute_force_submission_checksum(trace))
        << "seed " << seed << " shards " << shards
        << ": recovered sharded partition diverged from the oracle";
    svc.reset();
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace wafp::testing
