// Differential testing of the collation service under fault injection:
// deterministic submission traces (from the shared op-sequence generator)
// run through a one-shard CollationService with drop/duplicate/reorder/
// append-fail fault plans and kill-every-k crash-recovery loops, and the
// resulting partition checksum is compared against the brute-force
// RefBipartiteGraph — an oracle that shares no code with the union-find,
// the WAL, or the snapshot path. Duplicates, reorders, transient append
// failures, and crashes must be invisible in the checksum; drops must match
// an explicit brute-force drop model, not merely "some other" result.
//
// The multi-shard suite (sharded_oracle_test.cc) reuses the same shared
// trace and oracle helpers at 1/2/8 shards.
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

TEST(ServiceOracleTest, CleanRunMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto trace = make_submission_trace(seed, 200);
    const auto svc = std::make_unique<service::CollationService>(
        service::ServiceConfig{});
    for (const auto& raw : trace) {
      ASSERT_TRUE(svc->submit(raw).accepted());
    }
    svc->pump();
    EXPECT_EQ(svc->component_checksum(),
              brute_force_submission_checksum(trace))
        << "seed " << seed;
  }
}

TEST(ServiceOracleTest, DuplicateReorderAndAppendFaultsAreInvisible) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto trace = make_submission_trace(seed, 200);
    const std::string dir =
        ::testing::TempDir() + "svc_oracle_faults_" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    service::ServiceConfig config;
    config.state_dir = dir;
    config.snapshot_every = 64;
    config.faults.duplicate_every = 7;
    config.faults.reorder_every = 5;
    config.faults.fail_append_at = 3;     // one transient failure early...
    config.faults.fail_append_every = 41; // ...and recurring ones after
    config.sleeper = [](std::chrono::milliseconds) {};  // no real backoff
    const auto svc = std::make_unique<service::CollationService>(config);
    for (const auto& raw : trace) {
      ASSERT_TRUE(svc->submit(raw).accepted());
    }
    svc->pump();
    const auto stats = svc->stats();
    EXPECT_GT(stats.duplicated_by_fault, 0u);
    EXPECT_GT(stats.wal_retries, 0u);
    EXPECT_EQ(svc->component_checksum(),
              brute_force_submission_checksum(trace))
        << "seed " << seed
        << ": duplicates/reorders/retries leaked into the partition";
    std::filesystem::remove_all(dir);
  }
}

TEST(ServiceOracleTest, DropFaultsMatchTheBruteForceDropModel) {
  const std::uint64_t drop_periods[] = {3, 5, 7, 11};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::uint64_t drop_every = drop_periods[seed % 4];
    const auto trace = make_submission_trace(seed, 200);
    service::ServiceConfig config;
    config.faults.drop_every = drop_every;
    const auto svc = std::make_unique<service::CollationService>(config);
    for (const auto& raw : trace) {
      ASSERT_TRUE(svc->submit(raw).accepted());  // drops still ack
    }
    svc->pump();
    const auto stats = svc->stats();
    EXPECT_EQ(stats.dropped_by_fault, trace.size() / drop_every);
    EXPECT_EQ(svc->component_checksum(),
              brute_force_submission_checksum(trace, drop_every))
        << "seed " << seed << " drop_every " << drop_every;
  }
}

TEST(ServiceOracleTest, KillEveryKRecoveryMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto trace = make_submission_trace(seed, 200);
    const std::string dir =
        ::testing::TempDir() + "svc_oracle_crash_" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    const auto make_config = [&] {
      service::ServiceConfig config;
      config.state_dir = dir;
      config.snapshot_every = 32;  // several snapshot+truncate cycles
      config.faults.duplicate_every = 6;
      config.faults.reorder_every = 9;
      return config;
    };
    auto svc = std::make_unique<service::CollationService>(make_config());
    const std::size_t kill_every = 17 + seed;  // vary the crash cadence
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_TRUE(svc->submit(trace[i]).accepted()) << "submission " << i;
      svc->pump();  // durable before the crash window opens
      if ((i + 1) % kill_every == 0) {
        svc->crash();
        svc = std::make_unique<service::CollationService>(make_config());
      }
    }
    svc->pump();
    EXPECT_EQ(svc->component_checksum(),
              brute_force_submission_checksum(trace))
        << "seed " << seed
        << ": recovered partition diverged from the brute-force oracle";
    svc.reset();
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace wafp::testing
