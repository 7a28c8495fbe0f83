// Crash-recovery property tests (ISSUE satellite): kill the service after
// every k-th submission of a 500-submission trace, recover from snapshot +
// WAL, and require the final connected components to be bit-identical (via
// FingerprintGraph::component_checksum) to an uninterrupted run -- including
// under duplicate/reorder fault schedules.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "service/collation_service.h"

namespace wafp::service {
namespace {

constexpr std::size_t kTraceLength = 500;
constexpr std::size_t kUsers = 37;
constexpr std::size_t kFamilies = 9;

std::vector<RawSubmission> make_trace() {
  std::vector<std::string> family_hex(kFamilies);
  for (std::size_t p = 0; p < kFamilies; ++p) {
    family_hex[p] = util::sha256("cr-family-" + std::to_string(p)).hex();
  }
  std::vector<RawSubmission> trace;
  trace.reserve(kTraceLength);
  for (std::size_t i = 0; i < kTraceLength; ++i) {
    RawSubmission raw;
    raw.user = static_cast<std::uint32_t>(i % kUsers);
    raw.vector = static_cast<std::uint32_t>(fingerprint::VectorId::kHybrid);
    raw.timestamp = i;  // globally increasing => per-user monotone
    // Mostly the user's family digest (drives cluster merges), with
    // deterministic per-user noise digests mixed in.
    if (i % 11 == 0) {
      raw.efp_hex = util::sha256("cr-noise-" + std::to_string(i)).hex();
    } else {
      raw.efp_hex = family_hex[raw.user % kFamilies];
    }
    trace.push_back(std::move(raw));
  }
  return trace;
}

/// Checksum of an uninterrupted in-memory run over the trace.
std::uint64_t uninterrupted_checksum(const std::vector<RawSubmission>& trace) {
  CollationService svc(ServiceConfig{});
  for (const auto& raw : trace) {
    EXPECT_TRUE(svc.submit(raw).accepted());
  }
  svc.pump();
  return svc.component_checksum();
}

/// The WAL of a one-shard engine rooted at `dir`.
std::string wal_path(const std::string& dir) {
  return (std::filesystem::path(shard_dir(dir, 0)) / "submissions.wal")
      .string();
}

ServiceConfig durable_config(const std::string& dir, FaultPlan faults = {}) {
  ServiceConfig config;
  config.state_dir = dir;
  config.snapshot_every = 64;  // force several snapshot+WAL-truncate cycles
  config.faults = faults;
  return config;
}

/// Feed `trace` through a durable service, crashing (and recovering) after
/// every k-th submission. Every submission is pumped to the WAL before a
/// crash can hit, so recovery must reproduce the full partition.
std::uint64_t interrupted_checksum(const std::vector<RawSubmission>& trace,
                                   std::size_t k, const std::string& dir,
                                   FaultPlan faults = {}) {
  std::filesystem::remove_all(dir);
  auto svc =
      std::make_unique<CollationService>(durable_config(dir, faults));
  std::size_t recoveries = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_TRUE(svc->submit(trace[i]).accepted()) << "submission " << i;
    svc->pump();  // durable before the crash window opens
    if ((i + 1) % k == 0) {
      svc->crash();  // drops in-memory state, skips shutdown checkpoint
      svc = std::make_unique<CollationService>(durable_config(dir, faults));
      ++recoveries;
    }
  }
  svc->drain_and_checkpoint();
  EXPECT_EQ(recoveries, trace.size() / k);
  EXPECT_GT(svc->stats().recovered_from_snapshot +
                svc->stats().recovered_from_wal,
            0u);
  const std::uint64_t checksum = svc->component_checksum();
  svc.reset();
  std::filesystem::remove_all(dir);
  return checksum;
}

TEST(CrashRecoveryTest, KilledEverySeventhSubmissionMatchesCleanRun) {
  const auto trace = make_trace();
  const std::uint64_t clean = uninterrupted_checksum(trace);
  EXPECT_EQ(interrupted_checksum(trace, 7, "cr_state_k7"), clean);
}

TEST(CrashRecoveryTest, KilledEveryFiftiethSubmissionMatchesCleanRun) {
  const auto trace = make_trace();
  const std::uint64_t clean = uninterrupted_checksum(trace);
  EXPECT_EQ(interrupted_checksum(trace, 50, "cr_state_k50"), clean);
}

TEST(CrashRecoveryTest, CrashImmediatelyAfterEverySubmission) {
  // The brutal schedule: k=1 restarts the service 500 times. Shortened
  // trace keeps the test fast; the property is the same.
  auto trace = make_trace();
  trace.resize(120);
  const std::uint64_t clean = uninterrupted_checksum(trace);
  EXPECT_EQ(interrupted_checksum(trace, 1, "cr_state_k1"), clean);
}

TEST(CrashRecoveryTest, ParityHoldsUnderDuplicateAndReorderFaults) {
  const auto trace = make_trace();
  const std::uint64_t clean = uninterrupted_checksum(trace);
  FaultPlan faults;
  faults.duplicate_every = 5;
  faults.reorder_every = 9;
  EXPECT_EQ(interrupted_checksum(trace, 13, "cr_state_faulty", faults),
            clean);
}

TEST(CrashRecoveryTest, RecoverySurvivesTornWalTail) {
  const std::string dir = "cr_state_torn";
  std::filesystem::remove_all(dir);
  const auto trace = make_trace();
  std::uint64_t before = 0;
  {
    CollationService svc(durable_config(dir));
    for (std::size_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(svc.submit(trace[i]).accepted());
    }
    svc.pump();
    before = svc.component_checksum();
    svc.crash();
  }
  {
    // Torn tail: a crash mid-append leaves a partial record on disk.
    std::ofstream wal(wal_path(dir), std::ios::binary | std::ios::app);
    wal << "12,6,999,deadbeef";
  }
  CollationService svc(durable_config(dir));
  EXPECT_EQ(svc.component_checksum(), before);
  svc.crash();
  std::filesystem::remove_all(dir);
}

ServiceConfig wal_only_config(const std::string& dir) {
  ServiceConfig config;
  config.state_dir = dir;
  config.snapshot_every = 0;  // keep every record in the WAL
  return config;
}

TEST(CrashRecoveryTest, AppendsAfterTornTailSurviveTheNextRecovery) {
  // Regression: recovery used to leave the torn partial line in place, so
  // the first post-recovery append merged into it; the *next* recovery then
  // stopped at that merged line and silently discarded every valid, acked
  // record appended after the tear.
  const std::string dir = "cr_state_torn_append";
  std::filesystem::remove_all(dir);
  const auto trace = make_trace();
  {
    CollationService svc(wal_only_config(dir));
    for (std::size_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(svc.submit(trace[i]).accepted());
    }
    svc.pump();
    svc.crash();
  }
  {
    // Crash mid-append: a partial record with no trailing newline.
    std::ofstream wal(wal_path(dir), std::ios::binary | std::ios::app);
    wal << "12,6,999,deadbeef";
  }
  {
    CollationService svc(wal_only_config(dir));
    EXPECT_EQ(svc.stats().wal_tail_lines_dropped, 1u);
    for (std::size_t i = 50; i < 100; ++i) {
      ASSERT_TRUE(svc.submit(trace[i]).accepted());
    }
    svc.pump();
    svc.crash();
  }
  CollationService svc(wal_only_config(dir));
  EXPECT_EQ(svc.stats().recovered_from_wal, 100u);
  const std::vector<RawSubmission> first_hundred(trace.begin(),
                                                 trace.begin() + 100);
  EXPECT_EQ(svc.component_checksum(), uninterrupted_checksum(first_hundred));
  svc.crash();
  std::filesystem::remove_all(dir);
}

TEST(CrashRecoveryTest, HeaderlessWalIsRepairedNotPoisonous) {
  // Regression: a pre-existing empty (0-byte) WAL used to make every later
  // append land in a headerless file that the next replay discarded
  // wholesale.
  const std::string dir = "cr_state_headerless";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(shard_dir(dir, 0));
  write_shard_meta(dir, 1);
  { std::ofstream wal(wal_path(dir)); }
  const auto trace = make_trace();
  {
    CollationService svc(wal_only_config(dir));
    for (std::size_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(svc.submit(trace[i]).accepted());
    }
    svc.pump();
    svc.crash();
  }
  CollationService svc(wal_only_config(dir));
  EXPECT_EQ(svc.stats().recovered_from_wal, 20u);
  svc.crash();
  std::filesystem::remove_all(dir);
}

TEST(CrashRecoveryTest, CorruptSnapshotIsReportedNotSilentlyUsed) {
  const std::string dir = "cr_state_corrupt";
  std::filesystem::remove_all(dir);
  const auto trace = make_trace();
  {
    FaultPlan faults;
    faults.corrupt_snapshot = true;
    CollationService svc(durable_config(dir, faults));
    for (std::size_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(svc.submit(trace[i]).accepted());
    }
    svc.pump();  // crosses snapshot_every => writes a (corrupted) snapshot
    EXPECT_GT(svc.stats().snapshots_written, 0u);
    svc.crash();
  }
  EXPECT_THROW(CollationService svc(durable_config(dir)),
               SnapshotCorruptError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wafp::service
