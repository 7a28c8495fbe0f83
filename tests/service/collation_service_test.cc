#include "service/collation_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "service/validator.h"
#include "service/wal.h"

namespace wafp::service {
namespace {

util::Digest efp(int i) { return util::sha256("svc-" + std::to_string(i)); }

RawSubmission raw_of(std::uint32_t user, int print, std::uint64_t ts) {
  RawSubmission raw;
  raw.user = user;
  raw.vector = static_cast<std::uint32_t>(fingerprint::VectorId::kAm);
  raw.timestamp = ts;
  raw.efp_hex = efp(print).hex();
  return raw;
}

TEST(ValidatorTest, HashFormat) {
  EXPECT_TRUE(is_valid_efp_hex(efp(1).hex()));
  EXPECT_FALSE(is_valid_efp_hex(""));
  EXPECT_FALSE(is_valid_efp_hex("abc"));                       // too short
  EXPECT_FALSE(is_valid_efp_hex(std::string(64, 'g')));        // not hex
  EXPECT_FALSE(is_valid_efp_hex(std::string(63, 'a') + "A"));  // uppercase
  EXPECT_FALSE(is_valid_efp_hex(std::string(65, 'a')));        // too long
  const auto parsed = parse_efp_hex(efp(7).hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, efp(7));  // hex -> digest -> hex round trip
}

TEST(ValidatorTest, VectorIds) {
  EXPECT_TRUE(is_known_vector(
      static_cast<std::uint32_t>(fingerprint::VectorId::kDc)));
  EXPECT_TRUE(is_known_vector(
      static_cast<std::uint32_t>(fingerprint::VectorId::kDistortion)));
  EXPECT_FALSE(is_known_vector(99));
  EXPECT_FALSE(is_known_vector(0xFFFFFFFFu));
}

TEST(ValidatorTest, TimestampMonotonicPerUser) {
  SubmissionValidator validator;
  Submission out;
  EXPECT_EQ(validator.validate(raw_of(1, 1, 100), out), Reject::kNone);
  validator.observe_timestamp(1, 100);
  // Equal timestamps are fine (several vectors per visit).
  EXPECT_EQ(validator.validate(raw_of(1, 2, 100), out), Reject::kNone);
  // Going backwards is not.
  EXPECT_EQ(validator.validate(raw_of(1, 3, 99), out),
            Reject::kTimestampRegression);
  // Other users are unaffected.
  EXPECT_EQ(validator.validate(raw_of(2, 3, 1), out), Reject::kNone);
}

TEST(CollationServiceTest, RejectsMalformedInputWithTypedErrors) {
  CollationService svc(ServiceConfig{});
  auto bad_hash = raw_of(1, 1, 1);
  bad_hash.efp_hex = "not-a-hash";
  EXPECT_EQ(svc.submit(bad_hash).reason, Reject::kMalformedHash);

  auto bad_vector = raw_of(1, 1, 1);
  bad_vector.vector = 1234;
  EXPECT_EQ(svc.submit(bad_vector).reason, Reject::kUnknownVector);

  ASSERT_TRUE(svc.submit(raw_of(1, 1, 50)).accepted());
  EXPECT_EQ(svc.submit(raw_of(1, 2, 49)).reason,
            Reject::kTimestampRegression);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.rejected_hash, 1u);
  EXPECT_EQ(stats.rejected_vector, 1u);
  EXPECT_EQ(stats.rejected_timestamp, 1u);
  EXPECT_EQ(stats.accepted, 1u);
}

TEST(CollationServiceTest, BoundedQueueBackpressure) {
  ServiceConfig config;
  config.queue_capacity = 4;
  CollationService svc(std::move(config));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(svc.submit(raw_of(1, i, 1)).accepted());
  }
  EXPECT_EQ(svc.submit(raw_of(1, 9, 1)).reason, Reject::kQueueFull);
  // A backpressure rejection must not advance the user clock: the same
  // submission is accepted after the queue drains.
  EXPECT_EQ(svc.pump(), 4u);
  EXPECT_TRUE(svc.submit(raw_of(1, 9, 1)).accepted());
}

TEST(CollationServiceTest, PumpAppliesToGraph) {
  CollationService svc(ServiceConfig{});
  ASSERT_TRUE(svc.submit(raw_of(1, 10, 1)).accepted());
  ASSERT_TRUE(svc.submit(raw_of(2, 10, 1)).accepted());
  ASSERT_TRUE(svc.submit(raw_of(3, 30, 1)).accepted());
  EXPECT_EQ(svc.user_count(), 0u);  // nothing applied yet
  EXPECT_EQ(svc.pump(), 3u);
  EXPECT_EQ(svc.user_count(), 3u);
  EXPECT_EQ(svc.user_component(1), svc.user_component(2));
  EXPECT_NE(svc.user_component(1), svc.user_component(3));
}

TEST(CollationServiceTest, DuplicatesAndReorderingDoNotChangeComponents) {
  // Reference run: clean network.
  CollationService clean(ServiceConfig{});
  // Faulty run: every 3rd submission duplicated, every 5th reordered.
  ServiceConfig faulty_cfg;
  faulty_cfg.faults.duplicate_every = 3;
  faulty_cfg.faults.reorder_every = 5;
  CollationService faulty(std::move(faulty_cfg));

  for (std::uint32_t user = 0; user < 40; ++user) {
    for (int it = 0; it < 3; ++it) {
      const auto raw = raw_of(user, static_cast<int>(user % 7), it);
      ASSERT_TRUE(clean.submit(raw).accepted());
      ASSERT_TRUE(faulty.submit(raw).accepted());
    }
  }
  clean.pump();
  faulty.pump();
  EXPECT_GT(faulty.stats().duplicated_by_fault, 0u);
  EXPECT_EQ(clean.component_checksum(), faulty.component_checksum());
}

TEST(CollationServiceTest, DroppedSubmissionsChangeTheGraph) {
  ServiceConfig lossy_cfg;
  lossy_cfg.faults.drop_every = 2;
  CollationService lossy(std::move(lossy_cfg));
  for (std::uint32_t user = 0; user < 10; ++user) {
    ASSERT_TRUE(lossy.submit(raw_of(user, static_cast<int>(user), 1))
                    .accepted());
  }
  lossy.pump();
  const auto stats = lossy.stats();
  EXPECT_EQ(stats.accepted, 10u);
  EXPECT_EQ(stats.dropped_by_fault, 5u);
  EXPECT_EQ(stats.applied, 5u);
  EXPECT_EQ(lossy.user_count(), 5u);
}

TEST(CollationServiceTest, TransientAppendFailureRetriesWithBackoff) {
  const std::string dir = "svc_test_retry_state";
  std::filesystem::remove_all(dir);
  std::vector<std::chrono::milliseconds> sleeps;
  ServiceConfig config;
  config.state_dir = dir;
  config.faults.fail_append_at = 2;  // second record fails once
  config.retry_backoff = std::chrono::milliseconds(3);
  config.sleeper = [&sleeps](std::chrono::milliseconds d) {
    sleeps.push_back(d);
  };
  CollationService svc(std::move(config));
  ASSERT_TRUE(svc.submit(raw_of(1, 1, 1)).accepted());
  ASSERT_TRUE(svc.submit(raw_of(1, 2, 2)).accepted());
  EXPECT_EQ(svc.pump(), 2u);  // both applied despite the transient failure
  EXPECT_EQ(svc.stats().wal_retries, 1u);
  ASSERT_EQ(sleeps.size(), 1u);
  EXPECT_EQ(sleeps[0], std::chrono::milliseconds(3));  // base backoff
  // The WAL holds both records (read before shutdown checkpoints/truncates).
  const auto replay = Wal::replay(
      (std::filesystem::path(shard_dir(dir, 0)) / "submissions.wal")
          .string());
  EXPECT_TRUE(replay.header_ok);
  EXPECT_EQ(replay.records.size(), 2u);
  svc.crash();  // skip the destructor checkpoint before deleting the dir
  std::filesystem::remove_all(dir);
}

TEST(CollationServiceTest, HardAppendFailureSurfacesTypedError) {
  const std::string dir = "svc_test_hard_state";
  std::filesystem::remove_all(dir);
  std::vector<std::chrono::milliseconds> sleeps;
  ServiceConfig config;
  config.state_dir = dir;
  config.max_append_retries = 2;
  config.retry_backoff = std::chrono::milliseconds(1);
  config.faults.fail_append_hard_at = 1;
  config.sleeper = [&sleeps](std::chrono::milliseconds d) {
    sleeps.push_back(d);
  };
  CollationService svc(std::move(config));
  ASSERT_TRUE(svc.submit(raw_of(1, 1, 1)).accepted());
  EXPECT_THROW(svc.pump(), WalAppendError);
  // Exponential backoff between the 3 attempts: 1ms then 2ms.
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(sleeps[0], std::chrono::milliseconds(1));
  EXPECT_EQ(sleeps[1], std::chrono::milliseconds(2));
  // The submission was not applied (durability before visibility)...
  EXPECT_EQ(svc.stats().applied, 0u);
  EXPECT_EQ(svc.user_count(), 0u);
  // ...but stays queued: once the disk heals, pumping applies it.
  EXPECT_EQ(svc.pump(), 1u);
  EXPECT_EQ(svc.user_count(), 1u);
  svc.crash();  // skip the destructor checkpoint; state dir is removed next
  std::filesystem::remove_all(dir);
}

TEST(CollationServiceTest, BackgroundWorkerDrainsQueue) {
  CollationService svc(ServiceConfig{});
  svc.start();
  for (std::uint32_t user = 0; user < 50; ++user) {
    for (int it = 0; it < 2; ++it) {
      auto result = svc.submit(raw_of(user, static_cast<int>(user % 5), it));
      while (result.reason == Reject::kQueueFull) {
        result = svc.submit(raw_of(user, static_cast<int>(user % 5), it));
      }
      ASSERT_TRUE(result.accepted());
    }
  }
  svc.stop();
  svc.pump();  // whatever the worker had not reached yet
  EXPECT_EQ(svc.stats().applied, 100u);
  EXPECT_EQ(svc.user_count(), 50u);
}

TEST(CollationServiceTest, WorkerSurvivesHardAppendFailure) {
  // Regression: a WalAppendError escaping the worker's thread function
  // called std::terminate, killing the whole process instead of surfacing
  // the typed error through stats.
  const std::string dir = "svc_test_worker_hard_state";
  std::filesystem::remove_all(dir);
  ServiceConfig config;
  config.state_dir = dir;
  config.max_append_retries = 1;
  config.faults.fail_append_hard_at = 1;
  config.sleeper = [](std::chrono::milliseconds) {};
  CollationService svc(std::move(config));
  svc.start();
  ASSERT_TRUE(svc.submit(raw_of(1, 1, 1)).accepted());
  for (int i = 0; i < 5000 && svc.stats().wal_append_failures == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(svc.stats().wal_append_failures, 1u);
  EXPECT_EQ(svc.stats().applied, 0u);  // not durable => not applied
  // The submission stayed queued and the fault ordinal has passed; a
  // restarted worker drains it.
  svc.start();
  for (int i = 0; i < 5000 && svc.stats().applied == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  svc.stop();
  EXPECT_EQ(svc.stats().applied, 1u);
  EXPECT_EQ(svc.user_count(), 1u);
  svc.crash();  // skip the destructor checkpoint; state dir is removed next
  std::filesystem::remove_all(dir);
}

TEST(CollationServiceTest, CheckpointingWorkersFreeTheirSpanStacks) {
  // Each start() worker that checkpoints opens the service/checkpoint span
  // on its own thread. The thread's span stack must die with the thread:
  // under LeakSanitizer a heap-allocated stack reports one leak per worker.
  const std::string dir = "svc_test_worker_checkpoint_state";
  std::filesystem::remove_all(dir);
  std::uint64_t checksum = 0;
  {
    ServiceConfig config;
    config.state_dir = dir;
    config.snapshot_every = 1;
    CollationService svc(std::move(config), 2);
    svc.start();
    for (std::uint32_t user = 0; user < 16; ++user) {
      const RawSubmission raw = raw_of(user, static_cast<int>(user % 4), 1);
      auto result = svc.submit(raw);
      while (result.reason == Reject::kQueueFull) result = svc.submit(raw);
      ASSERT_TRUE(result.accepted());
    }
    for (int i = 0; i < 5000 && svc.stats().applied < 16; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    svc.stop();
    EXPECT_EQ(svc.stats().applied, 16u);
    EXPECT_EQ(svc.stats().snapshots_written, 16u);  // one per applied record
    checksum = svc.component_checksum();
  }
  ServiceConfig recover_cfg;
  recover_cfg.state_dir = dir;
  CollationService recovered(std::move(recover_cfg), 2);
  EXPECT_EQ(recovered.component_checksum(), checksum);
  recovered.crash();
  std::filesystem::remove_all(dir);
}

TEST(CollationServiceTest, FsyncWalModeAppliesAndRecoversIdentically) {
  const std::string dir = "svc_test_fsync_state";
  std::filesystem::remove_all(dir);
  std::uint64_t checksum = 0;
  {
    ServiceConfig config;
    config.state_dir = dir;
    config.fsync_wal = true;
    config.snapshot_every = 0;  // keep every record in the WAL
    CollationService svc(std::move(config));
    for (std::uint32_t user = 0; user < 8; ++user) {
      ASSERT_TRUE(
          svc.submit(raw_of(user, static_cast<int>(user % 3), 1)).accepted());
    }
    EXPECT_EQ(svc.pump(), 8u);
    checksum = svc.component_checksum();
    svc.crash();  // recovery must come from the synced WAL alone
  }
  ServiceConfig recover_cfg;
  recover_cfg.state_dir = dir;
  recover_cfg.fsync_wal = true;
  CollationService recovered(std::move(recover_cfg));
  EXPECT_EQ(recovered.component_checksum(), checksum);
  EXPECT_EQ(recovered.stats().recovered_from_wal, 8u);
  recovered.crash();
  std::filesystem::remove_all(dir);
}

TEST(CollationServiceDeathTest, ConcurrentPumpTripsTheOwnerGuard) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Deterministic double entry, no thread race needed: the first pump's
  // retry backoff sleeper re-enters pump() on the same thread, which is
  // exactly the overlap the single-caller contract forbids.
  EXPECT_DEATH(
      {
        ServiceConfig config;
        config.state_dir = "svc_test_pump_guard_state";
        config.faults.fail_append_at = 1;  // force one retry (and a sleep)
        CollationService* reentrant = nullptr;
        config.sleeper = [&reentrant](std::chrono::milliseconds) {
          (void)reentrant->pump();
        };
        CollationService svc(std::move(config));
        reentrant = &svc;
        (void)svc.submit(raw_of(1, 1, 1));
        (void)svc.pump();
      },
      "pump entered while another pump is in flight");
  std::filesystem::remove_all("svc_test_pump_guard_state");
}

TEST(CollationServiceTest, SequentialPumpsNeverTripTheGuard) {
  // The guard must only fire on *overlapping* pumps: back-to-back serial
  // pumps (including via drain_and_checkpoint and after an exception) are
  // the documented workflow.
  CollationService svc(ServiceConfig{});
  ASSERT_TRUE(svc.submit(raw_of(1, 1, 1)).accepted());
  EXPECT_EQ(svc.pump(1), 1u);
  ASSERT_TRUE(svc.submit(raw_of(1, 2, 2)).accepted());
  EXPECT_EQ(svc.pump(), 1u);
  EXPECT_EQ(svc.pump(), 0u);  // empty queue, still no trip
  svc.drain_and_checkpoint();
  EXPECT_EQ(svc.user_count(), 1u);
}

TEST(CollationServiceTest, ShutdownAfterCrashRejectsSubmissions) {
  CollationService svc(ServiceConfig{});
  ASSERT_TRUE(svc.submit(raw_of(1, 1, 1)).accepted());
  svc.crash();
  EXPECT_EQ(svc.submit(raw_of(1, 2, 2)).reason, Reject::kShutdown);
  EXPECT_EQ(svc.user_count(), 0u);
}

}  // namespace
}  // namespace wafp::service
