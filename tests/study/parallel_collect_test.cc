// The determinism contract of the parallel pipeline: collection partitions
// users across threads, and every digest is a pure function of (profile
// stack, derived per-(user,vector,iteration) seed), so any thread count
// must produce a byte-identical dataset. These tests are the acceptance
// gate for parallel Dataset::collect.
#include <gtest/gtest.h>

#include <cstring>

#include "fingerprint/vector_registry.h"
#include "study/dataset.h"
#include "study/experiments.h"
#include "util/thread_pool.h"

namespace wafp::study {
namespace {

using fingerprint::VectorId;
using fingerprint::VectorRegistry;

StudyConfig config_with_threads(std::size_t threads) {
  StudyConfig cfg;
  cfg.num_users = 60;
  cfg.iterations = 8;
  cfg.seed = 7777;
  cfg.threads = threads;
  return cfg;
}

void expect_identical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  for (std::size_t u = 0; u < a.num_users(); ++u) {
    for (const VectorId id : VectorRegistry::instance().audio_ids()) {
      const auto oa = a.audio_observations(u, id);
      const auto ob = b.audio_observations(u, id);
      ASSERT_EQ(oa.size(), ob.size());
      ASSERT_EQ(0, std::memcmp(oa.data(), ob.data(),
                               oa.size() * sizeof(util::Digest)))
          << "audio digests differ for user " << u;
    }
    for (const fingerprint::VectorId id :
         {fingerprint::VectorId::kCanvas, fingerprint::VectorId::kFonts,
          fingerprint::VectorId::kUserAgent, fingerprint::VectorId::kMathJs}) {
      ASSERT_EQ(a.static_observation(u, id), b.static_observation(u, id))
          << "static digest differs for user " << u;
    }
  }
}

TEST(ParallelCollectTest, TwoThreadsBitIdenticalToSerial) {
  const Dataset serial = Dataset::collect(config_with_threads(1));
  const Dataset parallel = Dataset::collect(config_with_threads(2));
  expect_identical(serial, parallel);
}

TEST(ParallelCollectTest, EightThreadsBitIdenticalToSerial) {
  const Dataset serial = Dataset::collect(config_with_threads(1));
  const Dataset parallel = Dataset::collect(config_with_threads(8));
  expect_identical(serial, parallel);
}

TEST(ParallelCollectTest, FollowupConfigParity) {
  StudyConfig serial_cfg = StudyConfig::followup();
  serial_cfg.num_users = 50;  // follow-up seed/tuning, test-sized population
  serial_cfg.iterations = 6;
  serial_cfg.threads = 1;
  StudyConfig parallel_cfg = serial_cfg;
  parallel_cfg.threads = 8;
  expect_identical(Dataset::collect(serial_cfg),
                   Dataset::collect(parallel_cfg));
}

TEST(ParallelCollectTest, AnalysisMatchesSerialAnalysis) {
  // The analysis layer fans out on the shared pool; its outputs must not
  // depend on that pool's degree.
  const Dataset ds = Dataset::collect(config_with_threads(2));

  util::ThreadPool::set_shared_threads(1);
  const auto combined_serial = combined_audio_labels(ds);
  const auto agreement_serial =
      cluster_agreement(ds, fingerprint::VectorId::kHybrid, 2);
  const double match_serial =
      fingerprint_match_score(ds, fingerprint::VectorId::kHybrid, 2);
  const auto matrix_serial = cross_vector_agreement(ds);

  util::ThreadPool::set_shared_threads(4);
  EXPECT_EQ(combined_audio_labels(ds), combined_serial);
  const auto agreement_parallel =
      cluster_agreement(ds, fingerprint::VectorId::kHybrid, 2);
  EXPECT_EQ(agreement_parallel.mean_ami, agreement_serial.mean_ami);
  EXPECT_EQ(agreement_parallel.min_ami, agreement_serial.min_ami);
  EXPECT_EQ(fingerprint_match_score(ds, fingerprint::VectorId::kHybrid, 2),
            match_serial);
  EXPECT_EQ(cross_vector_agreement(ds), matrix_serial);

  util::ThreadPool::set_shared_threads(0);  // restore default for other tests
}

TEST(ParallelCollectTest, AudioVectorIdsOrderIsStable) {
  // Dataset::audio_vector_index assumes registry order == enum order; this
  // is the micro-assert guarding that table.
  const auto ids = VectorRegistry::instance().audio_ids();
  ASSERT_EQ(ids.size(), 7u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(ids[i]), i);
  }
  // And the accessor path built on it still works end to end.
  const Dataset ds = Dataset::collect(config_with_threads(2));
  EXPECT_EQ(ds.audio_observations(0, fingerprint::VectorId::kDc)[0],
            ds.audio_observation(0, fingerprint::VectorId::kDc, 0));
}

}  // namespace
}  // namespace wafp::study
