// Lockstep differential testing of the streamed drift-scenario verifier:
// every epoch's FMR/FNMR counts, anonymity-set stats, cluster count, and
// pair churn out of ScenarioRunner (which streams through a real
// CollationService) must equal the brute-force RefVerifier — re-implemented
// from the normative spec comment in src/scenario/scenario.h with no
// shared code — at every shard count, including kill-every-k durable runs
// where the engine crashes and recovers mid-scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "ref_verifier.h"
#include "scenario/scenario.h"

namespace wafp::testing {
namespace {

constexpr std::size_t kShardCounts[] = {1, 2, 8};

/// Replay the scenario's observation stream (regenerated independently of
/// the runner) through the brute-force verifier, in lockstep.
std::vector<scenario::VerificationEpoch> reference_epochs(
    const scenario::ScenarioConfig& config) {
  scenario::ScenarioPopulation population(config.num_users, config.seed,
                                          config.tuning, config.drift,
                                          config.flakiness_override);
  std::vector<fingerprint::VectorId> vectors = config.vectors;
  if (vectors.empty()) vectors = scenario::default_scenario_vectors();
  scenario::ScenarioStream stream(population, config.source, vectors,
                                  /*threads=*/1);
  RefVerifier ref(config.num_users);
  std::vector<scenario::VerificationEpoch> epochs;
  std::uint64_t previous_events = 0;
  for (std::uint32_t e = 0; e < config.epochs; ++e) {
    const std::vector<scenario::Observation> observations = stream.epoch(e);
    const std::uint64_t events = stream.drift_events() - previous_events;
    previous_events = stream.drift_events();
    epochs.push_back(ref.epoch(e, observations, events));
  }
  return epochs;
}

void expect_epochs_equal(const std::vector<scenario::VerificationEpoch>& got,
                         const std::vector<scenario::VerificationEpoch>& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t e = 0; e < want.size(); ++e) {
    if (got[e] == want[e]) continue;
    ADD_FAILURE() << context << ": epoch " << e << " diverged — "
                  << "probes " << got[e].verification.probes << "/"
                  << want[e].verification.probes << ", genuine "
                  << got[e].verification.genuine_accepts << "/"
                  << want[e].verification.genuine_accepts << ", fnm "
                  << got[e].verification.false_non_matches << "/"
                  << want[e].verification.false_non_matches << ", fm "
                  << got[e].verification.false_matches << "/"
                  << want[e].verification.false_matches << ", clusters "
                  << got[e].cluster_count << "/" << want[e].cluster_count
                  << ", churn +" << got[e].churn.merge_pairs << "/-"
                  << got[e].churn.split_pairs << " vs +"
                  << want[e].churn.merge_pairs << "/-"
                  << want[e].churn.split_pairs << ", min_k "
                  << got[e].anonymity.min_k << "/" << want[e].anonymity.min_k
                  << ", drift " << got[e].drift_events << "/"
                  << want[e].drift_events;
    return;
  }
}

// Moderate-drift synthetic scenarios at three seeds: the streamed runner
// matches the oracle at every shard count, and the canonical partition
// checksum is shard-count-invariant.
TEST(ScenarioOracleTest, SyntheticLockstepAcrossShardCountsAndSeeds) {
  for (const std::uint64_t seed : {11U, 22U, 33U}) {
    scenario::ScenarioConfig config;
    config.num_users = 48;
    config.epochs = 8;
    config.seed = seed;
    config.drift.stack_swap_rate = 0.10;
    config.drift.simd_tier_rate = 0.06;
    config.drift.jitter_regime_rate = 0.05;
    config.drift.seed = seed * 1000 + 7;
    const auto want = reference_epochs(config);

    std::uint64_t first_checksum = 0;
    for (const std::size_t shards : kShardCounts) {
      config.shards = shards;
      scenario::ScenarioRunner runner(config);
      const scenario::ScenarioResult result = runner.run();
      expect_epochs_equal(result.epochs, want,
                          "seed " + std::to_string(seed) + " shards " +
                              std::to_string(shards));
      std::uint64_t total_events = 0;
      for (const auto& epoch : result.epochs) {
        total_events += epoch.drift_events;
      }
      EXPECT_EQ(result.drift_events, total_events);
      EXPECT_NE(result.component_checksum, 0U);
      if (shards == 1) {
        first_checksum = result.component_checksum;
      } else {
        EXPECT_EQ(result.component_checksum, first_checksum)
            << "seed " << seed << " shards " << shards
            << ": sharded partition diverged from the one-shard run";
      }
    }
  }
}

// fresh_variants + pinned flakiness is the adversarial regime for the
// verifier (every swap lands on never-seen digests): still bit-exact
// against the oracle.
TEST(ScenarioOracleTest, FreshVariantHighDriftLockstep) {
  scenario::ScenarioConfig config;
  config.num_users = 40;
  config.epochs = 10;
  config.seed = 4242;
  config.drift.stack_swap_rate = 0.35;
  config.drift.simd_tier_rate = 0.20;
  config.drift.jitter_regime_rate = 0.15;
  config.drift.fresh_variants = true;
  config.flakiness_override = 0.4;
  const auto want = reference_epochs(config);
  for (const std::size_t shards : kShardCounts) {
    config.shards = shards;
    const scenario::ScenarioResult result =
        scenario::ScenarioRunner(config).run();
    expect_epochs_equal(result.epochs, want,
                        "shards " + std::to_string(shards));
  }
}

// Kill-every-k durable soak: the engine is crashed (no checkpoint) and
// recovered from WAL + snapshots every 3 epochs; all probes and label
// read-backs after recovery must still match the oracle, at every shard
// count.
TEST(ScenarioOracleTest, KillEveryKRecoveryLockstepPerShardCount) {
  scenario::ScenarioConfig config;
  config.num_users = 40;
  config.epochs = 9;
  config.seed = 99;
  config.drift.stack_swap_rate = 0.12;
  config.drift.simd_tier_rate = 0.08;
  config.drift.jitter_regime_rate = 0.06;
  config.kill_every = 3;
  const auto want = reference_epochs(config);
  for (const std::size_t shards : {1, 2, 8}) {
    const std::string dir = ::testing::TempDir() + "scenario_oracle_crash_" +
                            std::to_string(shards);
    std::filesystem::remove_all(dir);
    config.shards = shards;
    config.service.state_dir = dir;
    config.service.snapshot_every = 64;
    const scenario::ScenarioResult result =
        scenario::ScenarioRunner(config).run();
    expect_epochs_equal(result.epochs, want,
                        "kill-every-3 shards " + std::to_string(shards));
    std::filesystem::remove_all(dir);
  }
}

// The rendered source (real DSP through FingerprintCollector plus the WASM
// compute batteries) obeys the same spec: lockstep parity on a small
// cohort, at one shard and two.
TEST(ScenarioOracleTest, RenderedSourceLockstep) {
  scenario::ScenarioConfig config;
  config.num_users = 16;
  config.epochs = 4;
  config.seed = 314;
  config.source = scenario::ObservationSource::kRendered;
  config.vectors = {fingerprint::VectorId::kDc, fingerprint::VectorId::kFm,
                    fingerprint::VectorId::kWasmFloat,
                    fingerprint::VectorId::kWasmSimd};
  config.drift.stack_swap_rate = 0.15;
  config.drift.simd_tier_rate = 0.10;
  config.drift.jitter_regime_rate = 0.10;
  const auto want = reference_epochs(config);
  for (const std::size_t shards : {1, 2}) {
    config.shards = shards;
    const scenario::ScenarioResult result =
        scenario::ScenarioRunner(config).run();
    expect_epochs_equal(result.epochs, want,
                        "rendered shards " + std::to_string(shards));
  }
}

}  // namespace
}  // namespace wafp::testing
