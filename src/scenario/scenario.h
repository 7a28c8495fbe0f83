// ScenarioRunner: streams a drift scenario through a CollationService and
// scores verification per epoch (DESIGN.md §3k).
//
// Verification spec (normative — the brute-force RefVerifier in
// tests/scenario re-implements exactly this, from this text, sharing no
// code with the runner's engine path):
//
//   * Epoch 0 is enrollment: ingest only, no probes.
//   * For every epoch e >= 1, BEFORE ingesting epoch e:
//       - For each user u in ascending logical order, the probe is u's
//         epoch-e digests in vector order. Each digest is matched
//         INDIVIDUALLY (single-digest match = the cluster containing that
//         digest, or none — no tie is possible); the winner is the cluster
//         with the most per-digest votes, ties broken in favor of the
//         cluster whose first vote came earliest in probe order.
//       - Genuine trial: accept iff winner == u's own enrolled cluster.
//         No winner, or a different cluster, is a false non-match.
//       - Imposter trials: every probe scores (enrolled_users - 1) trials;
//         a winner cluster holding m enrolled users scores
//         m - (u in winner ? 1 : 0) false matches.
//   * AFTER ingesting epoch e (and at enrollment), per-user cluster labels
//     are read back, densified in first-seen order, and scored:
//     anonymity-set stats (analysis::anonymity_from_labels) and pair-count
//     churn against the previous epoch's labels (analysis::pair_churn).
//
// All metrics depend only on the equality structure of cluster ids, never
// their values, so every shard count — whose internal ids differ — must
// produce identical VerificationEpoch records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/anonymity.h"
#include "analysis/verification.h"
#include "obs/metrics.h"
#include "scenario/observe.h"
#include "scenario/trajectory.h"
#include "service/collation_service.h"

namespace wafp::scenario {

struct ScenarioConfig {
  std::size_t num_users = 512;
  /// Total epochs including enrollment (epoch 0); >= 1.
  std::uint32_t epochs = 12;
  std::uint64_t seed = 2021;
  platform::CatalogTuning tuning;
  DriftModel drift;
  ObservationSource source = ObservationSource::kSynthetic;
  /// Empty = default_scenario_vectors() (7 audio + 2 compute).
  std::vector<fingerprint::VectorId> vectors;

  /// Collation engine shard count, as service::make_engine (0 is read as
  /// 1). config.service.state_dir empty = in-memory.
  std::size_t shards = 1;
  service::ServiceConfig service;
  /// Crash + recover the engine after every k ingested epochs (0 = never);
  /// requires a non-empty state_dir.
  std::uint32_t kill_every = 0;

  /// Digest-generation parallelism (0 = default_thread_count()); any value
  /// produces bit-identical results.
  std::size_t threads = 1;

  /// Submission timestamps: epoch e stamps base + e * stride. Metrics are
  /// invariant under any relabeling (stride >= 1) — asserted by the
  /// metamorphic suite.
  std::uint64_t timestamp_base = 1;
  std::uint64_t timestamp_stride = 1;

  /// Non-zero: logical users are mapped to engine ids through a seeded
  /// permutation. Metrics are permutation-invariant (metamorphic suite).
  std::uint64_t user_id_salt = 0;

  /// >= 0 pins every user's fickleness (see ScenarioPopulation).
  double flakiness_override = -1.0;

  /// Metrics sink for the wafp_scenario_* instruments; nullptr = global.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One epoch's scorecard. Epoch 0 carries enrollment state only (zero
/// verification counts, zero churn).
struct VerificationEpoch {
  std::uint32_t epoch = 0;
  analysis::VerificationCounts verification;
  analysis::PairChurn churn;
  analysis::AnonymityStats anonymity;
  std::size_t cluster_count = 0;  // clusters holding >= 1 user
  std::uint64_t drift_events = 0;

  friend bool operator==(const VerificationEpoch&,
                         const VerificationEpoch&) = default;
};

struct ScenarioResult {
  std::vector<VerificationEpoch> epochs;
  std::uint64_t component_checksum = 0;
  std::uint64_t drift_events = 0;
  service::ServiceStats stats;

  /// Aggregate counts over all probe epochs.
  [[nodiscard]] analysis::VerificationCounts totals() const;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(const ScenarioConfig& config);

  /// Run the whole scenario. Deterministic in the config across thread
  /// counts and engine shapes (see class comment).
  [[nodiscard]] ScenarioResult run();

  [[nodiscard]] const ScenarioPopulation& population() const {
    return *population_;
  }

 private:
  ScenarioConfig config_;
  std::unique_ptr<ScenarioPopulation> population_;
  std::vector<std::uint32_t> engine_ids_;  // logical user -> engine id
};

}  // namespace wafp::scenario
