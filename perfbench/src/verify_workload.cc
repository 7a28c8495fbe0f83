// verify: longitudinal verification on the 4-shard in-memory engine, as
// bench/drift_scenario --shards 4 runs it, at its default drift rates.
//
//   set-up  a synthetic scenario::ScenarioStream generates every epoch's
//           observations for a U-user x E-epoch cohort (the pregenerated
//           input is part of the RSS).
//   job     a fresh in-memory engine; then per epoch, following the
//           scenario.h spec: every user is probed before ingest (one op =
//           one user's probe: 9 single-digest match calls plus the
//           plurality vote); the epoch is ingested (submit + pump); labels
//           are read back through user_component, which folds the merged
//           view, and scored with analysis::anonymity_from_labels and
//           analysis::pair_churn. No renders run.
//
// Reference: scenario::ScenarioRunner::run on the same config.
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/anonymity.h"
#include "analysis/verification.h"
#include "harness.h"
#include "scenario/observe.h"
#include "scenario/scenario.h"
#include "service/sharded_collation_service.h"

namespace perfbench {
namespace {

using wafp::scenario::Observation;
using wafp::scenario::VerificationEpoch;

constexpr std::size_t kUsers = 1000;
constexpr std::uint32_t kEpochs = 16;
constexpr std::size_t kShards = 4;

wafp::scenario::ScenarioConfig scenario_config(std::uint64_t seed) {
  wafp::scenario::ScenarioConfig config;
  config.num_users = kUsers;
  config.epochs = kEpochs;
  config.seed = seed;
  config.shards = kShards;
  config.threads = 1;
  // bench/drift_scenario's default drift rates.
  config.drift.stack_swap_rate = 0.02;
  config.drift.simd_tier_rate = 0.01;
  config.drift.jitter_regime_rate = 0.01;
  return config;
}

/// scenario.cc's plurality_winner, copied as it is (it is not exported), so
/// each timed probe runs the vote ScenarioRunner::run runs: most votes
/// wins, ties to the cluster whose first vote came earliest in probe order.
std::optional<std::size_t> plurality_winner(
    const std::vector<std::optional<std::size_t>>& votes) {
  std::vector<std::size_t> order;            // clusters by first vote
  std::unordered_map<std::size_t, std::size_t> counts;
  for (const auto& v : votes) {
    if (!v.has_value()) continue;
    auto [it, inserted] = counts.try_emplace(*v, 0);
    if (inserted) order.push_back(*v);
    ++it->second;
  }
  std::optional<std::size_t> winner;
  std::size_t best = 0;
  for (const std::size_t cluster : order) {
    if (counts[cluster] > best) {
      best = counts[cluster];
      winner = cluster;
    }
  }
  return winner;
}

void record_epochs(const std::vector<VerificationEpoch>& epochs,
                   std::uint64_t checksum, std::uint64_t drift_events,
                   Record& r) {
  for (const VerificationEpoch& e : epochs) {
    const std::string k = "epoch" + std::to_string(e.epoch) + ".";
    r.exact(k + "probes", e.verification.probes);
    r.exact(k + "genuine_accepts", e.verification.genuine_accepts);
    r.exact(k + "false_non_matches", e.verification.false_non_matches);
    r.exact(k + "false_matches", e.verification.false_matches);
    r.exact(k + "imposter_trials", e.verification.imposter_trials);
    r.metric(k + "fmr", e.verification.fmr());
    r.metric(k + "fnmr", e.verification.fnmr());
    r.exact(k + "merge_pairs", e.churn.merge_pairs);
    r.exact(k + "split_pairs", e.churn.split_pairs);
    r.exact(k + "anonymity.min_k", e.anonymity.min_k);
    r.exact(k + "anonymity.median_k", e.anonymity.median_k);
    r.exact(k + "anonymity.max_k", e.anonymity.max_k);
    r.exact(k + "anonymity.unique_users", e.anonymity.unique_users);
    r.exact(k + "anonymity.below_5", e.anonymity.below_5);
    r.exact(k + "anonymity.below_20", e.anonymity.below_20);
    r.metric(k + "anonymity.expected_k", e.anonymity.expected_k);
    r.exact(k + "clusters", e.cluster_count);
    r.exact(k + "drift_events", e.drift_events);
  }
  r.hex("component_checksum", checksum);
  r.exact("drift_events", drift_events);
}

class VerifyWorkload final : public Workload {
 public:
  explicit VerifyWorkload(const Options& options)
      : config_(scenario_config(options.seed)) {}

  Counts set_up(Tracer& tracer) override {
    Scope setup(tracer, "bench.setup");
    Scope scope(tracer, "scenario.stream");
    population_ = std::make_unique<wafp::scenario::ScenarioPopulation>(
        config_.num_users, config_.seed, config_.tuning, config_.drift,
        config_.flakiness_override);
    wafp::scenario::ScenarioStream stream(
        *population_, config_.source,
        wafp::scenario::default_scenario_vectors(), config_.threads);
    input_.resize(kEpochs);
    drift_.resize(kEpochs);
    for (std::uint32_t e = 0; e < kEpochs; ++e) {
      input_[e] = stream.epoch(e);
      drift_[e] = stream.drift_events();
    }
    per_user_ = stream.vectors().size();
    std::uint64_t observations = 0;
    for (const auto& epoch : input_) observations += epoch.size();
    return {
        {"scenario.observations", static_cast<double>(observations)},
        {"scenario.drift_events", static_cast<double>(drift_.back())},
        {"scenario.input_mb",
         static_cast<double>(observations * sizeof(Observation)) * 1e-6},
    };
  }

  Job run_job(Tracer& tracer) override {
    Job job;
    const std::size_t users = kUsers;
    std::unique_ptr<wafp::service::CollationEngine> engine;
    std::vector<VerificationEpoch> epochs;
    std::vector<int> previous_labels;
    std::vector<std::optional<std::size_t>> components(users);
    std::vector<std::optional<std::size_t>> votes(per_user_);
    std::uint64_t rejected = 0;
    std::uint64_t probes = 0;
    std::uint64_t checksum = 0;

    // Label read-back: user_component for every user (service); the
    // harness densifies them in first-seen order.
    const auto read_components = [&] {
      Scope scope(tracer, "service.labels");
      for (std::size_t u = 0; u < users; ++u) {
        components[u] =
            engine->user_component(static_cast<std::uint32_t>(u));
      }
    };

    const std::int64_t job_start = now_ns();
    {
      Scope root(tracer, "bench.job");
      {
        Scope scope(tracer, "service.open");
        engine = wafp::service::make_engine(config_.service, kShards);
      }
      for (std::uint32_t e = 0; e < kEpochs; ++e) {
        const std::vector<Observation>& observations = input_[e];
        VerificationEpoch epoch;
        epoch.epoch = e;

        if (e >= 1) {
          read_components();
          const std::vector<std::optional<std::size_t>>& own = components;
          std::unordered_map<std::size_t, std::uint64_t> census;
          for (const auto& c : own) {
            if (c.has_value()) ++census[*c];
          }
          for (std::size_t u = 0; u < users; ++u) {
            const std::uint64_t op = ++probes;
            const std::int64_t t0 = now_ns();
            {
              Scope probe(tracer, "bench.probe", op);
              {
                Scope scope(tracer, "service.match", op);
                for (std::size_t v = 0; v < per_user_; ++v) {
                  votes[v] = engine->match(
                      {&observations[u * per_user_ + v].digest, 1});
                }
              }
              const std::optional<std::size_t> winner =
                  plurality_winner(votes);
              ++epoch.verification.probes;
              epoch.verification.imposter_trials += users - 1;
              const bool genuine = winner.has_value() && own[u].has_value() &&
                                   *winner == *own[u];
              if (genuine) {
                ++epoch.verification.genuine_accepts;
              } else {
                ++epoch.verification.false_non_matches;
              }
              if (winner.has_value()) {
                const auto it = census.find(*winner);
                const std::uint64_t members =
                    it == census.end() ? 0 : it->second;
                epoch.verification.false_matches +=
                    members - (genuine ? 1 : 0);
              }
            }
            job.op_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
          }
        }

        {
          Scope scope(tracer, "service.ingest");
          const std::uint64_t timestamp =
              config_.timestamp_base + config_.timestamp_stride * e;
          for (const Observation& o : observations) {
            wafp::service::RawSubmission raw;
            raw.user = o.user;
            raw.vector = static_cast<std::uint32_t>(o.vector);
            raw.timestamp = timestamp;
            raw.efp_hex = o.digest.hex();
            auto result = engine->submit(raw);
            while (result.reason == wafp::service::Reject::kQueueFull) {
              engine->pump();
              result = engine->submit(raw);
            }
            if (!result.accepted()) ++rejected;
          }
          engine->pump();
        }

        read_components();
        std::vector<int> labels(users);
        std::unordered_map<std::size_t, int> dense;
        for (std::size_t u = 0; u < users; ++u) {
          const std::size_t c = components[u].value_or(SIZE_MAX);
          labels[u] = dense.try_emplace(c, static_cast<int>(dense.size()))
                          .first->second;
        }
        epoch.cluster_count = dense.size();
        {
          Scope scope(tracer, "analysis.anonymity");
          epoch.anonymity = wafp::analysis::anonymity_from_labels(labels);
        }
        if (e >= 1) {
          Scope scope(tracer, "analysis.churn");
          epoch.churn = wafp::analysis::pair_churn(previous_labels, labels);
        }
        previous_labels = std::move(labels);
        epoch.drift_events = drift_[e] - (e == 0 ? 0 : drift_[e - 1]);
        epochs.push_back(epoch);
      }
      Scope scope(tracer, "service.checkpoint");
      engine->drain_and_checkpoint();
      checksum = engine->component_checksum();
    }
    job.job_s = seconds_between(job_start, now_ns());
    job.failed = rejected;

    const wafp::service::ServiceStats stats = engine->stats();
    Counts& c = job.counts;
    c["service.accepted"] = static_cast<double>(stats.accepted);
    c["service.rejected"] = static_cast<double>(rejected);
    c["service.applied"] = static_cast<double>(stats.applied);
    c["service.probes"] = static_cast<double>(probes);
    if (const auto* sharded =
            dynamic_cast<const wafp::service::ShardedCollationService*>(
                engine.get())) {
      const wafp::service::ShardedStats s = sharded->sharded_stats();
      c["service.migrations"] = static_cast<double>(s.migration_records);
      c["service.view_builds"] = static_cast<double>(s.merged_view_builds);
    }
    record_epochs(epochs, checksum, drift_.back(), job.record);
    return job;
  }

  Record reference() override {
    wafp::scenario::ScenarioRunner runner(config_);
    const wafp::scenario::ScenarioResult result = runner.run();
    Record r;
    record_epochs(result.epochs, result.component_checksum,
                  result.drift_events, r);
    return r;
  }

  /// The probes' plurality votes, the census and the label densifying are
  /// the harness's own work between layer calls.
  [[nodiscard]] double coverage_floor() const override { return 0.9; }

 private:
  wafp::scenario::ScenarioConfig config_;
  std::unique_ptr<wafp::scenario::ScenarioPopulation> population_;
  std::vector<std::vector<Observation>> input_;
  std::vector<std::uint64_t> drift_;
  std::size_t per_user_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_verify(const Options& options) {
  return std::make_unique<VerifyWorkload>(options);
}

}  // namespace perfbench
