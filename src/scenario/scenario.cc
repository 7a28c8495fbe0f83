#include "scenario/scenario.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "util/check.h"
#include "util/rng.h"

namespace wafp::scenario {
namespace {

/// Submit with the standard backpressure loop (kQueueFull = pump + retry).
void submit_pumping(service::CollationService& engine,
                    const service::RawSubmission& raw) {
  auto result = engine.submit(raw);
  while (result.reason == service::Reject::kQueueFull) {
    engine.pump();
    result = engine.submit(raw);
  }
  WAFP_CHECK(result.accepted())
      << "scenario submission rejected: "
      << service::to_string(result);
}

/// The documented per-digest plurality rule (scenario.h): most votes wins,
/// ties to the cluster whose first vote came earliest in probe order.
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

}  // namespace

analysis::VerificationCounts ScenarioResult::totals() const {
  analysis::VerificationCounts sum;
  for (const VerificationEpoch& e : epochs) sum += e.verification;
  return sum;
}

ScenarioRunner::ScenarioRunner(const ScenarioConfig& config)
    : config_(config),
      population_(std::make_unique<ScenarioPopulation>(
          config.num_users, config.seed, config.tuning, config.drift,
          config.flakiness_override)) {
  WAFP_CHECK(config_.epochs >= 1) << "a scenario needs at least enrollment";
  WAFP_CHECK(config_.timestamp_stride >= 1)
      << "timestamp relabeling must stay strictly increasing across epochs";
  WAFP_CHECK(config_.kill_every == 0 || !config_.service.state_dir.empty())
      << "kill-every-k recovery needs a durable state_dir";

  // Logical -> engine user ids: identity by default, else the permutation
  // induced by sorting the users' derived keys (ties impossible: the key
  // includes the index).
  engine_ids_.resize(population_->size());
  std::iota(engine_ids_.begin(), engine_ids_.end(), 0U);
  if (config_.user_id_salt != 0) {
    std::vector<std::uint32_t> slots = engine_ids_;
    std::sort(slots.begin(), slots.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const std::uint64_t ka =
                    util::derive_seed(config_.user_id_salt, a);
                const std::uint64_t kb =
                    util::derive_seed(config_.user_id_salt, b);
                return ka != kb ? ka < kb : a < b;
              });
    for (std::size_t rank = 0; rank < slots.size(); ++rank) {
      engine_ids_[slots[rank]] = static_cast<std::uint32_t>(rank);
    }
  }
}

ScenarioResult ScenarioRunner::run() {
  obs::MetricsRegistry& metrics = config_.metrics != nullptr
                                      ? *config_.metrics
                                      : obs::MetricsRegistry::global();
  obs::Counter& epochs_total = metrics.counter(
      "wafp_scenario_epochs_total", "drift-scenario epochs processed");
  obs::Counter& probes_total = metrics.counter(
      "wafp_scenario_probes_total", "verification probes (genuine trials)");
  obs::Counter& false_matches_total =
      metrics.counter("wafp_scenario_false_matches_total",
                      "imposter collisions across all probes");
  obs::Counter& false_non_matches_total =
      metrics.counter("wafp_scenario_false_non_matches_total",
                      "genuine probes that missed their own cluster");
  obs::Counter& drift_events_total = metrics.counter(
      "wafp_scenario_drift_events_total", "drift events applied");
  obs::Histogram& epoch_ns = metrics.histogram(
      "wafp_scenario_epoch_ns", "wall time per scenario epoch (ns)");

  ScenarioStream stream(*population_, config_.source, config_.vectors,
                        config_.threads);
  std::unique_ptr<service::CollationService> engine =
      service::make_engine(config_.service, config_.shards);

  const std::size_t users = population_->size();
  ScenarioResult result;
  result.epochs.reserve(config_.epochs);
  std::vector<int> previous_labels;
  std::uint64_t previous_drift_events = 0;

  // Per-epoch label read-back: engine-internal cluster ids, densified in
  // ascending logical-user order. Everything downstream consumes only the
  // labels' equality structure.
  const auto read_labels = [&](std::vector<int>& labels) {
    labels.resize(users);
    std::unordered_map<std::size_t, int> dense;
    for (std::size_t u = 0; u < users; ++u) {
      const auto component = engine->user_component(engine_ids_[u]);
      WAFP_CHECK(component.has_value())
          << "enrolled user " << u << " missing from the collated state";
      const auto [it, inserted] =
          dense.try_emplace(*component, static_cast<int>(dense.size()));
      labels[u] = it->second;
    }
    return dense.size();
  };

  for (std::uint32_t e = 0; e < config_.epochs; ++e) {
    const std::uint64_t t0 = metrics.now_ns();
    const std::vector<Observation> observations = stream.epoch(e);
    const std::uint64_t timestamp =
        config_.timestamp_base + config_.timestamp_stride * e;

    VerificationEpoch epoch;
    epoch.epoch = e;

    if (e >= 1) {
      // Probe BEFORE ingest, against the state as of epoch e - 1. Build
      // the enrolled cluster census once (O(users)), then score each
      // user's plurality winner against it.
      std::vector<std::optional<std::size_t>> own(users);
      std::unordered_map<std::size_t, std::uint64_t> census;
      for (std::size_t u = 0; u < users; ++u) {
        own[u] = engine->user_component(engine_ids_[u]);
        WAFP_CHECK(own[u].has_value())
            << "enrolled user " << u << " missing from the collated state";
        ++census[*own[u]];
      }
      const std::size_t per_user = stream.vectors().size();
      std::vector<std::optional<std::size_t>> votes(per_user);
      for (std::size_t u = 0; u < users; ++u) {
        for (std::size_t v = 0; v < per_user; ++v) {
          const Observation& obs = observations[u * per_user + v];
          votes[v] = engine->match({&obs.digest, 1});
        }
        const std::optional<std::size_t> winner = plurality_winner(votes);
        ++epoch.verification.probes;
        epoch.verification.imposter_trials += users - 1;
        if (winner.has_value() && *winner == *own[u]) {
          ++epoch.verification.genuine_accepts;
        } else {
          ++epoch.verification.false_non_matches;
        }
        if (winner.has_value()) {
          const auto it = census.find(*winner);
          const std::uint64_t members =
              it == census.end() ? 0 : it->second;
          epoch.verification.false_matches +=
              members - (*winner == *own[u] ? 1 : 0);
        }
      }
    }

    // Ingest epoch e (user-major, vector-minor — the stream's order).
    for (const Observation& obs : observations) {
      service::RawSubmission raw;
      raw.user = engine_ids_[obs.user];
      raw.vector = static_cast<std::uint32_t>(obs.vector);
      raw.timestamp = timestamp;
      raw.efp_hex = obs.digest.hex();
      submit_pumping(*engine, raw);
    }
    engine->pump();

    // Post-ingest partition scoring.
    std::vector<int> labels;
    epoch.cluster_count = read_labels(labels);
    epoch.anonymity = analysis::anonymity_from_labels(labels);
    if (e >= 1) epoch.churn = analysis::pair_churn(previous_labels, labels);
    previous_labels = std::move(labels);

    epoch.drift_events = stream.drift_events() - previous_drift_events;
    previous_drift_events = stream.drift_events();

    epochs_total.inc();
    probes_total.inc(epoch.verification.probes);
    false_matches_total.inc(epoch.verification.false_matches);
    false_non_matches_total.inc(epoch.verification.false_non_matches);
    drift_events_total.inc(epoch.drift_events);
    epoch_ns.observe(metrics.now_ns() - t0);
    result.epochs.push_back(epoch);

    // Kill-every-k soak: checkpoint nothing, die, recover from WAL +
    // snapshots — every later probe and label read-back must be oblivious.
    if (config_.kill_every != 0 && (e + 1) % config_.kill_every == 0 &&
        e + 1 < config_.epochs) {
      engine->crash();
      engine.reset();
      engine = service::make_engine(config_.service, config_.shards);
    }
  }

  engine->drain_and_checkpoint();
  result.component_checksum = engine->component_checksum();
  result.drift_events = stream.drift_events();
  result.stats = engine->stats();
  return result;
}

}  // namespace wafp::scenario
