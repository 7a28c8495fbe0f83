// Longitudinal drift-scenario soak benchmark: a synthetic 100k+-user
// cohort streamed over 50+ epochs through the collation engine (at any
// shard count), with per-epoch verification (FMR/FNMR), anonymity-set stats,
// and collation churn scored along the way. Emits machine-readable
// BENCH_drift.json carrying the wafp_scenario_* metric families so the
// bench-smoke CI job can gate on schema and scale floors.
//
//   ./build/bench/drift_scenario [--smoke] [--out FILE] [--users N]
//                                [--epochs K] [--shards S] [--threads T]
//                                [--stack-swap-rate R] [--simd-rate R]
//                                [--jitter-rate R] [--seed S]
//
// The run double-checks its own soundness: probes/imposter-trial counts
// must match the closed forms, and with the default moderate drift the
// final FNMR must be nonzero (drift actually happened) while epoch 0
// carries no verification counts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "scenario/scenario.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace wafp;
  using Clock = std::chrono::steady_clock;

  bool smoke = false;
  std::string out_path = "BENCH_drift.json";
  scenario::ScenarioConfig config;
  config.num_users = 100000;
  config.epochs = 50;
  config.seed = 2022;
  config.threads = 0;  // default_thread_count()
  config.drift.stack_swap_rate = 0.02;
  config.drift.simd_tier_rate = 0.01;
  config.drift.jitter_regime_rate = 0.01;

  util::FlagParser flags(
      "drift_scenario",
      "Drift-scenario soak benchmark (BENCH_drift.json): synthetic cohort "
      "through the collation engine with per-epoch FMR/FNMR scoring.");
  flags.flag("--smoke", &smoke, "tiny CI-sized run");
  flags.flag("--out", &out_path, "output JSON path");
  flags.flag("--users", &config.num_users, "cohort size");
  flags.flag("--epochs", &config.epochs, "epochs incl. enrollment");
  flags.flag("--shards", &config.shards,
             "collation engine shards (default 1; 0 is read as 1)");
  flags.flag("--threads", &config.threads,
             "digest-generation threads (0 = all cores)");
  flags.flag("--stack-swap-rate", &config.drift.stack_swap_rate,
             "per-user per-epoch browser/libm upgrade probability");
  flags.flag("--simd-rate", &config.drift.simd_tier_rate,
             "per-user per-epoch SIMD-tier change probability");
  flags.flag("--jitter-rate", &config.drift.jitter_regime_rate,
             "per-user per-epoch jitter-regime shift probability");
  flags.flag("--seed", &config.seed, "population seed");
  if (!flags.parse(argc, argv)) return flags.exit_code();
  if (smoke) {
    config.num_users = std::min<std::size_t>(config.num_users, 2000);
    config.epochs = std::min<std::uint32_t>(config.epochs, 8);
  }

  const std::size_t vectors = scenario::default_scenario_vectors().size();
  std::printf("drift_scenario: %zu users x %u epochs x %zu vectors, "
              "%zu shard(s), drift rates %.3f/%.3f/%.3f\n",
              config.num_users, config.epochs, vectors, config.shards,
              config.drift.stack_swap_rate, config.drift.simd_tier_rate,
              config.drift.jitter_regime_rate);

  const auto start = Clock::now();
  scenario::ScenarioRunner runner(config);
  const scenario::ScenarioResult result = runner.run();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  const analysis::VerificationCounts totals = result.totals();
  const std::uint64_t submissions =
      static_cast<std::uint64_t>(config.num_users) * config.epochs * vectors;
  const scenario::VerificationEpoch& final_epoch = result.epochs.back();

  // Closed-form self-checks (the scenario suite proves the semantics; this
  // guards the bench wiring itself).
  bool sound = true;
  const std::uint64_t probe_epochs = config.epochs - 1;
  if (totals.probes != probe_epochs * config.num_users) sound = false;
  if (totals.imposter_trials !=
      totals.probes * (config.num_users - 1)) {
    sound = false;
  }
  if (!result.epochs.empty() &&
      result.epochs.front().verification.probes != 0) {
    sound = false;
  }
  if (result.drift_events == 0 && config.drift.stack_swap_rate > 0.0 &&
      config.num_users * probe_epochs > 10000) {
    sound = false;  // this much exposure must drift someone
  }

  std::printf("  ingested %llu submissions in %.2fs (%.0f/s)\n",
              static_cast<unsigned long long>(submissions), seconds,
              static_cast<double>(submissions) / seconds);
  std::printf("  drift events: %llu  FMR %.3e  FNMR %.4f\n",
              static_cast<unsigned long long>(result.drift_events),
              totals.fmr(), totals.fnmr());
  std::printf("  final epoch: %zu clusters, anonymity min/median/max "
              "%zu/%zu/%zu, churn +%llu/-%llu\n",
              final_epoch.cluster_count, final_epoch.anonymity.min_k,
              final_epoch.anonymity.median_k, final_epoch.anonymity.max_k,
              static_cast<unsigned long long>(final_epoch.churn.merge_pairs),
              static_cast<unsigned long long>(final_epoch.churn.split_pairs));
  std::printf("  soundness: %s\n", sound ? "ok" : "FAILED");

  bench::BenchJson json("drift_scenario");
  json.boolean("smoke", smoke);
  json.integer("users", config.num_users);
  json.integer("epochs", config.epochs);
  json.integer("vectors", vectors);
  json.integer("shards", config.shards);
  json.fixed("stack_swap_rate", config.drift.stack_swap_rate, 4);
  json.fixed("simd_tier_rate", config.drift.simd_tier_rate, 4);
  json.fixed("jitter_regime_rate", config.drift.jitter_regime_rate, 4);
  json.integer("submissions", submissions);
  json.fixed("seconds", seconds, 3);
  json.fixed("submissions_per_sec",
             static_cast<double>(submissions) / seconds, 1);
  json.integer("drift_events", result.drift_events);
  json.integer("probes", totals.probes);
  json.integer("imposter_trials", totals.imposter_trials);
  json.integer("false_matches", totals.false_matches);
  json.integer("false_non_matches", totals.false_non_matches);
  json.scientific("fmr", totals.fmr(), 6);
  json.fixed("fnmr", totals.fnmr(), 6);
  json.integer("final_cluster_count", final_epoch.cluster_count);
  json.integer("final_anonymity_min_k", final_epoch.anonymity.min_k);
  json.integer("final_anonymity_median_k", final_epoch.anonymity.median_k);
  json.integer("final_anonymity_max_k", final_epoch.anonymity.max_k);
  json.integer("final_merge_pairs", final_epoch.churn.merge_pairs);
  json.integer("final_split_pairs", final_epoch.churn.split_pairs);
  json.hex("component_checksum", result.component_checksum);
  json.boolean("sound", sound);
  json.write(out_path);
  return sound ? 0 : 1;
}
