// FingerprintCollector: plays the role of the study's fingerprinting web
// page for one participant — it produces the digest a given (user, vector,
// iteration) triple would have submitted, applying the per-user fickleness
// model (paper §3.1) to decide each iteration's render-jitter state.
#pragma once

#include <cstdint>

#include "fingerprint/render_cache.h"
#include "fingerprint/vector.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "platform/population.h"

namespace wafp::fingerprint {

/// Snapshot of the collector's draw tallies. Returned by value from
/// FingerprintCollector::stats(); the live counters behind it are sharded
/// registry instruments, so reading a snapshot is safe while parallel_for
/// workers are still collecting. Counts are cumulative per metrics
/// registry: collectors sharing a registry (the default — the process
/// global) share tallies, which is what the study harness wants when it
/// fans one logical collection out across worker chunks.
struct CollectorStats {
  std::size_t stable_draws = 0;
  std::size_t jitter_draws = 0;
  std::size_t chaos_draws = 0;
};

/// How to build a FingerprintCollector. Instrumentation is injected here
/// rather than reached for globally, so tests can pin a private registry
/// and a manual clock (see obs::ManualClock) while production code leaves
/// both defaulted.
struct CollectorOptions {
  /// Required: the shared render memo (concurrency-safe; see render_cache.h).
  RenderCache* cache = nullptr;
  /// Metrics sink for draw counters and collect-latency histograms.
  /// nullptr = obs::MetricsRegistry::global().
  obs::MetricsRegistry* metrics = nullptr;
  /// Timestamp source for the collect-latency histogram; unset = the
  /// registry's clock (which tests can also override via
  /// MetricsRegistry::set_clock). Mirrors ServiceConfig::sleeper.
  obs::ClockFn clock = {};
};

class FingerprintCollector {
 public:
  explicit FingerprintCollector(const CollectorOptions& options);

  /// Deterministically draw the jitter state for (user, vector, iteration):
  /// an event occurs with probability min(0.93, flakiness * susceptibility);
  /// it is a recurring platform jitter state with probability jitter_share,
  /// otherwise a one-off chaotic glitch.
  [[nodiscard]] webaudio::RenderJitter draw_jitter(
      const platform::StudyUser& user, const AudioFingerprintVector& vector,
      std::uint32_t iteration);

  /// Fingerprint for one (user, vector, iteration). Audio vectors go
  /// through the render cache; for chaotic draws the digest is derived from
  /// the stable render plus the glitch entropy — equivalent in equality
  /// structure to the engine's chaos path (any ULP glitch yields a distinct
  /// digest), which collect_rendered() exercises for real.
  [[nodiscard]] util::Digest collect(const platform::StudyUser& user,
                                     VectorId id, std::uint32_t iteration);

  /// Ground-truth slow path: renders through the engine even for chaotic
  /// draws (used by tests and the quickstart example).
  [[nodiscard]] util::Digest collect_rendered(const platform::StudyUser& user,
                                              VectorId id,
                                              std::uint32_t iteration);

  /// Snapshot of the draw tallies (see CollectorStats for scope caveats).
  [[nodiscard]] CollectorStats stats() const;
  [[nodiscard]] RenderCache& cache() { return cache_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  [[nodiscard]] std::uint64_t now_ns() const {
    return clock_ ? clock_() : metrics_.now_ns();
  }

  RenderCache& cache_;
  obs::MetricsRegistry& metrics_;
  obs::ClockFn clock_;
  /// Registry instruments are heap-stable, so references resolved once at
  /// construction stay valid and keep collect() off the registry maps.
  obs::Counter& stable_counter_;
  obs::Counter& jitter_counter_;
  obs::Counter& chaos_counter_;
  obs::Histogram& collect_ns_;
};

}  // namespace wafp::fingerprint
