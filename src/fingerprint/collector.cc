#include "fingerprint/collector.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace wafp::fingerprint {
namespace {

/// Hard cap on the per-iteration event probability: even the flakiest
/// browsers in the study repeated some fingerprints (Table 1's maximum is
/// 26 of 30, never 30).
constexpr double kMaxEventProbability = 0.88;

std::uint64_t draw_tag(VectorId id, std::uint32_t iteration) {
  return (static_cast<std::uint64_t>(id) << 32) | iteration;
}

/// Checked before any member binds to it: a null cache must fail loudly,
/// not dereference.
RenderCache& checked_cache(RenderCache* cache) {
  WAFP_CHECK(cache != nullptr) << "CollectorOptions::cache is required";
  return *cache;
}

}  // namespace

FingerprintCollector::FingerprintCollector(const CollectorOptions& options)
    : cache_(checked_cache(options.cache)),
      metrics_(options.metrics ? *options.metrics
                               : obs::MetricsRegistry::global()),
      clock_(options.clock),
      stable_counter_(metrics_.counter(
          "wafp_collect_stable_draws_total",
          "Collector draws that resolved to the stable (no-jitter) state")),
      jitter_counter_(metrics_.counter(
          "wafp_collect_jitter_draws_total",
          "Collector draws that resolved to a recurring platform jitter "
          "state")),
      chaos_counter_(metrics_.counter(
          "wafp_collect_chaos_draws_total",
          "Collector draws that resolved to a one-off chaotic glitch")),
      collect_ns_(metrics_.histogram(
          "wafp_collect_ns", "FingerprintCollector::collect latency (ns)")) {}

webaudio::RenderJitter FingerprintCollector::draw_jitter(
    const platform::StudyUser& user, const AudioFingerprintVector& vector,
    std::uint32_t iteration) {
  webaudio::RenderJitter jitter;
  const platform::Fickleness& fickle = user.profile.fickle;
  const double p_event =
      std::min(kMaxEventProbability,
               fickle.flakiness * vector.jitter_susceptibility());
  if (p_event <= 0.0) return jitter;

  util::Rng rng(util::derive_seed(user.seed, draw_tag(vector.id(), iteration)));
  if (rng.next_double() >= p_event) return jitter;

  // Heavier render graphs glitch chaotically more often relative to their
  // recurring-state slips (the paper's CPU-load hypothesis), so the
  // effective jitter share shrinks with susceptibility.
  const double jitter_share = std::min(
      0.95, fickle.jitter_share / std::sqrt(vector.jitter_susceptibility()));
  if (rng.next_bool(jitter_share)) {
    // States are not equally likely: the first perturbation state is the
    // common one, higher states increasingly rare (quadratic bias). This
    // matches the paper's Fig. 3, where two-fingerprint users outnumber
    // three-fingerprint users.
    const double r = rng.next_double();
    jitter.state = 1 + static_cast<std::uint32_t>(
                           static_cast<double>(fickle.jitter_states) * r * r);
    if (jitter.state > fickle.jitter_states) {
      jitter.state = fickle.jitter_states;
    }
  } else {
    jitter.chaos_seed =
        util::derive_seed(user.seed, draw_tag(vector.id(), iteration) ^
                                         0xC4A05EEDULL);
  }
  return jitter;
}

util::Digest FingerprintCollector::collect(const platform::StudyUser& user,
                                           VectorId id,
                                           std::uint32_t iteration) {
  if (is_static_vector(id)) {
    return run_static_vector(id, user.profile);
  }
  const std::uint64_t t0 = now_ns();
  const AudioFingerprintVector& vector = audio_vector(id);
  const webaudio::RenderJitter jitter = draw_jitter(user, vector, iteration);

  if (jitter.chaos_seed != 0) {
    chaos_counter_.inc();
    // A chaotic glitch perturbs analyser bins by one ULP, so its digest is
    // distinct from every stable digest and from every other glitch; derive
    // it from the stable render plus the glitch entropy instead of paying
    // for a full render per glitch.
    const util::Digest& base = cache_.get(vector, user.profile, 0);
    util::Sha256 hasher;
    hasher.update(std::span<const std::uint8_t>(base.bytes));
    hasher.update("chaotic-glitch");
    hasher.update_u64(jitter.chaos_seed);
    util::Digest digest = hasher.finish();
    collect_ns_.observe(now_ns() - t0);
    return digest;
  }
  if (jitter.state != 0) {
    jitter_counter_.inc();
  } else {
    stable_counter_.inc();
  }
  const util::Digest& digest = cache_.get(vector, user.profile, jitter.state);
  collect_ns_.observe(now_ns() - t0);
  return digest;
}

util::Digest FingerprintCollector::collect_rendered(
    const platform::StudyUser& user, VectorId id, std::uint32_t iteration) {
  if (is_static_vector(id)) {
    return run_static_vector(id, user.profile);
  }
  const AudioFingerprintVector& vector = audio_vector(id);
  const webaudio::RenderJitter jitter = draw_jitter(user, vector, iteration);
  return vector.run(user.profile, jitter);
}

CollectorStats FingerprintCollector::stats() const {
  CollectorStats snapshot;
  snapshot.stable_draws = static_cast<std::size_t>(stable_counter_.value());
  snapshot.jitter_draws = static_cast<std::size_t>(jitter_counter_.value());
  snapshot.chaos_draws = static_cast<std::size_t>(chaos_counter_.value());
  return snapshot;
}

}  // namespace wafp::fingerprint
