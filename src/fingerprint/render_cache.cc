#include "fingerprint/render_cache.h"

namespace wafp::fingerprint {

RenderClassKey make_render_class_key(const AudioFingerprintVector& vector,
                                     const platform::PlatformProfile& profile,
                                     std::uint32_t jitter_state) {
  RenderClassKey key;
  key.stack = profile.audio;
  key.stack_hash = profile.audio.class_hash();
  key.vector = static_cast<std::uint32_t>(vector.id());
  key.jitter = jitter_state;
  return key;
}

RenderCache::RenderCache(obs::MetricsRegistry* metrics)
    : metrics_(metrics ? *metrics : obs::MetricsRegistry::global()),
      hit_counter_(metrics_.counter("wafp_cache_hits_total",
                                    "Render-cache lookups that found an "
                                    "existing entry")),
      miss_counter_(metrics_.counter("wafp_cache_misses_total",
                                     "Render-cache lookups that created the "
                                     "entry and rendered it")),
      dedup_wait_counter_(metrics_.counter(
          "wafp_cache_dedup_waits_total",
          "Render-cache hits that blocked on another thread's in-flight "
          "render of the same key")) {}

const util::Digest& RenderCache::get(const AudioFingerprintVector& vector,
                                     const platform::PlatformProfile& profile,
                                     std::uint32_t jitter_state) {
  const Key key = make_render_class_key(vector, profile, jitter_state);
  const std::size_t h = KeyHash{}(key);
  Shard& shard = shards_[h % kShards];

  Entry* entry = nullptr;
  bool created = false;
  {
    util::MutexLock lock(shard.mu);
    // Cold-key inserts only: after warmup every class is already present
    // and these lines are a pure lookup (the build-free steady state).
    // wafp-lint: allow(nonallocating): cold-key shard insert (miss path)
    auto [it, inserted] = shard.map.try_emplace(key);
    // wafp-lint: allow(nonallocating): cold-key entry allocation (miss path)
    if (inserted) it->second = std::make_unique<Entry>();
    entry = it->second.get();
    created = inserted;
  }
  if (created) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    miss_counter_.inc();
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    hit_counter_.inc();
    // A hit on an entry whose render hasn't published yet is about to park
    // inside call_once until the renderer finishes.
    if (!entry->ready.load(std::memory_order_acquire)) {
      dedup_wait_counter_.inc();
    }
  }

  // Render outside the shard lock: renders are the expensive part, and
  // holding the mutex across one would serialize every same-shard thread.
  // call_once makes concurrent racers on this key wait for one render
  // instead of duplicating it. On a warm entry the flag is already set and
  // this is a single acquire load — the lambda (and the cold render behind
  // it) never runs on the steady-state path.
  // wafp-lint: allow(nonallocating): cold-key render behind call_once
  std::call_once(entry->once, [&] { render_cold(*entry, vector, profile,
                                                jitter_state); });
  return entry->digest;
}

const util::Digest* RenderCache::find(const RenderClassKey& key)
    WAFP_NONALLOCATING {
  Shard& shard = shards_[KeyHash{}(key) % kShards];
  const Entry* entry = nullptr;
  {
    util::MutexLock lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) return nullptr;
    entry = it->second.get();
  }
  // An entry that has not published is rendering on another thread;
  // waiting for it is get()'s job, not a lookup's.
  if (!entry->ready.load(std::memory_order_acquire)) return nullptr;
  hits_.fetch_add(1, std::memory_order_relaxed);
  hit_counter_.inc();
  return &entry->digest;
}

void RenderCache::render_cold(Entry& entry,
                              const AudioFingerprintVector& vector,
                              const platform::PlatformProfile& profile,
                              std::uint32_t jitter_state) {
  webaudio::RenderJitter jitter;
  jitter.state = jitter_state;
  const std::uint64_t t0 = metrics_.now_ns();
  entry.digest = vector.run(profile, jitter);
  metrics_
      .histogram("wafp_render_vector_ns",
                 "Cold-cache render duration per fingerprint vector (ns)",
                 obs::label("vector", vector.name()))
      .observe(metrics_.now_ns() - t0);
  entry.ready.store(true, std::memory_order_release);
}

std::size_t RenderCache::entries() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace wafp::fingerprint
