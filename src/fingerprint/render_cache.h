// RenderCache: memoizes audio fingerprint digests per (audio stack, vector,
// jitter state).
//
// Correctness rests on a property tests assert directly: a rendered digest
// is a pure function of the profile's AudioStack and the RenderJitter —
// nothing else in the profile can reach the audio engine. Two users on the
// same stack therefore share digests, which is both the paper's collision
// phenomenon (Fig. 4: users in one cluster) and what makes a 2093-user x 30
// iteration x 7 vector study tractable (a few hundred renders instead of
// 440k).
//
// Concurrency: the cache is striped into kShards mutex-guarded shards
// selected by the key hash, so parallel collection threads rarely contend
// on the map itself. Renders happen outside the shard lock under a
// per-entry std::call_once, so when two threads race on one cold key,
// exactly one renders and the other waits for that result — concurrent
// collection performs the same number of renders as serial collection.
// Returned references stay valid for the cache's lifetime: entries are
// heap-allocated and never erased.
//
// Two lookups: get() renders on first use (and waits on an in-flight
// render of the same key); find() only reports a class that is already
// rendered, so a caller can serve a warm class inline and hand only the
// rest to a renderer (serve::RenderService::submit does exactly that).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "fingerprint/vector.h"
#include "obs/metrics.h"
#include "util/function_effects.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace wafp::fingerprint {

/// The render-equivalence class of one digest: the full AudioStack (exact
/// equality — a hash collision can never alias two stacks) plus its
/// precomputed class hash so probing re-hashes nothing, the vector id, and
/// the chaos-free jitter state. Shared by RenderCache's shards,
/// BatchRenderer's pending set, and serve::RenderService's coalescing map,
/// so "same class" means exactly the same thing at every dedup layer.
struct RenderClassKey {
  platform::AudioStack stack;
  std::uint64_t stack_hash = 0;
  std::uint32_t vector = 0;
  std::uint32_t jitter = 0;

  bool operator==(const RenderClassKey& o) const {
    return stack_hash == o.stack_hash && vector == o.vector &&
           jitter == o.jitter && stack == o.stack;
  }
};

struct RenderClassKeyHash {
  std::size_t operator()(const RenderClassKey& k) const noexcept {
    std::uint64_t h = k.stack_hash;
    h ^= (static_cast<std::uint64_t>(k.vector) << 32) | k.jitter;
    h *= 0x9E3779B97F4A7C15ULL;  // Fibonacci mix so shard index uses
    return static_cast<std::size_t>(h ^ (h >> 29));  // well-stirred bits
  }
};

/// The class key of `vector` rendered on `profile`'s stack with
/// `jitter_state` (chaos-free). Only profile.audio reaches the key — the
/// digest is a pure function of (AudioStack, vector, jitter), nothing else.
[[nodiscard]] RenderClassKey make_render_class_key(
    const AudioFingerprintVector& vector,
    const platform::PlatformProfile& profile, std::uint32_t jitter_state);

class RenderCache {
 public:
  static constexpr std::size_t kShards = 16;

  /// `metrics` is the sink for cache hit/miss/dedup-wait counters and the
  /// per-vector render-time histograms; nullptr means
  /// obs::MetricsRegistry::global(). Purely observational.
  explicit RenderCache(obs::MetricsRegistry* metrics = nullptr);

  /// Digest of `vector` on `profile`'s stack with the given jitter state
  /// (chaos-free); renders on first use. Safe to call concurrently.
  /// Steady-state contract: once a (stack, vector, jitter) class has been
  /// rendered, get() is a shard-map hit — no allocation, just the shard
  /// lock and counter bumps. wafp_lint's nonallocating check walks this
  /// path from the serve drain; the cold-key miss branch is the audited
  /// exception (see render_cold).
  const util::Digest& get(const AudioFingerprintVector& vector,
                          const platform::PlatformProfile& profile,
                          std::uint32_t jitter_state);

  /// The digest of `key`'s class if it is already rendered, else nullptr
  /// (absent, or its render is still in flight). Never inserts, renders or
  /// waits. The pointer is the entry get() returns, stable for the cache's
  /// lifetime. Counts a hit only when it returns a digest; a nullptr
  /// touches no counter. Safe to call concurrently with get().
  [[nodiscard]] const util::Digest* find(const RenderClassKey& key)
      WAFP_NONALLOCATING;

  /// Distinct (stack, vector, jitter) classes seen so far.
  [[nodiscard]] std::size_t entries() const;
  /// get() lookups that found an existing entry (possibly waiting on its
  /// in-flight render), plus find() lookups that returned a digest.
  [[nodiscard]] std::size_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  /// get() lookups that created the entry and rendered it; always ==
  /// entries().
  [[nodiscard]] std::size_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  using Key = RenderClassKey;
  using KeyHash = RenderClassKeyHash;
  struct Entry;

  /// Cold-key path, run under the entry's once_flag: the render itself
  /// plus first-touch creation of the per-vector latency histogram. Kept
  /// out of the nonallocating contract — steady state never reaches it
  /// (proven by the counter audits in the serve steady-state test).
  void render_cold(Entry& entry, const AudioFingerprintVector& vector,
                   const platform::PlatformProfile& profile,
                   std::uint32_t jitter_state);

  /// Heap-allocated so references survive rehashing and the once_flag has a
  /// stable address for waiters.
  struct Entry {
    std::once_flag once;
    /// Set (release) after `digest` is published; a hit that observes
    /// !ready is about to block on an in-flight render (a dedup wait).
    std::atomic<bool> ready{false};
    util::Digest digest;
  };
  struct Shard {
    mutable util::Mutex mu;
    /// Entries are pointees, not values: the map (bucket array, rehashing)
    /// is guarded, while each Entry's digest is published by its once_flag.
    std::unordered_map<Key, std::unique_ptr<Entry>, KeyHash> map
        WAFP_GUARDED_BY(mu);
  };

  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};

  /// Registry-backed mirrors of the per-instance tallies above (the
  /// per-instance atomics stay authoritative for `hits()`/`misses()`; the
  /// registry aggregates across every cache in the process). Counter
  /// references are resolved once at construction — instruments are
  /// heap-stable — so `get()` never touches the registry maps.
  obs::MetricsRegistry& metrics_;
  obs::Counter& hit_counter_;
  obs::Counter& miss_counter_;
  obs::Counter& dedup_wait_counter_;
};

}  // namespace wafp::fingerprint
