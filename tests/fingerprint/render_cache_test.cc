#include "fingerprint/render_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "fingerprint/vector.h"
#include "fingerprint/vector_registry.h"
#include "platform/catalog.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wafp::fingerprint {
namespace {

std::vector<platform::PlatformProfile> sample_profiles(std::size_t n) {
  platform::DeviceCatalog catalog;
  util::Rng rng(99);
  std::vector<platform::PlatformProfile> profiles;
  profiles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    profiles.push_back(catalog.sample_profile(rng));
  }
  return profiles;
}

TEST(RenderCacheTest, HitOnRepeatLookup) {
  RenderCache cache;
  const auto profiles = sample_profiles(1);
  const auto& vec = audio_vector(VectorId::kDc);
  const util::Digest first = cache.get(vec, profiles[0], 0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.entries(), 1u);
  const util::Digest second = cache.get(vec, profiles[0], 0);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(RenderCacheTest, FindOnAnAbsentClassChangesNothing) {
  obs::MetricsRegistry registry;
  RenderCache cache(&registry);
  const auto profiles = sample_profiles(1);
  const auto& vec = audio_vector(VectorId::kDc);
  (void)cache.get(vec, profiles[0], 0);

  // Another jitter state of the same stack is a different, unrendered class.
  EXPECT_EQ(cache.find(make_render_class_key(vec, profiles[0], 1)), nullptr);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(registry.counter("wafp_cache_hits_total").value(), 0u);
}

TEST(RenderCacheTest, FindReturnsTheEntryGetReturns) {
  obs::MetricsRegistry registry;
  RenderCache cache(&registry);
  const auto profiles = sample_profiles(1);
  const auto& vec = audio_vector(VectorId::kFft);
  const util::Digest& rendered = cache.get(vec, profiles[0], 2);

  const util::Digest* found =
      cache.find(make_render_class_key(vec, profiles[0], 2));
  EXPECT_EQ(found, &rendered);  // the same entry, not a copy
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(registry.counter("wafp_cache_hits_total").value(), 1u);
}

TEST(RenderCacheTest, DistinguishesVectorAndJitterState) {
  RenderCache cache;
  const auto profiles = sample_profiles(1);
  (void)cache.get(audio_vector(VectorId::kDc), profiles[0], 0);
  (void)cache.get(audio_vector(VectorId::kFft), profiles[0], 0);
  (void)cache.get(audio_vector(VectorId::kFft), profiles[0], 1);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(RenderCacheTest, MatchesDirectRender) {
  RenderCache cache;
  const auto profiles = sample_profiles(4);
  for (const auto& p : profiles) {
    for (const VectorId id : {VectorId::kDc, VectorId::kHybrid}) {
      const auto& vec = audio_vector(id);
      webaudio::RenderJitter jitter;
      jitter.state = 1;
      EXPECT_EQ(cache.get(vec, p, 1), vec.run(p, jitter));
    }
  }
}

TEST(RenderCacheTest, ConcurrentHammerStaysConsistent) {
  // Many threads hammering a small key space: every digest must match the
  // serial render, and the counters must reconcile with the lookup count.
  // With --gtest_filter under TSan this is the test that proves the shard
  // striping sound.
  RenderCache cache;
  const auto profiles = sample_profiles(6);
  const auto ids = VectorRegistry::instance().audio_ids();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kLookupsPerThread = 400;

  // Serial ground truth (separate cache).
  RenderCache reference;
  std::vector<util::Digest> expected;
  for (const auto& p : profiles) {
    for (const VectorId id : ids) {
      expected.push_back(reference.get(audio_vector(id), p, 2));
    }
  }

  util::ThreadPool pool(kThreads);
  std::atomic<std::size_t> mismatches{0};
  pool.parallel_for_each(kThreads, [&](std::size_t t) {
    util::Rng rng(1000 + t);
    for (std::size_t i = 0; i < kLookupsPerThread; ++i) {
      const std::size_t pi = rng.next_below(profiles.size());
      const std::size_t vi = rng.next_below(ids.size());
      const util::Digest& d =
          cache.get(audio_vector(ids[vi]), profiles[pi], 2);
      if (d != expected[pi * ids.size() + vi]) mismatches.fetch_add(1);
    }
  });

  EXPECT_EQ(mismatches.load(), 0u);
  // Every lookup was either a hit or a miss...
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kLookupsPerThread);
  // ...exactly one render per distinct key (call_once gating: racers wait
  // instead of re-rendering), and the key space bounds the entry count.
  EXPECT_EQ(cache.entries(), cache.misses());
  EXPECT_LE(cache.entries(), profiles.size() * ids.size());
  EXPECT_GE(cache.entries(), 1u);
}

}  // namespace
}  // namespace wafp::fingerprint
