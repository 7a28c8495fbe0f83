#include "fingerprint/collector.h"

#include <gtest/gtest.h>

#include <set>

#include "platform/catalog.h"
#include "platform/population.h"

namespace wafp::fingerprint {
namespace {

platform::StudyUser make_user(double flakiness, std::uint64_t seed = 42) {
  const platform::DeviceCatalog catalog;
  const platform::Population population(catalog, 1, seed);
  platform::StudyUser user = population.user(0);
  user.profile.fickle.flakiness = flakiness;
  user.profile.fickle.jitter_states = 4;
  user.profile.fickle.jitter_share = 0.85;
  return user;
}

TEST(CollectorTest, StableUserAlwaysStateZero) {
  RenderCache cache;
  FingerprintCollector collector({&cache});
  const platform::StudyUser user = make_user(0.0);
  for (std::uint32_t it = 0; it < 50; ++it) {
    const auto jitter =
        collector.draw_jitter(user, audio_vector(VectorId::kHybrid), it);
    EXPECT_TRUE(jitter.is_stable());
  }
}

TEST(CollectorTest, DcNeverJittersEvenWhenFlaky) {
  RenderCache cache;
  FingerprintCollector collector({&cache});
  const platform::StudyUser user = make_user(0.8);
  for (std::uint32_t it = 0; it < 50; ++it) {
    const auto jitter =
        collector.draw_jitter(user, audio_vector(VectorId::kDc), it);
    EXPECT_TRUE(jitter.is_stable());
  }
}

TEST(CollectorTest, DrawIsDeterministicPerIteration) {
  RenderCache cache;
  FingerprintCollector collector({&cache});
  const platform::StudyUser user = make_user(0.5);
  const auto& vector = audio_vector(VectorId::kAm);
  for (std::uint32_t it = 0; it < 20; ++it) {
    const auto a = collector.draw_jitter(user, vector, it);
    const auto b = collector.draw_jitter(user, vector, it);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.chaos_seed, b.chaos_seed);
  }
}

TEST(CollectorTest, FlakyUserProducesEvents) {
  RenderCache cache;
  FingerprintCollector collector({&cache});
  const platform::StudyUser user = make_user(0.6);
  const auto& vector = audio_vector(VectorId::kAm);
  int events = 0;
  for (std::uint32_t it = 0; it < 60; ++it) {
    const auto jitter = collector.draw_jitter(user, vector, it);
    if (!jitter.is_stable()) ++events;
  }
  EXPECT_GT(events, 20);
  EXPECT_LT(events, 60);  // the probability cap keeps some draws stable
}

TEST(CollectorTest, JitterStatesWithinConfiguredRange) {
  RenderCache cache;
  FingerprintCollector collector({&cache});
  const platform::StudyUser user = make_user(0.7);
  const auto& vector = audio_vector(VectorId::kHybrid);
  for (std::uint32_t it = 0; it < 200; ++it) {
    const auto jitter = collector.draw_jitter(user, vector, it);
    EXPECT_LE(jitter.state, user.profile.fickle.jitter_states);
  }
}

TEST(CollectorTest, CollectMatchesRenderedPathForNonChaos) {
  // The cached fast path must agree bit-for-bit with direct rendering for
  // stable and jitter-state draws.
  RenderCache cache;
  FingerprintCollector collector({&cache});
  const platform::StudyUser user = make_user(0.3);
  const auto& vector = audio_vector(VectorId::kHybrid);
  int compared = 0;
  for (std::uint32_t it = 0; it < 12; ++it) {
    const auto jitter = collector.draw_jitter(user, vector, it);
    if (jitter.chaos_seed != 0) continue;  // chaos uses the derived digest
    EXPECT_EQ(collector.collect(user, VectorId::kHybrid, it),
              collector.collect_rendered(user, VectorId::kHybrid, it))
        << "iteration " << it;
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST(CollectorTest, ChaosDigestsAreUniquePerIteration) {
  RenderCache cache;
  FingerprintCollector collector({&cache});
  platform::StudyUser user = make_user(0.85);
  user.profile.fickle.jitter_share = 0.0;  // force chaos on every event
  std::set<util::Digest> chaos_digests;
  int chaos_count = 0;
  for (std::uint32_t it = 0; it < 40; ++it) {
    const auto jitter =
        collector.draw_jitter(user, audio_vector(VectorId::kAm), it);
    if (jitter.chaos_seed == 0) continue;
    chaos_digests.insert(collector.collect(user, VectorId::kAm, it));
    ++chaos_count;
  }
  EXPECT_GT(chaos_count, 10);
  EXPECT_EQ(chaos_digests.size(), static_cast<std::size_t>(chaos_count));
}

TEST(CollectorTest, RenderedChaosPathAlsoUnique) {
  // Ground truth: rendering through the engine's chaotic-glitch path
  // produces distinct digests too (the fast path is equivalent in equality
  // structure).
  RenderCache cache;
  FingerprintCollector collector({&cache});
  platform::StudyUser user = make_user(0.85);
  user.profile.fickle.jitter_share = 0.0;
  std::set<util::Digest> digests;
  int chaos_count = 0;
  for (std::uint32_t it = 0; it < 8; ++it) {
    const auto jitter =
        collector.draw_jitter(user, audio_vector(VectorId::kFft), it);
    if (jitter.chaos_seed == 0) continue;
    digests.insert(collector.collect_rendered(user, VectorId::kFft, it));
    ++chaos_count;
  }
  EXPECT_GT(chaos_count, 2);
  EXPECT_EQ(digests.size(), static_cast<std::size_t>(chaos_count));
}

TEST(CollectorTest, CacheShrinksRenderCount) {
  RenderCache cache;
  FingerprintCollector collector({&cache});
  const platform::StudyUser user = make_user(0.0);
  for (std::uint32_t it = 0; it < 10; ++it) {
    (void)collector.collect(user, VectorId::kDc, it);
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 9u);
}

TEST(CollectorTest, StaticVectorsStableAcrossIterations) {
  RenderCache cache;
  FingerprintCollector collector({&cache});
  const platform::StudyUser user = make_user(0.8);
  const util::Digest first = collector.collect(user, VectorId::kCanvas, 0);
  for (std::uint32_t it = 1; it < 5; ++it) {
    EXPECT_EQ(collector.collect(user, VectorId::kCanvas, it), first);
  }
}

TEST(RenderCacheTest, SameStackSharesEntries) {
  // Two users on identical audio stacks share the cache entry — the
  // collision phenomenon the collation graph is built around.
  const platform::DeviceCatalog catalog;
  const platform::Population population(catalog, 40, 4242);
  RenderCache cache;
  const auto& vector = audio_vector(VectorId::kDc);
  std::set<std::string> distinct_keys;
  for (const auto& user : population.users()) {
    distinct_keys.insert(user.profile.audio.class_key());
    (void)cache.get(vector, user.profile, 0);
  }
  EXPECT_EQ(cache.entries(), distinct_keys.size());
  EXPECT_LT(cache.entries(), 40u);  // collisions exist
}

}  // namespace
}  // namespace wafp::fingerprint
