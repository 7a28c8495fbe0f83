// RenderService behavior: bit-identical parity with direct RenderCache
// renders across worker counts, warm hits served inline without a worker,
// deterministic cross-request coalescing, kQueueFull backpressure, ticket
// accounting, slab recycling, and the wafp_serve_* instrument wiring.
#include "serve/render_service.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "fingerprint/vector.h"
#include "fingerprint/vector_registry.h"
#include "platform/catalog.h"
#include "util/rng.h"

namespace wafp::serve {
namespace {

using fingerprint::AudioFingerprintVector;
using fingerprint::RenderCache;
using fingerprint::VectorId;
using fingerprint::audio_vector;
using fingerprint::VectorRegistry;

platform::PlatformProfile profile_with_math(dsp::MathVariant math) {
  const platform::DeviceCatalog catalog;
  util::Rng rng(29);
  platform::PlatformProfile p = catalog.sample_profile(rng);
  p.audio = {};
  p.audio.math = math;
  return p;
}

TEST(RenderServiceTest, ServedDigestsMatchDirectRendersAcrossWorkerCounts) {
  const auto a = profile_with_math(dsp::MathVariant::kPrecise);
  const auto b = profile_with_math(dsp::MathVariant::kTable);
  RenderCache direct_cache;

  for (const std::size_t workers : {1u, 2u, 8u}) {
    RenderCache cache;
    RenderServiceConfig config;
    config.workers = workers;
    RenderService service(cache, config);
    for (const VectorId id : VectorRegistry::instance().audio_ids()) {
      const AudioFingerprintVector& vec = audio_vector(id);
      for (const auto* p : {&a, &b}) {
        for (const std::uint32_t jitter : {0u, 3u}) {
          EXPECT_EQ(service.render(vec, *p, jitter),
                    direct_cache.get(vec, *p, jitter))
              << "workers=" << workers << " vector=" << vec.name()
              << " jitter=" << jitter;
        }
      }
    }
    service.stop();
  }
}

TEST(RenderServiceTest, DuplicateSubmissionsCoalesceOntoOneTask) {
  RenderCache cache;
  RenderServiceConfig config;
  config.start_workers = false;  // admit everything first: deterministic
  RenderService service(cache, config);
  const auto p = profile_with_math(dsp::MathVariant::kPrecise);
  const AudioFingerprintVector& vec = audio_vector(VectorId::kDc);

  std::vector<RenderService::Ticket> tickets(5);
  for (auto& ticket : tickets) {
    ASSERT_EQ(service.submit(vec, p, 0, ticket), Admit::kAccepted);
    ASSERT_TRUE(ticket.valid());
  }
  EXPECT_EQ(service.queue_depth(), 1u);

  ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.classes, 1u);
  EXPECT_EQ(stats.coalesced, 4u);
  EXPECT_DOUBLE_EQ(stats.coalesce_ratio(), 5.0);

  service.start();
  RenderCache direct_cache;
  const util::Digest expected = direct_cache.get(vec, p, 0);
  for (auto& ticket : tickets) {
    EXPECT_EQ(service.wait(ticket), expected);
    EXPECT_FALSE(ticket.valid());  // wait() consumes the ticket
  }
  stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(cache.misses(), 1u);  // one render served all five requests
}

TEST(RenderServiceTest, WarmHitsAreServedInlineWithoutAWorker) {
  obs::MetricsRegistry registry;
  RenderCache cache(&registry);
  const auto p = profile_with_math(dsp::MathVariant::kPrecise);
  std::vector<const util::Digest*> warm;
  for (const VectorId id : VectorRegistry::instance().audio_ids()) {
    for (const std::uint32_t jitter : {0u, 1u}) {
      warm.push_back(&cache.get(audio_vector(id), p, jitter));
    }
  }

  RenderServiceConfig config;
  config.start_workers = false;  // nothing could serve a queued task
  config.metrics = &registry;
  RenderService service(cache, config);
  std::vector<RenderService::Ticket> tickets(warm.size());
  std::size_t i = 0;
  for (const VectorId id : VectorRegistry::instance().audio_ids()) {
    for (const std::uint32_t jitter : {0u, 1u}) {
      ASSERT_EQ(service.submit(audio_vector(id), p, jitter, tickets[i++]),
                Admit::kAccepted);
    }
  }
  ASSERT_EQ(service.queue_depth(), 0u);  // else wait() would never return
  for (i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(&service.wait(tickets[i]), warm[i]);  // the cache's own entry
    EXPECT_FALSE(tickets[i].valid());
  }

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, warm.size());
  EXPECT_EQ(stats.cache_hits, warm.size());
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.classes, 0u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(service.slab_builds(), 0u);
  EXPECT_EQ(registry.counter("wafp_serve_cache_hits_total").value(),
            warm.size());
  EXPECT_EQ(registry.counter("wafp_serve_requests_total").value(),
            warm.size());
  EXPECT_EQ(registry.counter("wafp_serve_classes_total").value(), 0u);
}

TEST(RenderServiceTest, HitsAreServedAfterStop) {
  RenderCache cache;
  RenderService service(cache, {});
  const auto p = profile_with_math(dsp::MathVariant::kTable);
  const AudioFingerprintVector& vec = audio_vector(VectorId::kHybrid);
  const util::Digest& rendered = service.render(vec, p, 0);  // cold: queued
  service.stop();

  RenderService::Ticket ticket;
  ASSERT_EQ(service.submit(vec, p, 0, ticket), Admit::kAccepted);
  ASSERT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(&service.wait(ticket), &rendered);
  EXPECT_EQ(&service.render(vec, p, 0), &rendered);
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.classes, 1u);
  EXPECT_DOUBLE_EQ(stats.coalesce_ratio(), 1.0);  // hits are not queued work
}

TEST(RenderServiceDeathTest, DoubleWaitOnAHitTicketAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  RenderCache cache;
  const auto p = profile_with_math(dsp::MathVariant::kPrecise);
  const AudioFingerprintVector& vec = audio_vector(VectorId::kDc);
  (void)cache.get(vec, p, 0);
  RenderServiceConfig config;
  config.start_workers = false;
  RenderService service(cache, config);

  RenderService::Ticket ticket;
  ASSERT_EQ(service.submit(vec, p, 0, ticket), Admit::kAccepted);
  ASSERT_EQ(service.queue_depth(), 0u);
  (void)service.wait(ticket);
  EXPECT_DEATH((void)service.wait(ticket), "already-waited ticket");
}

TEST(RenderServiceTest, DistinctClassesDoNotCoalesce) {
  RenderCache cache;
  RenderServiceConfig config;
  config.start_workers = false;
  RenderService service(cache, config);
  const auto p = profile_with_math(dsp::MathVariant::kPrecise);

  RenderService::Ticket t0;
  RenderService::Ticket t1;
  ASSERT_EQ(service.submit(audio_vector(VectorId::kDc), p, 0, t0),
            Admit::kAccepted);
  ASSERT_EQ(service.submit(audio_vector(VectorId::kFft), p, 0, t1),
            Admit::kAccepted);
  EXPECT_EQ(service.queue_depth(), 2u);
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.classes, 2u);
  EXPECT_EQ(stats.coalesced, 0u);

  service.start();
  EXPECT_NE(service.wait(t0), service.wait(t1));
}

TEST(RenderServiceTest, FullQueueRejectsWithBackpressure) {
  RenderCache cache;
  RenderServiceConfig config;
  config.start_workers = false;
  config.queue_capacity = 1;
  RenderService service(cache, config);
  const auto p = profile_with_math(dsp::MathVariant::kPrecise);
  const AudioFingerprintVector& vec = audio_vector(VectorId::kDc);

  RenderService::Ticket first;
  ASSERT_EQ(service.submit(vec, p, 0, first), Admit::kAccepted);

  // A duplicate of the queued class still coalesces — it adds no work.
  RenderService::Ticket dup;
  EXPECT_EQ(service.submit(vec, p, 0, dup), Admit::kAccepted);

  // A new class exceeds the bound and is pushed back on the caller.
  RenderService::Ticket overflow;
  EXPECT_EQ(service.submit(vec, p, 1, overflow), Admit::kQueueFull);
  EXPECT_FALSE(overflow.valid());
  EXPECT_EQ(service.stats().rejected_queue_full, 1u);

  // Once a worker drains the queue, the resubmit is admitted.
  service.start();
  (void)service.wait(first);
  (void)service.wait(dup);
  EXPECT_EQ(service.render(vec, p, 1), RenderCache().get(vec, p, 1));
}

TEST(RenderServiceTest, StopDrainsEveryAdmittedTask) {
  RenderCache cache;
  RenderServiceConfig config;
  config.start_workers = false;
  RenderService service(cache, config);
  const auto p = profile_with_math(dsp::MathVariant::kPrecise);

  std::vector<RenderService::Ticket> tickets(
      VectorRegistry::instance().audio_ids().size());
  std::size_t i = 0;
  for (const VectorId id : VectorRegistry::instance().audio_ids()) {
    ASSERT_EQ(service.submit(audio_vector(id), p, 0, tickets[i++]),
              Admit::kAccepted);
  }
  service.start();
  service.stop();  // must not return before the queue is drained
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.stats().completed, tickets.size());
  for (auto& ticket : tickets) (void)service.wait(ticket);  // all done
}

TEST(RenderServiceTest, TaskSlotsRecycleThroughTheSlabPool) {
  RenderCache cache;
  RenderServiceConfig config;
  config.workers = 1;
  RenderService service(cache, config);
  const auto p = profile_with_math(dsp::MathVariant::kPrecise);
  const AudioFingerprintVector& vec = audio_vector(VectorId::kDc);

  // Serial render() keeps at most one task in flight, so more classes
  // than one slab holds must fit in the very first slab. Every class is
  // distinct, so each is a cache miss that takes a task slot (a warm hit
  // would take none).
  constexpr std::uint32_t kClasses = 100;  // > the 64-slot slab
  for (std::uint32_t jitter = 0; jitter < kClasses; ++jitter) {
    (void)service.render(vec, p, jitter);
  }
  EXPECT_EQ(service.stats().classes, kClasses);
  EXPECT_EQ(service.slab_builds(), 1u);
}

TEST(RenderServiceTest, ConcurrentRendersStayBitIdenticalUnderContention) {
  RenderCache cache;
  RenderServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 2;  // small bound: exercise backpressure waits
  config.max_batch = 2;
  RenderService service(cache, config);
  const auto p = profile_with_math(dsp::MathVariant::kPrecise);

  RenderCache direct_cache;
  std::vector<util::Digest> expected;
  for (const VectorId id : VectorRegistry::instance().audio_ids()) {
    expected.push_back(direct_cache.get(audio_vector(id), p, 1));
  }

  constexpr std::size_t kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> callers;
  callers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        std::size_t i = 0;
        for (const VectorId id : VectorRegistry::instance().audio_ids()) {
          if (service.render(audio_vector(id), p, 1) != expected[i++]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  // 8 callers x 3 rounds of the same classes: one render each, the rest
  // coalesced or cache hits.
  EXPECT_EQ(cache.misses(), VectorRegistry::instance().audio_ids().size());
}

TEST(RenderServiceTest, StartAndStopAreIdempotentAndRestartable) {
  RenderCache cache;
  RenderService service(cache, {});
  const auto p = profile_with_math(dsp::MathVariant::kPrecise);
  const AudioFingerprintVector& vec = audio_vector(VectorId::kDc);

  service.start();  // already running: no-op
  EXPECT_EQ(service.render(vec, p, 0), RenderCache().get(vec, p, 0));
  service.stop();
  service.stop();  // already stopped: no-op
  service.start();  // restart serves again
  EXPECT_EQ(service.render(vec, p, 2), RenderCache().get(vec, p, 2));
}

TEST(RenderServiceTest, InstrumentsMirrorStats) {
  obs::MetricsRegistry registry;
  RenderCache cache(&registry);
  RenderServiceConfig config;
  config.start_workers = false;
  config.metrics = &registry;
  RenderService service(cache, config);
  const auto p = profile_with_math(dsp::MathVariant::kPrecise);
  const AudioFingerprintVector& vec = audio_vector(VectorId::kDc);

  std::vector<RenderService::Ticket> tickets(4);
  for (auto& ticket : tickets) {
    ASSERT_EQ(service.submit(vec, p, 0, ticket), Admit::kAccepted);
  }
  EXPECT_EQ(registry.counter("wafp_serve_requests_total").value(), 4u);
  EXPECT_EQ(registry.counter("wafp_serve_coalesced_total").value(), 3u);
  EXPECT_EQ(registry.counter("wafp_serve_classes_total").value(), 1u);
  EXPECT_EQ(registry.gauge("wafp_serve_queue_depth").value(), 1);

  service.start();
  for (auto& ticket : tickets) (void)service.wait(ticket);
  service.stop();

  EXPECT_EQ(registry.counter("wafp_serve_completed_total").value(), 1u);
  EXPECT_EQ(registry.gauge("wafp_serve_queue_depth").value(), 0);
  const auto joins =
      registry.histogram("wafp_serve_coalesced_per_class").snapshot();
  EXPECT_EQ(joins.count, 1u);  // one completed class...
  const auto batches = registry.histogram("wafp_serve_batch_size").snapshot();
  EXPECT_EQ(batches.count, 1u);  // ...rendered by one single-class batch
  const auto latency =
      registry.histogram("wafp_serve_request_ns").snapshot();
  EXPECT_EQ(latency.count, 1u);
}

}  // namespace
}  // namespace wafp::serve
