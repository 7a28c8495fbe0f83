// Build-free audit for the serving path (extends the PR 6 render audit):
// once the service has rendered a request stream's classes, re-serving the
// same stream must build nothing — no FFT twiddle tables or scratch
// growth, no periodic-wave tables, no new cache entries, and no new task
// slabs. The counters are the proof; "should hit the caches" is not.
#include <gtest/gtest.h>

#include "dsp/fft.h"
#include "fingerprint/vector.h"
#include "fingerprint/vector_registry.h"
#include "platform/catalog.h"
#include "serve/render_service.h"
#include "util/rng.h"
#include "webaudio/periodic_wave.h"

namespace wafp::serve {
namespace {

using fingerprint::VectorId;
using fingerprint::audio_vector;
using fingerprint::VectorRegistry;

platform::PlatformProfile sampled_profile(std::uint64_t seed) {
  const platform::DeviceCatalog catalog;
  util::Rng rng(seed);
  return catalog.sample_profile(rng);
}

TEST(ServeSteadyStateTest, ReservingAWarmStreamBuildsNothing) {
  const platform::PlatformProfile a = sampled_profile(5);
  const platform::PlatformProfile b = sampled_profile(17);

  fingerprint::RenderCache cache;
  RenderServiceConfig config;
  config.workers = 2;
  RenderService service(cache, config);

  const auto serve_stream = [&] {
    for (const VectorId id : VectorRegistry::instance().audio_ids()) {
      for (const auto* p : {&a, &b}) {
        for (const std::uint32_t jitter : {0u, 1u}) {
          (void)service.render(audio_vector(id), *p, jitter);
        }
      }
    }
  };

  // Warm pass: builds whatever engine parts and task slabs the stream's
  // classes need.
  serve_stream();

  const dsp::FftCounters fft_before = dsp::fft_counters();
  const std::uint64_t waves_before = webaudio::periodic_wave_builds();
  const std::uint64_t slabs_before = service.slab_builds();
  const std::size_t misses_before = cache.misses();

  // Steady state: the identical stream again, twice for good measure.
  serve_stream();
  serve_stream();

  const dsp::FftCounters fft_after = dsp::fft_counters();
  EXPECT_EQ(fft_after.twiddle_builds, fft_before.twiddle_builds);
  EXPECT_EQ(fft_after.scratch_growths, fft_before.scratch_growths);
  EXPECT_EQ(webaudio::periodic_wave_builds(), waves_before);
  EXPECT_EQ(service.slab_builds(), slabs_before);
  EXPECT_EQ(cache.misses(), misses_before);  // zero renders happened at all
}

}  // namespace
}  // namespace wafp::serve
