// Steady-state allocation audit for the render hot path (ISSUE 6): once a
// stack archetype has rendered, re-rendering it must not rebuild any engine
// part — no FFT twiddle tables, no FFT scratch growth, no periodic-wave
// table builds. The dsp/webaudio layers expose monotonic build counters
// precisely so this test can assert the deltas are zero instead of trusting
// that the caches "should" hit.
#include <gtest/gtest.h>

#include "dsp/fft.h"
#include "fingerprint/vector.h"
#include "fingerprint/vector_registry.h"
#include "platform/catalog.h"
#include "util/rng.h"
#include "webaudio/periodic_wave.h"

namespace wafp::fingerprint {
namespace {

platform::PlatformProfile sampled_profile(std::uint64_t seed) {
  const platform::DeviceCatalog catalog;
  util::Rng rng(seed);
  return catalog.sample_profile(rng);
}

TEST(SteadyStateAllocTest, SecondRenderBuildsNoEngineParts) {
  const platform::PlatformProfile p = sampled_profile(5);

  // Warm pass: builds whatever shared parts this archetype needs (math
  // library, FFT engine + twiddles, wavetables) through the per-stack
  // memoization in PlatformProfile::make_engine_config.
  for (const VectorId id : VectorRegistry::instance().audio_ids()) {
    (void)audio_vector(id).run(p, {});
  }

  const dsp::FftCounters fft_before = dsp::fft_counters();
  const std::uint64_t waves_before = webaudio::periodic_wave_builds();

  // Steady-state pass: every engine part must come from a cache.
  for (const VectorId id : VectorRegistry::instance().audio_ids()) {
    (void)audio_vector(id).run(p, {});
  }

  const dsp::FftCounters fft_after = dsp::fft_counters();
  EXPECT_EQ(fft_after.twiddle_builds, fft_before.twiddle_builds);
  EXPECT_EQ(fft_after.scratch_growths, fft_before.scratch_growths);
  EXPECT_EQ(webaudio::periodic_wave_builds(), waves_before);
}

TEST(SteadyStateAllocTest, DistinctArchetypesStillShareWaveTables) {
  // Two users of the same stack archetype share one wavetable build; a
  // *different* math variant is a different archetype and is allowed to
  // build its own — but re-rendering either must build nothing new.
  const platform::PlatformProfile a = sampled_profile(11);
  platform::PlatformProfile b = a;
  b.audio.math = a.audio.math == dsp::MathVariant::kTable
                     ? dsp::MathVariant::kFastPoly
                     : dsp::MathVariant::kTable;

  (void)audio_vector(VectorId::kHybrid).run(a, {});
  (void)audio_vector(VectorId::kHybrid).run(b, {});

  const std::uint64_t waves_before = webaudio::periodic_wave_builds();
  (void)audio_vector(VectorId::kHybrid).run(a, {});
  (void)audio_vector(VectorId::kHybrid).run(b, {});
  EXPECT_EQ(webaudio::periodic_wave_builds(), waves_before);
}

}  // namespace
}  // namespace wafp::fingerprint
