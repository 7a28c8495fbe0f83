#include "fingerprint/vector.h"

#include <gtest/gtest.h>

#include "fingerprint/vector_registry.h"
#include "platform/catalog.h"
#include "util/rng.h"

namespace wafp::fingerprint {
namespace {

platform::PlatformProfile profile_for_seed(std::uint64_t seed) {
  const platform::DeviceCatalog catalog;
  util::Rng rng(seed);
  return catalog.sample_profile(rng);
}

/// Two profiles with coarsely different audio stacks.
platform::PlatformProfile windows_profile() {
  platform::PlatformProfile p = profile_for_seed(3);
  p.audio = {};  // Blink/Windows defaults
  p.audio.math = dsp::MathVariant::kPrecise;
  return p;
}

platform::PlatformProfile android_profile() {
  platform::PlatformProfile p = profile_for_seed(3);
  p.audio = {};
  p.audio.math = dsp::MathVariant::kFastPoly;
  p.audio.fft = dsp::FftVariant::kRadix4;
  p.audio.fma_contraction = true;
  return p;
}

class AudioVectorTest : public ::testing::TestWithParam<VectorId> {};

TEST_P(AudioVectorTest, DeterministicGivenProfileAndJitter) {
  const AudioFingerprintVector& vector = audio_vector(GetParam());
  const platform::PlatformProfile p = windows_profile();
  EXPECT_EQ(vector.run(p, {}), vector.run(p, {}));
  webaudio::RenderJitter jitter;
  jitter.state = 2;
  EXPECT_EQ(vector.run(p, jitter), vector.run(p, jitter));
}

TEST_P(AudioVectorTest, DistinguishesCoarsePlatforms) {
  const AudioFingerprintVector& vector = audio_vector(GetParam());
  EXPECT_NE(vector.run(windows_profile(), {}),
            vector.run(android_profile(), {}));
}

TEST_P(AudioVectorTest, VectorsProduceDistinctDigestsOnSameProfile) {
  // Each vector hashes its own name + outputs, so no two vectors collide.
  const platform::PlatformProfile p = windows_profile();
  const util::Digest mine = audio_vector(GetParam()).run(p, {});
  for (const VectorId other : VectorRegistry::instance().audio_ids()) {
    if (other == GetParam()) continue;
    EXPECT_NE(mine, audio_vector(other).run(p, {}))
        << "collides with " << to_string(other);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAudioVectors, AudioVectorTest,
                         ::testing::ValuesIn(
                             VectorRegistry::instance().audio_ids()),
                         [](const auto& info) {
                           std::string name(to_string(info.param));
                           for (char& c : name) {
                             if (c == ' ' || c == '-') c = '_';
                           }
                           return name;
                         });

TEST(DcVectorTest, ImmuneToJitter) {
  // The paper's headline stability observation (Table 1): DC never wavers,
  // because its graph has no analyser.
  const AudioFingerprintVector& dc = audio_vector(VectorId::kDc);
  const platform::PlatformProfile p = windows_profile();
  const util::Digest stable = dc.run(p, {});
  for (std::uint32_t state = 1; state <= 5; ++state) {
    webaudio::RenderJitter jitter;
    jitter.state = state;
    EXPECT_EQ(dc.run(p, jitter), stable) << "state " << state;
  }
  webaudio::RenderJitter chaos;
  chaos.chaos_seed = 777;
  EXPECT_EQ(dc.run(p, chaos), stable);
  EXPECT_EQ(dc.jitter_susceptibility(), 0.0);
}

TEST(FftFamilyTest, JitterStateChangesDigest) {
  for (const VectorId id :
       {VectorId::kFft, VectorId::kHybrid, VectorId::kCustomSignal,
        VectorId::kMergedSignals, VectorId::kAm, VectorId::kFm}) {
    const AudioFingerprintVector& vector = audio_vector(id);
    EXPECT_GT(vector.jitter_susceptibility(), 0.0);
    const platform::PlatformProfile p = windows_profile();
    webaudio::RenderJitter jitter;
    jitter.state = 1;
    EXPECT_NE(vector.run(p, {}), vector.run(p, jitter))
        << to_string(id);
  }
}

TEST(FftFamilyTest, ChaosSeedChangesDigestUniquely) {
  const AudioFingerprintVector& fft = audio_vector(VectorId::kFft);
  const platform::PlatformProfile p = windows_profile();
  webaudio::RenderJitter chaos1;
  chaos1.chaos_seed = 1;
  webaudio::RenderJitter chaos2;
  chaos2.chaos_seed = 2;
  const util::Digest d0 = fft.run(p, {});
  const util::Digest d1 = fft.run(p, chaos1);
  const util::Digest d2 = fft.run(p, chaos2);
  EXPECT_NE(d0, d1);
  EXPECT_NE(d0, d2);
  EXPECT_NE(d1, d2);
}

TEST(FftFamilyTest, ModulationVectorsMostSusceptible) {
  // Table 1 ordering: DC < FFT < Hybrid/Custom < Merged < AM/FM.
  const double fft = audio_vector(VectorId::kFft).jitter_susceptibility();
  const double hybrid = audio_vector(VectorId::kHybrid).jitter_susceptibility();
  const double merged =
      audio_vector(VectorId::kMergedSignals).jitter_susceptibility();
  const double am = audio_vector(VectorId::kAm).jitter_susceptibility();
  EXPECT_LT(fft, hybrid + 1e-12);
  EXPECT_LT(hybrid, merged);
  EXPECT_LT(merged, am);
}

TEST(FftVectorTest, DoesNotSeeCompressorTuning) {
  // The FFT graph (Fig. 2) has no compressor, so compressor tunings must be
  // invisible to it — this is why the paper's FFT and DC vectors partition
  // users differently.
  platform::PlatformProfile a = windows_profile();
  platform::PlatformProfile b = a;
  b.audio.compressor.release_zone2 = 1.27;
  EXPECT_NE(a.audio.class_key(), b.audio.class_key());
  EXPECT_EQ(audio_vector(VectorId::kFft).run(a, {}),
            audio_vector(VectorId::kFft).run(b, {}));
  // ... while DC does see it.
  EXPECT_NE(audio_vector(VectorId::kDc).run(a, {}),
            audio_vector(VectorId::kDc).run(b, {}));
}

TEST(DcVectorTest, DoesNotSeeAnalyserTuning) {
  platform::PlatformProfile a = windows_profile();
  platform::PlatformProfile b = a;
  b.audio.analyser.blackman_alpha = 0.158;
  EXPECT_EQ(audio_vector(VectorId::kDc).run(a, {}),
            audio_vector(VectorId::kDc).run(b, {}));
  EXPECT_NE(audio_vector(VectorId::kFft).run(a, {}),
            audio_vector(VectorId::kFft).run(b, {}));
}

TEST(DcVectorTest, FftBuildAbsorbedByFloatWavetables) {
  // FFT implementation differences live below float resolution in the
  // oscillator wavetables, so the DC path cannot see them — matching the
  // paper's Table 5 (Windows/Chrome: one DC fingerprint across CPU
  // generations).
  platform::PlatformProfile a = windows_profile();
  platform::PlatformProfile b = a;
  b.audio.fft = dsp::FftVariant::kSplitRadix;
  EXPECT_EQ(audio_vector(VectorId::kDc).run(a, {}),
            audio_vector(VectorId::kDc).run(b, {}));
  EXPECT_NE(audio_vector(VectorId::kFft).run(a, {}),
            audio_vector(VectorId::kFft).run(b, {}));
}

TEST(AmVectorTest, SeesDeepCompressionTuning) {
  // Zone-4 release tunings are only reached under heavy modulation: AM
  // splits, Hybrid does not (the paper's Combined > single-vector effect).
  platform::PlatformProfile a = windows_profile();
  platform::PlatformProfile b = a;
  b.audio.compressor.release_zone4 = 3.35;
  EXPECT_EQ(audio_vector(VectorId::kHybrid).run(a, {}),
            audio_vector(VectorId::kHybrid).run(b, {}));
  EXPECT_NE(audio_vector(VectorId::kAm).run(a, {}),
            audio_vector(VectorId::kAm).run(b, {}));
}

TEST(VectorRegistryTest, NamesAndIds) {
  EXPECT_EQ(VectorRegistry::instance().audio_ids().size(), 7u);
  for (const VectorId id : VectorRegistry::instance().audio_ids()) {
    EXPECT_EQ(audio_vector(id).id(), id);
    EXPECT_FALSE(is_static_vector(id));
  }
  EXPECT_TRUE(is_static_vector(VectorId::kCanvas));
  EXPECT_TRUE(is_static_vector(VectorId::kMathJs));
  EXPECT_THROW((void)audio_vector(VectorId::kCanvas), std::invalid_argument);
}

TEST(StaticVectorTest, RunStaticRejectsAudioIds) {
  const platform::PlatformProfile p = windows_profile();
  EXPECT_THROW((void)run_static_vector(VectorId::kDc, p),
               std::invalid_argument);
  EXPECT_EQ(run_static_vector(VectorId::kUserAgent, p),
            util::sha256(p.user_agent()));
}

}  // namespace
}  // namespace wafp::fingerprint
