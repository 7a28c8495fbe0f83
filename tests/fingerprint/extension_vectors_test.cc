#include <gtest/gtest.h>

#include "fingerprint/vector.h"
#include "fingerprint/vector_registry.h"
#include "platform/catalog.h"
#include "util/rng.h"

namespace wafp::fingerprint {
namespace {

platform::PlatformProfile reference_profile() {
  const platform::DeviceCatalog catalog;
  util::Rng rng(11);
  platform::PlatformProfile p = catalog.sample_profile(rng);
  p.audio = {};  // reference stack
  return p;
}

class ExtensionVectorTest : public ::testing::TestWithParam<VectorId> {};

TEST_P(ExtensionVectorTest, DeterministicAndRegistered) {
  const AudioFingerprintVector& vector = audio_vector(GetParam());
  EXPECT_EQ(vector.id(), GetParam());
  EXPECT_FALSE(is_static_vector(GetParam()));
  const platform::PlatformProfile p = reference_profile();
  EXPECT_EQ(vector.run(p, {}), vector.run(p, {}));
}

TEST_P(ExtensionVectorTest, SeesMathVariant) {
  const AudioFingerprintVector& vector = audio_vector(GetParam());
  platform::PlatformProfile a = reference_profile();
  platform::PlatformProfile b = a;
  b.audio.math = dsp::MathVariant::kFastPoly;
  EXPECT_NE(vector.run(a, {}), vector.run(b, {}));
}

TEST_P(ExtensionVectorTest, SeesFftBuild) {
  const AudioFingerprintVector& vector = audio_vector(GetParam());
  platform::PlatformProfile a = reference_profile();
  platform::PlatformProfile b = a;
  b.audio.fft = dsp::FftVariant::kSplitRadix;
  EXPECT_NE(vector.run(a, {}), vector.run(b, {}));
}

TEST_P(ExtensionVectorTest, RespondsToJitter) {
  const AudioFingerprintVector& vector = audio_vector(GetParam());
  EXPECT_GT(vector.jitter_susceptibility(), 0.0);
  const platform::PlatformProfile p = reference_profile();
  webaudio::RenderJitter jitter;
  jitter.state = 1;
  EXPECT_NE(vector.run(p, {}), vector.run(p, jitter));
}

INSTANTIATE_TEST_SUITE_P(Extensions, ExtensionVectorTest,
                         ::testing::ValuesIn(
                             VectorRegistry::instance().extension_ids()),
                         [](const auto& info) {
                           std::string name(to_string(info.param));
                           for (char& c : name) {
                             if (c == ' ') c = '_';
                           }
                           return name;
                         });

TEST(ExtensionVectorTest, NotPartOfThePaperSeven) {
  for (const VectorId id : VectorRegistry::instance().extension_ids()) {
    for (const VectorId paper : VectorRegistry::instance().audio_ids()) {
      EXPECT_NE(id, paper);
    }
  }
  EXPECT_EQ(VectorRegistry::instance().extension_ids().size(), 2u);
}

TEST(ExtensionVectorTest, DistinctFromPaperVectorsOnSameProfile) {
  const platform::PlatformProfile p = reference_profile();
  for (const VectorId ext : VectorRegistry::instance().extension_ids()) {
    const util::Digest d = audio_vector(ext).run(p, {});
    for (const VectorId paper : VectorRegistry::instance().audio_ids()) {
      EXPECT_NE(d, audio_vector(paper).run(p, {}));
    }
  }
}

}  // namespace
}  // namespace wafp::fingerprint
