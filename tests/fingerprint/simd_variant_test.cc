// Render-level contract of the SIMD-backed math variants (DESIGN.md §3g):
// kSimdSse2/kSimdAvx2 are fingerprint *surface*, so their rendered digests
// must diverge from the scalar variants and from each other, while staying
// perfectly self-deterministic — the same stack must produce the same bits
// on every run. (Bit-identity across the *executing* backend — WAFP_SIMD —
// is covered at the kernel layer in tests/dsp/simd_test.cc and by the CI
// conformance leg that re-runs the goldens under WAFP_SIMD=scalar.)
#include <gtest/gtest.h>

#include <vector>

#include "fingerprint/vector.h"
#include "fingerprint/vector_registry.h"
#include "platform/catalog.h"
#include "util/rng.h"

namespace wafp::fingerprint {
namespace {

platform::PlatformProfile profile_with_math(dsp::MathVariant math) {
  const platform::DeviceCatalog catalog;
  util::Rng rng(17);
  platform::PlatformProfile p = catalog.sample_profile(rng);
  p.audio = {};  // pin every other knob so only the math variant differs
  p.audio.math = math;
  return p;
}

constexpr dsp::MathVariant kSimdVariants[] = {dsp::MathVariant::kSimdSse2,
                                              dsp::MathVariant::kSimdAvx2};

// The oscillator/FFT-heavy vectors: every sample they render passes through
// the math library, so a scheme change must reach the digest.
constexpr VectorId kMathSensitiveVectors[] = {
    VectorId::kFft, VectorId::kHybrid, VectorId::kMergedSignals,
    VectorId::kAm};

TEST(SimdVariantRenderTest, SelfDeterministicAcrossRepeatedRenders) {
  for (const dsp::MathVariant variant : kSimdVariants) {
    const platform::PlatformProfile p = profile_with_math(variant);
    for (const VectorId id : VectorRegistry::instance().audio_ids()) {
      const AudioFingerprintVector& vector = audio_vector(id);
      const util::Digest first = vector.run(p, {});
      EXPECT_EQ(first, vector.run(p, {}))
          << to_string(id) << " unstable under "
          << dsp::to_string(variant);
    }
  }
}

TEST(SimdVariantRenderTest, DivergesFromScalarVariants) {
  // Each SIMD scheme must be a *new* audio class, not an alias of one of
  // the scalar schemes it shares a codebase with.
  constexpr dsp::MathVariant kScalarVariants[] = {
      dsp::MathVariant::kPrecise, dsp::MathVariant::kFdlibm,
      dsp::MathVariant::kFastPoly, dsp::MathVariant::kTable};
  for (const dsp::MathVariant simd : kSimdVariants) {
    const platform::PlatformProfile sp = profile_with_math(simd);
    for (const dsp::MathVariant scalar : kScalarVariants) {
      const platform::PlatformProfile pp = profile_with_math(scalar);
      for (const VectorId id : kMathSensitiveVectors) {
        const AudioFingerprintVector& vector = audio_vector(id);
        EXPECT_NE(vector.run(sp, {}), vector.run(pp, {}))
            << to_string(id) << ": " << dsp::to_string(simd)
            << " aliases " << dsp::to_string(scalar);
      }
    }
  }
}

TEST(SimdVariantRenderTest, Sse2AndAvx2SchemesDivergeFromEachOther) {
  const platform::PlatformProfile sse2 =
      profile_with_math(dsp::MathVariant::kSimdSse2);
  const platform::PlatformProfile avx2 =
      profile_with_math(dsp::MathVariant::kSimdAvx2);
  for (const VectorId id : kMathSensitiveVectors) {
    const AudioFingerprintVector& vector = audio_vector(id);
    EXPECT_NE(vector.run(sse2, {}), vector.run(avx2, {})) << to_string(id);
  }
}

TEST(SimdVariantRenderTest, JitterStatesStayDistinctUnderSimdMath) {
  // The fickleness model must keep working on the new archetypes: distinct
  // jitter states produce distinct digests, repeatably.
  const platform::PlatformProfile p =
      profile_with_math(dsp::MathVariant::kSimdAvx2);
  const AudioFingerprintVector& vector = audio_vector(VectorId::kHybrid);
  webaudio::RenderJitter a;
  a.state = 1;
  webaudio::RenderJitter b;
  b.state = 2;
  EXPECT_NE(vector.run(p, a), vector.run(p, b));
  EXPECT_EQ(vector.run(p, a), vector.run(p, a));
}

}  // namespace
}  // namespace wafp::fingerprint
