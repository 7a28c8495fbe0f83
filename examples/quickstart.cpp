// Quickstart: fingerprint one simulated device with all seven Web Audio
// vectors (plus the comparison vectors), the way the study's web page did
// for each participant.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "fingerprint/collector.h"
#include "fingerprint/vector.h"
#include "fingerprint/vector_registry.h"
#include "platform/catalog.h"
#include "platform/population.h"

int main() {
  using namespace wafp;

  // Sample one participant from the device catalog (seeded, reproducible).
  const platform::DeviceCatalog catalog;
  const platform::Population population(catalog, /*size=*/1, /*seed=*/2021);
  const platform::StudyUser& user = population.user(0);

  std::printf("Simulated participant\n");
  std::printf("  OS       : %s %s\n", std::string(to_string(user.profile.os)).c_str(),
              user.profile.os_version.c_str());
  std::printf("  Browser  : %s %s (%s)\n",
              std::string(to_string(user.profile.browser)).c_str(),
              user.profile.browser_version.c_str(),
              std::string(to_string(user.profile.engine)).c_str());
  std::printf("  UA       : %s\n", user.profile.user_agent().c_str());
  std::printf("  Audio    : %s\n", user.profile.audio.class_key().c_str());
  std::printf("  Country  : %s\n\n", user.profile.country.c_str());

  fingerprint::RenderCache cache;
  fingerprint::FingerprintCollector collector({&cache});

  std::printf("Audio fingerprints (3 iterations each):\n");
  const auto audio_ids =
      fingerprint::VectorRegistry::instance().audio_ids();
  for (const fingerprint::VectorId id : audio_ids) {
    std::printf("  %-15s", std::string(to_string(id)).c_str());
    for (std::uint32_t iteration = 0; iteration < 3; ++iteration) {
      const util::Digest d = collector.collect(user, id, iteration);
      std::printf(" %s", d.short_hex().c_str());
    }
    std::printf("\n");
  }

  std::printf("\nComparison fingerprints:\n");
  for (const fingerprint::VectorId id :
       {fingerprint::VectorId::kCanvas, fingerprint::VectorId::kFonts,
        fingerprint::VectorId::kUserAgent, fingerprint::VectorId::kMathJs}) {
    const util::Digest d = fingerprint::run_static_vector(id, user.profile);
    std::printf("  %-15s %s\n", std::string(to_string(id)).c_str(),
                d.short_hex().c_str());
  }

  std::printf("\nRender cache: %zu entries, %zu hits, %zu misses\n",
              cache.entries(), cache.hits(), cache.misses());
  return 0;
}
