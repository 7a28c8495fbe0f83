// Smoke test that the umbrella header is self-contained and the advertised
// top-level workflow compiles and runs against it alone.
#include "wafp.h"

#include <gtest/gtest.h>

namespace {

TEST(UmbrellaHeaderTest, EndToEndWorkflowCompiles) {
  using namespace wafp;

  platform::DeviceCatalog catalog;
  platform::Population users(catalog, 8, 123);
  fingerprint::RenderCache cache;
  fingerprint::FingerprintCollector collector({&cache});

  collation::FingerprintGraph graph;
  for (const platform::StudyUser& user : users.users()) {
    graph.add_observation(
        user.id, collector.collect(user, fingerprint::VectorId::kDc, 0));
  }
  EXPECT_GT(graph.cluster_count(), 0u);
  EXPECT_LE(graph.cluster_count(), 8u);

  const std::vector<int> labels =
      graph.extract_clustering(std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6,
                                                          7})
          .labels;
  const analysis::DiversityStats stats =
      analysis::diversity_from_labels(labels);
  EXPECT_LE(stats.normalized, 1.0);
}

}  // namespace
