#include "study/experiments.h"

#include <gtest/gtest.h>

#include <numeric>

#include "fingerprint/vector_registry.h"

namespace wafp::study {
namespace {

using fingerprint::VectorId;
using fingerprint::VectorRegistry;

/// A mid-sized study shared by all experiment tests (collected once).
const Dataset& study() {
  static const Dataset ds = [] {
    StudyConfig cfg;
    cfg.num_users = 250;
    cfg.iterations = 12;
    cfg.seed = 20212021;
    return Dataset::collect(cfg);
  }();
  return ds;
}

TEST(Table1Test, DcPerfectlyStableOthersNot) {
  const auto rows = table1_stability(study());
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[0].id, VectorId::kDc);
  EXPECT_EQ(rows[0].min, 1u);
  EXPECT_EQ(rows[0].max, 1u);
  EXPECT_DOUBLE_EQ(rows[0].mean, 1.0);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].min, 1u) << "min must be 1 for every vector (Table 1)";
    EXPECT_GT(rows[i].max, 1u);
    EXPECT_GT(rows[i].mean, 1.0);
    EXPECT_LT(rows[i].max, study().iterations() + 1);
  }
}

TEST(Table1Test, ModulationVectorsFlakiest) {
  const auto rows = table1_stability(study());
  const double fft_mean = rows[1].mean;    // FFT
  const double am_mean = rows[5].mean;     // AM
  const double fm_mean = rows[6].mean;     // FM
  EXPECT_GT(am_mean, fft_mean);
  EXPECT_GT(fm_mean, fft_mean);
}

TEST(Fig3Test, HistogramSumsToUsersAndDecaysFromOne) {
  const auto histogram = fig3_distribution(study(), VectorId::kHybrid);
  const std::size_t total =
      std::accumulate(histogram.begin(), histogram.end(), std::size_t{0});
  EXPECT_EQ(total, study().num_users());
  ASSERT_GE(histogram.size(), 2u);
  // Most users have exactly one fingerprint; one > two.
  EXPECT_GT(histogram[0], study().num_users() / 3);
  EXPECT_GT(histogram[0], histogram[1]);
}

TEST(CollationTest, GraphCoversAllUsers) {
  const auto graph = build_graph(study(), VectorId::kHybrid, 0, 12);
  EXPECT_EQ(graph.user_count(), study().num_users());
  EXPECT_GT(graph.fingerprint_count(), 0u);
  EXPECT_LE(graph.cluster_count(), study().num_users());
}

TEST(CollationTest, CollatedClusteringHasFewerClustersThanRawDigests) {
  // Collation merges the multiple fickle digests of each user.
  const auto clustering = collated_clustering(study(), VectorId::kAm);
  std::set<util::Digest> raw;
  for (std::size_t u = 0; u < study().num_users(); ++u) {
    for (const auto& d : study().audio_observations(u, VectorId::kAm)) {
      raw.insert(d);
    }
  }
  EXPECT_LT(static_cast<std::size_t>(clustering.num_clusters), raw.size());
}

TEST(ClusterAgreementTest, HighForAllVectors) {
  for (const VectorId id : VectorRegistry::instance().audio_ids()) {
    const AgreementPoint point = cluster_agreement(study(), id, 4);
    EXPECT_GT(point.mean_ami, 0.9) << to_string(id);
    EXPECT_LE(point.mean_ami, 1.0 + 1e-9);
  }
}

TEST(ClusterAgreementTest, DcAgreementPerfect) {
  for (const std::size_t s : {2u, 3u, 6u}) {
    EXPECT_DOUBLE_EQ(cluster_agreement(study(), VectorId::kDc, s).mean_ami,
                     1.0);
  }
}

TEST(ClusterAgreementTest, LargerSubsetsAgreeAtLeastAsWell) {
  const double small =
      cluster_agreement(study(), VectorId::kHybrid, 2).mean_ami;
  const double large =
      cluster_agreement(study(), VectorId::kHybrid, 6).mean_ami;
  EXPECT_GE(large, small - 0.02);
}

TEST(MatchScoreTest, HighForAllVectorsAndSizes) {
  // Paper Table 6: minimum 0.9899 (s=3).
  for (const VectorId id : VectorRegistry::instance().audio_ids()) {
    for (const std::size_t s : {3u, 6u}) {
      const double score = fingerprint_match_score(study(), id, s);
      EXPECT_GT(score, 0.95) << to_string(id) << " s=" << s;
      EXPECT_LE(score, 1.0);
    }
  }
}

TEST(MatchScoreTest, DcMatchesPerfectly) {
  EXPECT_DOUBLE_EQ(fingerprint_match_score(study(), VectorId::kDc, 3), 1.0);
}

TEST(DiversityTest, PaperOrderingHolds) {
  // DC is the least diverse audio vector; Combined at least matches the
  // best single vector (Table 2 structure).
  const auto dc = vector_diversity(study(), VectorId::kDc);
  const auto fft = vector_diversity(study(), VectorId::kFft);
  const auto hybrid = vector_diversity(study(), VectorId::kHybrid);
  const auto combined = combined_audio_diversity(study());

  EXPECT_LT(dc.entropy, fft.entropy);
  EXPECT_GE(hybrid.distinct, fft.distinct);
  EXPECT_GE(combined.distinct, hybrid.distinct);
  EXPECT_GE(combined.entropy, hybrid.entropy - 1e-9);
}

TEST(DiversityTest, OtherVectorsFarMoreDiverseThanAudio) {
  // Table 2 vs Table 3: Canvas/Fonts/UA dwarf the audio vectors.
  const auto combined = combined_audio_diversity(study());
  for (const VectorId id :
       {VectorId::kCanvas, VectorId::kFonts, VectorId::kUserAgent}) {
    EXPECT_GT(vector_diversity(study(), id).entropy, combined.entropy)
        << to_string(id);
  }
}

TEST(DiversityTest, NormalizedEntropyInRange) {
  for (const VectorId id : VectorRegistry::instance().audio_ids()) {
    const auto stats = vector_diversity(study(), id);
    EXPECT_GE(stats.normalized, 0.0);
    EXPECT_LE(stats.normalized, 1.0);
    EXPECT_GE(stats.distinct, stats.unique);
  }
}

TEST(CrossVectorTest, FftFamilyMutuallyAligned) {
  // Fig. 9: the FFT-based vectors agree with one another far better than
  // with DC.
  const auto matrix = cross_vector_agreement(study());
  ASSERT_EQ(matrix.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_DOUBLE_EQ(matrix[i][i], 1.0);
    for (std::size_t j = 0; j < 7; ++j) {
      EXPECT_NEAR(matrix[i][j], matrix[j][i], 1e-12);
    }
  }
  // FFT (index 1) vs Hybrid (2) beats FFT vs DC (0).
  EXPECT_GT(matrix[1][2], matrix[1][0]);
  EXPECT_GT(matrix[1][2], 0.9);
}

TEST(UaSpanTest, ContradictsW3cClaim) {
  // §4: a significant share of multi-user UAs spans several audio
  // clusters, i.e. audio reveals information beyond the UA header.
  const UaSpanResult result = ua_span_analysis(study(), VectorId::kFft);
  EXPECT_GT(result.multi_user_uas, 0u);
  EXPECT_GT(result.spanning_uas, 0u);
  EXPECT_GE(result.multi_user_uas, result.spanning_uas);
  EXPECT_GE(result.max_clusters_single_ua, 2u);
}

TEST(AdditiveValueTest, AudioAddsEntropyToCanvasAndUa) {
  for (const VectorId id : {VectorId::kCanvas, VectorId::kUserAgent}) {
    const AdditiveResult result = additive_value(study(), id);
    EXPECT_GT(result.combined_entropy, result.base_entropy);
    EXPECT_GT(result.percent_increase, 0.0);
    EXPECT_LT(result.percent_increase, 100.0);
  }
}

TEST(PlatformComparisonTest, WindowsChromeNearOneToOne) {
  const auto rows = platform_comparison(study());
  ASSERT_FALSE(rows.empty());
  // Largest platform is Windows/Chrome; its Math JS diversity must be
  // minimal (Table 5).
  EXPECT_EQ(rows[0].platform, "Windows/Chrome");
  EXPECT_LE(rows[0].mathjs_distinct, 2u);
  EXPECT_GT(rows[0].users, study().num_users() / 2);
}

TEST(SubsetRankingTest, TopVectorsStableAcrossSubsets) {
  const auto rankings = subset_rankings(study(), 2);
  ASSERT_EQ(rankings.size(), 3u);  // 2 subsets + full
  for (const auto& ranking : rankings) {
    ASSERT_EQ(ranking.size(), 10u);
    // §5: the non-audio vectors always rank above the audio vectors, and DC
    // is always last.
    EXPECT_EQ(ranking.back(), "DC");
    const std::set<std::string> top3(ranking.begin(), ranking.begin() + 3);
    EXPECT_TRUE(top3.contains("Fonts"));
    EXPECT_TRUE(top3.contains("Canvas"));
    EXPECT_TRUE(top3.contains("User-Agent"));
  }
}

TEST(StaticLabelsTest, MatchDigestEquality) {
  const auto labels = static_labels(study(), VectorId::kUserAgent);
  ASSERT_EQ(labels.size(), study().num_users());
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = i + 1; j < 50; ++j) {
      const bool same_digest =
          study().static_observation(i, VectorId::kUserAgent) ==
          study().static_observation(j, VectorId::kUserAgent);
      EXPECT_EQ(labels[i] == labels[j], same_digest);
    }
  }
}

}  // namespace
}  // namespace wafp::study
