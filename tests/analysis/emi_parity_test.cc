// Bit-exact parity of the memoised expected-MI sum (analysis/ami.cc) with
// the per-term loop it replaced, kept below verbatim as the reference. The
// memoised sum adds the same terms into the same accumulator in the same
// order, so E[MI] and AMI must match to the last bit, not merely within
// testing::kMetricRelTolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/ami.h"
#include "collation/fingerprint_graph.h"
#include "fingerprint/vector_registry.h"
#include "study/dataset.h"
#include "study/experiments.h"
#include "util/portable_math.h"
#include "util/rng.h"
#include "util/stats.h"

namespace wafp::analysis {
namespace {

/// expected_mutual_information before memoisation, verbatim (reformatted).
double reference_emi(const ContingencyTable& table) {
  // Vinh et al. (2009), Eq. for E[MI] under the hypergeometric model:
  // sum over all (i, j) and all feasible nij of
  //   (nij/N) * ln(N*nij / (a_i*b_j)) * P_hypergeometric(nij; N, a_i, b_j).
  const std::size_t n = table.total;
  const auto nd = static_cast<double>(n);
  const double ln_n_fact = util::ln_factorial(n);

  double emi = 0.0;
  for (const std::size_t ai : table.row_sums) {
    for (const std::size_t bj : table.col_sums) {
      const std::size_t lo = ai + bj > n ? ai + bj - n : std::size_t{1};
      const std::size_t hi = std::min(ai, bj);
      for (std::size_t nij = std::max<std::size_t>(lo, 1); nij <= hi; ++nij) {
        const double term1 = static_cast<double>(nij) / nd;
        const double term2 = util::portable_log(
            nd * static_cast<double>(nij) /
            (static_cast<double>(ai) * static_cast<double>(bj)));
        const double ln_p =
            util::ln_factorial(ai) + util::ln_factorial(bj) +
            util::ln_factorial(n - ai) + util::ln_factorial(n - bj) -
            ln_n_fact - util::ln_factorial(nij) -
            util::ln_factorial(ai - nij) - util::ln_factorial(bj - nij) -
            util::ln_factorial(n - ai - bj + nij);
        emi += term1 * term2 * util::portable_exp(ln_p);
      }
    }
  }
  return emi;
}

/// adjusted_mutual_information's formula around a given expected MI.
double reference_ami(const ContingencyTable& table, double emi) {
  const double mi = mutual_information(table);
  const double h_a = marginal_entropy(table.row_sums, table.total);
  const double h_b = marginal_entropy(table.col_sums, table.total);
  // Degenerate cases: single-cluster partitions.
  if (h_a == 0.0 && h_b == 0.0) return 1.0;
  const double denom = 0.5 * (h_a + h_b) - emi;
  if (std::fabs(denom) < 1e-15) {
    return mi >= 0.5 * (h_a + h_b) ? 1.0 : 0.0;
  }
  return (mi - emi) / denom;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Label shapes that stress the memo differently: every marginal distinct
/// or all equal, one huge cluster, long singleton tails.
enum class Shape {
  kUniform,        // k clusters, k uniform in [1, n]
  kAllSingleton,   // n clusters of one
  kOneCluster,     // one cluster of n
  kSkewed,         // geometric cluster sizes plus a tail of singletons
  kEqualBlocks,    // equal-sized clusters: one repeated marginal value
  kNearCopy,       // the other labeling with one to three users moved
};
constexpr int kShapes = 6;

std::vector<int> shuffled_iota(std::size_t n, util::Rng& rng) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
  return v;
}

std::vector<int> make_labels(Shape shape, std::size_t n,
                             std::span<const int> other, util::Rng& rng) {
  std::vector<int> labels(n, 0);
  switch (shape) {
    case Shape::kUniform: {
      const std::uint64_t k = 1 + rng.next_below(n);
      for (int& l : labels) l = static_cast<int>(rng.next_below(k));
      break;
    }
    case Shape::kAllSingleton:
      labels = shuffled_iota(n, rng);
      break;
    case Shape::kOneCluster:
      break;
    case Shape::kSkewed:
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.next_bool(0.3)) {
          labels[i] = static_cast<int>(1000 + i);
          continue;
        }
        int level = 0;
        while (level < 30 && rng.next_bool(0.5)) ++level;
        labels[i] = level;
      }
      break;
    case Shape::kEqualBlocks: {
      const auto size = static_cast<int>(
          1 + rng.next_below(std::max<std::size_t>(1, n / 2)));
      const std::vector<int> order = shuffled_iota(n, rng);
      for (std::size_t i = 0; i < n; ++i) labels[i] = order[i] / size;
      break;
    }
    case Shape::kNearCopy: {
      labels.assign(other.begin(), other.end());
      const std::uint64_t moves = 1 + rng.next_below(3);
      for (std::uint64_t m = 0; m < moves; ++m) {
        const std::size_t who = rng.next_below(n);
        // Into another user's cluster, or a cluster of its own.
        labels[who] = rng.next_bool(0.5) ? labels[rng.next_below(n)]
                                         : -1 - static_cast<int>(m);
      }
      break;
    }
  }
  return labels;
}

/// Checks the library's E[MI] and AMI of (a, b) against the reference bit
/// for bit; returns the reference AMI.
double expect_bit_identical(std::span<const int> a, std::span<const int> b,
                            const std::string& what) {
  const ContingencyTable table = build_contingency(a, b);
  const double emi = expected_mutual_information(table);
  const double want_emi = reference_emi(table);
  EXPECT_EQ(bits(emi), bits(want_emi))
      << what << ": E[MI] " << emi << " vs " << want_emi;
  const double ami = adjusted_mutual_information(a, b);
  const double want_ami = reference_ami(table, want_emi);
  EXPECT_EQ(bits(ami), bits(want_ami))
      << what << ": AMI " << ami << " vs " << want_ami;
  return want_ami;
}

void expect_bit_identical(Shape shape_a, Shape shape_b, std::size_t n,
                          util::Rng& rng) {
  const std::vector<int> a = make_labels(shape_a, n, {}, rng);
  const std::vector<int> b = make_labels(shape_b, n, a, rng);
  expect_bit_identical(a, b,
                       "shapes " + std::to_string(static_cast<int>(shape_a)) +
                           "/" + std::to_string(static_cast<int>(shape_b)) +
                           " n " + std::to_string(n));
}

TEST(EmiParityTest, SeededTablesMatchTheReferenceLoopBitForBit) {
  // 1,200 tables: every (shape of a, shape of b) combination 40 times, N = 1,
  // 2 and 3 first, then uniform in [1, 200]. The old loop's cost grows with
  // N times the smaller cluster count, so larger N comes from the list below.
  util::Rng rng(20221025);
  std::size_t tables = 0;
  for (std::size_t round = 0; round < 40; ++round) {
    for (int a = 0; a < kShapes; ++a) {
      if (static_cast<Shape>(a) == Shape::kNearCopy) continue;  // needs b
      for (int b = 0; b < kShapes; ++b) {
        const std::size_t n = round < 3 ? round + 1 : 1 + rng.next_below(200);
        expect_bit_identical(static_cast<Shape>(a), static_cast<Shape>(b), n,
                             rng);
        ++tables;
      }
    }
  }
  EXPECT_EQ(tables, 1200u);
}

TEST(EmiParityTest, LargeTablesMatchTheReferenceLoopBitForBit) {
  struct Case {
    Shape a;
    Shape b;
    std::size_t n;
  };
  const Case cases[] = {
      // Every cell the same (1, 1) pair: the memo's best case.
      {Shape::kAllSingleton, Shape::kAllSingleton, 2000},
      // Full-scale Fig 5 compares near-identical skewed clusterings.
      {Shape::kSkewed, Shape::kNearCopy, 2093},
      {Shape::kUniform, Shape::kUniform, 2000},
      {Shape::kEqualBlocks, Shape::kSkewed, 2048},
      {Shape::kOneCluster, Shape::kAllSingleton, 2000},
      {Shape::kEqualBlocks, Shape::kNearCopy, 1500},
      {Shape::kSkewed, Shape::kUniform, 1000},
  };
  util::Rng rng(1);
  for (const Case& c : cases) expect_bit_identical(c.a, c.b, c.n, rng);
  // N across [200, 2000] against every shape, from the shapes whose old-loop
  // cost stays small there (one cluster, or equal blocks of random size).
  for (int t = 0; t < 36; ++t) {
    const Shape a = t % 2 == 0 ? Shape::kOneCluster : Shape::kEqualBlocks;
    const auto b = static_cast<Shape>(t / 2 % kShapes);
    expect_bit_identical(a, b, 200 + rng.next_below(1801), rng);
  }
}

TEST(EmiParityTest, Fig5ClusteringsMatchTheReferenceLoopBitForBit) {
  // Fig 5's shape on a small cohort: subsets of s = 1..15 consecutive
  // iterations out of 30, every pair of subset clusterings per vector.
  study::StudyConfig config;
  config.num_users = 40;
  config.iterations = 30;
  config.seed = 1234;
  const study::Dataset ds = study::Dataset::collect(config);
  std::vector<std::uint32_t> users(ds.num_users());
  std::iota(users.begin(), users.end(), 0U);

  for (const fingerprint::VectorId id :
       fingerprint::VectorRegistry::instance().audio_ids()) {
    for (std::size_t s = 1; s <= 15; ++s) {
      const std::size_t subsets = ds.iterations() / s;
      std::vector<collation::Clustering> clusterings(subsets);
      for (std::size_t i = 0; i < subsets; ++i) {
        clusterings[i] =
            study::build_graph(ds, id, static_cast<std::uint32_t>(i * s),
                               static_cast<std::uint32_t>((i + 1) * s))
                .extract_clustering(users);
      }
      double total = 0.0;
      double min_ami = 1.0;
      std::size_t pairs = 0;
      for (std::size_t i = 0; i < subsets; ++i) {
        for (std::size_t j = i + 1; j < subsets; ++j) {
          const std::vector<int>& a = clusterings[i].labels;
          const std::vector<int>& b = clusterings[j].labels;
          const double ami =
              expect_bit_identical(a, b, "s " + std::to_string(s));
          total += ami;
          min_ami = std::min(min_ami, ami);
          ++pairs;
        }
      }
      // cluster_agreement reduces the same AMIs in the same pair order.
      const study::AgreementPoint point = study::cluster_agreement(ds, id, s);
      EXPECT_EQ(bits(point.mean_ami),
                bits(total / static_cast<double>(pairs)));
      EXPECT_EQ(bits(point.min_ami), bits(min_ami));
    }
  }
}

}  // namespace
}  // namespace wafp::analysis
