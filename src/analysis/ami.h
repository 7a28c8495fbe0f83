// Adjusted Mutual Information (Vinh, Epps, Bailey 2009/2010) — the
// chance-corrected clustering-agreement measure the paper uses for its
// stability analysis (§3.3, Fig. 5) and cross-vector comparison (Fig. 9).
// AMI = (MI - E[MI]) / (mean(H(U), H(V)) - E[MI]) with the expectation
// taken under the hypergeometric (permutation) model.
#pragma once

#include <span>
#include <vector>

namespace wafp::analysis {

/// Contingency table between two label vectors of equal length.
struct ContingencyTable {
  std::vector<std::vector<std::size_t>> cells;  // [cluster_a][cluster_b]
  std::vector<std::size_t> row_sums;
  std::vector<std::size_t> col_sums;
  std::size_t total = 0;
};

[[nodiscard]] ContingencyTable build_contingency(std::span<const int> a,
                                                 std::span<const int> b);

/// Mutual information (natural log).
[[nodiscard]] double mutual_information(const ContingencyTable& table);

/// Entropy (natural log) of the marginal given by `sums`.
[[nodiscard]] double marginal_entropy(std::span<const std::size_t> sums,
                                      std::size_t total);

/// Expected MI under the hypergeometric model (natural log). Exact and
/// memoised per call: ln k! is tabulated for k = 0..N, each distinct
/// marginal pair (a_i, b_j) has its hypergeometric terms evaluated once,
/// and every cell's terms are then added one at a time in row, column, n_ij
/// order, so the result is bit-identical to evaluating every term afresh
/// (tests/analysis/emi_parity_test.cc). All state is local to the call.
[[nodiscard]] double expected_mutual_information(const ContingencyTable& table);

/// Adjusted Mutual Information with arithmetic-mean normalization (the
/// common default); 1 = identical clusterings, ~0 = chance agreement.
[[nodiscard]] double adjusted_mutual_information(std::span<const int> a,
                                                 std::span<const int> b);

/// Normalized Mutual Information (no chance correction), for comparison.
[[nodiscard]] double normalized_mutual_information(std::span<const int> a,
                                                   std::span<const int> b);

}  // namespace wafp::analysis
