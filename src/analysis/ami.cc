#include "analysis/ami.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "util/check.h"
#include "util/portable_math.h"
#include "util/stats.h"

namespace wafp::analysis {
namespace {

/// Remap arbitrary labels to dense 0..k-1.
std::vector<int> densify(std::span<const int> labels, std::size_t& k) {
  std::unordered_map<int, int> map;
  std::vector<int> out;
  out.reserve(labels.size());
  for (const int label : labels) {
    const auto [it, inserted] =
        map.try_emplace(label, static_cast<int>(map.size()));
    out.push_back(it->second);
  }
  k = map.size();
  return out;
}

/// Dense ids for the distinct values of a marginal, in first-seen order.
struct DistinctValues {
  std::vector<std::size_t> ids;  // ids[i] = id of sums[i]
  std::size_t count = 0;
};

constexpr std::size_t kNotYet = std::numeric_limits<std::size_t>::max();

/// `sums` must lie in [0, total], as every marginal of a table does.
DistinctValues distinct_values(std::span<const std::size_t> sums,
                               std::size_t total) {
  std::vector<std::size_t> id_of(total + 1, kNotYet);
  DistinctValues out;
  out.ids.reserve(sums.size());
  for (const std::size_t s : sums) {
    WAFP_CHECK(s <= total) << "marginal " << s << " exceeds total " << total;
    if (id_of[s] == kNotYet) id_of[s] = out.count++;
    out.ids.push_back(id_of[s]);
  }
  return out;
}

}  // namespace

ContingencyTable build_contingency(std::span<const int> a,
                                   std::span<const int> b) {
  WAFP_DCHECK(a.size() == b.size());
  std::size_t ka = 0, kb = 0;
  const std::vector<int> da = densify(a, ka);
  const std::vector<int> db = densify(b, kb);

  ContingencyTable table;
  table.cells.assign(ka, std::vector<std::size_t>(kb, 0));
  table.row_sums.assign(ka, 0);
  table.col_sums.assign(kb, 0);
  table.total = a.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ++table.cells[da[i]][db[i]];
    ++table.row_sums[da[i]];
    ++table.col_sums[db[i]];
  }
  return table;
}

double mutual_information(const ContingencyTable& table) {
  const auto n = static_cast<double>(table.total);
  double mi = 0.0;
  for (std::size_t i = 0; i < table.row_sums.size(); ++i) {
    for (std::size_t j = 0; j < table.col_sums.size(); ++j) {
      const std::size_t nij = table.cells[i][j];
      if (nij == 0) continue;
      const double pij = static_cast<double>(nij) / n;
      const double pi = static_cast<double>(table.row_sums[i]) / n;
      const double pj = static_cast<double>(table.col_sums[j]) / n;
      mi += pij * util::portable_log(pij / (pi * pj));
    }
  }
  return std::max(0.0, mi);
}

double marginal_entropy(std::span<const std::size_t> sums, std::size_t total) {
  const auto n = static_cast<double>(total);
  double h = 0.0;
  for (const std::size_t s : sums) {
    if (s == 0) continue;
    const double p = static_cast<double>(s) / n;
    h -= p * util::portable_log(p);
  }
  return h;
}

double expected_mutual_information(const ContingencyTable& table) {
  // Vinh et al. (2009), Eq. for E[MI] under the hypergeometric model:
  // sum over all (i, j) and all feasible nij of
  //   (nij/N) * ln(N*nij / (a_i*b_j)) * P_hypergeometric(nij; N, a_i, b_j).
  //
  // A term depends only on the marginal pair (a_i, b_j) and nij, and the
  // marginals repeat (singletons, equal-sized clusters), so each distinct
  // pair's terms are evaluated once, the first time the pair appears, and
  // replayed for every later cell with the same pair. Every term is still
  // added into `emi` on its own, in row, column, nij order, so the sum is
  // bit-identical to evaluating each term afresh.
  const std::size_t n = table.total;
  const auto nd = static_cast<double>(n);
  std::vector<double> lnf(n + 1);
  for (std::size_t k = 0; k <= n; ++k) lnf[k] = util::ln_factorial(k);

  const DistinctValues rows = distinct_values(table.row_sums, n);
  const DistinctValues cols = distinct_values(table.col_sums, n);
  // Distinct pair (r, c)'s terms are terms[begin, end) of its span,
  // spans[r * cols.count + c].
  struct Span {
    std::size_t begin = kNotYet;
    std::size_t end = 0;
  };
  std::vector<Span> spans(rows.count * cols.count);
  std::vector<double> terms;

  double emi = 0.0;
  for (std::size_t i = 0; i < table.row_sums.size(); ++i) {
    const std::size_t ai = table.row_sums[i];
    Span* const row_spans = spans.data() + rows.ids[i] * cols.count;
    for (std::size_t j = 0; j < table.col_sums.size(); ++j) {
      Span& span = row_spans[cols.ids[j]];
      if (span.begin == kNotYet) {
        const std::size_t bj = table.col_sums[j];
        const std::size_t lo = ai + bj > n ? ai + bj - n : std::size_t{1};
        const std::size_t hi = std::min(ai, bj);
        // ln P's first five operands, hoisted. `a + b - c - d` evaluates
        // left to right, so subtracting the four nij-dependent operands
        // from this prefix gives ln P the bits of the full expression.
        const double ln_marginals =
            lnf[ai] + lnf[bj] + lnf[n - ai] + lnf[n - bj] - lnf[n];
        span.begin = terms.size();
        for (std::size_t nij = std::max<std::size_t>(lo, 1); nij <= hi;
             ++nij) {
          const double term1 = static_cast<double>(nij) / nd;
          const double term2 = util::portable_log(
              nd * static_cast<double>(nij) /
              (static_cast<double>(ai) * static_cast<double>(bj)));
          const double ln_p = ln_marginals - lnf[nij] - lnf[ai - nij] -
                              lnf[bj - nij] - lnf[n - ai - bj + nij];
          terms.push_back(term1 * term2 * util::portable_exp(ln_p));
        }
        span.end = terms.size();
      }
      for (std::size_t t = span.begin; t < span.end; ++t) emi += terms[t];
    }
  }
  return emi;
}

double adjusted_mutual_information(std::span<const int> a,
                                   std::span<const int> b) {
  const ContingencyTable table = build_contingency(a, b);
  const double mi = mutual_information(table);
  const double h_a = marginal_entropy(table.row_sums, table.total);
  const double h_b = marginal_entropy(table.col_sums, table.total);
  // Degenerate cases: single-cluster partitions.
  if (h_a == 0.0 && h_b == 0.0) return 1.0;
  const double emi = expected_mutual_information(table);
  const double denom = 0.5 * (h_a + h_b) - emi;
  if (std::fabs(denom) < 1e-15) {
    return mi >= 0.5 * (h_a + h_b) ? 1.0 : 0.0;
  }
  return (mi - emi) / denom;
}

double normalized_mutual_information(std::span<const int> a,
                                     std::span<const int> b) {
  const ContingencyTable table = build_contingency(a, b);
  const double mi = mutual_information(table);
  const double h_a = marginal_entropy(table.row_sums, table.total);
  const double h_b = marginal_entropy(table.col_sums, table.total);
  if (h_a == 0.0 && h_b == 0.0) return 1.0;
  const double denom = 0.5 * (h_a + h_b);
  return denom > 0.0 ? mi / denom : 0.0;
}

}  // namespace wafp::analysis
