// The paper's analyses, one procedure per table/figure (see DESIGN.md §4
// for the experiment index). All operate on a collected Dataset.
#pragma once

#include <string>
#include <vector>

#include "analysis/entropy.h"
#include "collation/fingerprint_graph.h"
#include "study/dataset.h"

namespace wafp::study {

// --- §3.2: graph collation ------------------------------------------------

/// Build the bipartite user<->eFP graph for one vector from iterations
/// [begin, end) of the given users (all users if empty).
[[nodiscard]] collation::FingerprintGraph build_graph(
    const Dataset& ds, fingerprint::VectorId id, std::uint32_t begin,
    std::uint32_t end, std::span<const std::uint32_t> users = {});

/// Collated clustering of all users over all iterations.
[[nodiscard]] collation::Clustering collated_clustering(
    const Dataset& ds, fingerprint::VectorId id);

/// Labels for a static vector (plain digest equality).
[[nodiscard]] std::vector<int> static_labels(const Dataset& ds,
                                             fingerprint::VectorId id);

// --- Table 1 / Fig. 3: raw stability --------------------------------------

struct StabilityRow {
  fingerprint::VectorId id;
  std::size_t min = 0;
  std::size_t max = 0;
  double mean = 0.0;
};

/// # distinct elementary fingerprints per user across iterations.
[[nodiscard]] std::vector<StabilityRow> table1_stability(const Dataset& ds);

/// Histogram: index c-1 holds the number of users with exactly c distinct
/// elementary fingerprints for `id`.
[[nodiscard]] std::vector<std::size_t> fig3_distribution(
    const Dataset& ds, fingerprint::VectorId id);

// --- Fig. 5 / Table 6: collation stability ---------------------------------

struct AgreementPoint {
  std::size_t s = 0;
  double mean_ami = 0.0;
  double min_ami = 0.0;
};

/// Average pairwise AMI between the clusterings obtained from the
/// floor(k/s) disjoint iteration subsets of size s (paper Fig. 5).
[[nodiscard]] AgreementPoint cluster_agreement(const Dataset& ds,
                                               fingerprint::VectorId id,
                                               std::size_t s);

/// Fraction of probe subsets mapped back to their user's training cluster
/// (paper §3.3 / Table 6): the first size-s subset trains the graph, the
/// remaining subsets probe it.
[[nodiscard]] double fingerprint_match_score(const Dataset& ds,
                                             fingerprint::VectorId id,
                                             std::size_t s);

// --- Tables 2-4: diversity -------------------------------------------------

/// Diversity of one vector (collated for audio vectors, digest-equality for
/// static vectors).
[[nodiscard]] analysis::DiversityStats vector_diversity(
    const Dataset& ds, fingerprint::VectorId id);

/// Diversity of the tuple of all seven audio vectors (Table 2 "Combined").
[[nodiscard]] analysis::DiversityStats combined_audio_diversity(
    const Dataset& ds);

/// Tuple labels of all seven audio vectors (used by the additive-value
/// analysis).
[[nodiscard]] std::vector<int> combined_audio_labels(const Dataset& ds);

// --- Fig. 9: cross-vector agreement ----------------------------------------

/// 7x7 AMI matrix between the audio vectors' collated clusterings, in
/// VectorRegistry::audio_ids() order.
[[nodiscard]] std::vector<std::vector<double>> cross_vector_agreement(
    const Dataset& ds);

// --- §4: UA-span and additive value -----------------------------------------

struct UaSpanResult {
  std::size_t multi_user_uas = 0;      // UA strings shared by >1 user
  std::size_t multi_user_ua_users = 0; // users they cover
  std::size_t spanning_uas = 0;        // of those, UAs spanning >1 cluster
  std::size_t spanning_ua_users = 0;   // users they cover
  std::size_t uas_with_5plus_clusters = 0;
  std::size_t max_clusters_single_ua = 0;
};

/// Checks W3C's claim that audio fingerprints add nothing over the UA
/// header, against one audio vector's collated clusters.
[[nodiscard]] UaSpanResult ua_span_analysis(const Dataset& ds,
                                            fingerprint::VectorId audio_id);

struct AdditiveResult {
  double base_entropy = 0.0;
  double combined_entropy = 0.0;
  double percent_increase = 0.0;
};

/// Entropy of `base_id` alone vs (base_id + all-audio tuple) — the paper's
/// "Canvas + Audio" / "UA + Audio" analysis.
[[nodiscard]] AdditiveResult additive_value(const Dataset& ds,
                                            fingerprint::VectorId base_id);

// --- Table 5: per-platform DC vs Math JS ------------------------------------

struct PlatformComparisonRow {
  std::string platform;
  std::size_t users = 0;
  std::size_t dc_distinct = 0;
  std::size_t mathjs_distinct = 0;
};

/// Distinct DC vs Math JS fingerprints per (OS, browser) platform, largest
/// platforms first.
[[nodiscard]] std::vector<PlatformComparisonRow> platform_comparison(
    const Dataset& ds, std::size_t max_rows = 5);

// --- §5: ranking stability across user subsets ------------------------------

/// e_norm ranking of the main vectors within each of `parts` disjoint user
/// subsets; returns one ranking (vector names, most diverse first) per
/// subset plus one for the full dataset (last entry).
[[nodiscard]] std::vector<std::vector<std::string>> subset_rankings(
    const Dataset& ds, std::size_t parts);

}  // namespace wafp::study
