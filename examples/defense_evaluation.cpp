// Defense evaluation (paper §4 "Mitigations"): the Brave browser randomizes
// Web Audio results per session ("farbling") to break fingerprinting. This
// example simulates that defense — per-session pseudo-random perturbation of
// every audio fingerprint digest — and measures what it does to the
// attacker's two assets: linkability across sessions (collation match rate)
// and population diversity (entropy).
//
//   ./build/examples/defense_evaluation [num_users]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "analysis/entropy.h"
#include "collation/fingerprint_graph.h"
#include "fingerprint/collector.h"
#include "platform/catalog.h"
#include "platform/population.h"

namespace {

using namespace wafp;

/// Brave-style farbling: the digest is re-randomized with a per-(user,
/// session) key, so two sessions of the same browser no longer collide.
util::Digest farble(const util::Digest& digest, std::uint64_t user_seed,
                    std::uint32_t session) {
  util::Sha256 hasher;
  hasher.update(std::span<const std::uint8_t>(digest.bytes));
  hasher.update("farble");
  hasher.update_u64(util::derive_seed(user_seed, session));
  return hasher.finish();
}

struct DefenseResult {
  double match_rate = 0.0;
  analysis::DiversityStats diversity;
};

DefenseResult evaluate(const platform::Population& population, bool defended) {
  const fingerprint::VectorId vector = fingerprint::VectorId::kHybrid;
  constexpr std::uint32_t kIterationsPerSession = 4;

  fingerprint::RenderCache cache;
  fingerprint::FingerprintCollector collector({&cache});

  auto session_digest = [&](const platform::StudyUser& user,
                            std::uint32_t session, std::uint32_t iteration) {
    const util::Digest raw = collector.collect(
        user, vector, session * kIterationsPerSession + iteration);
    return defended ? farble(raw, user.seed, session) : raw;
  };

  // Session 0 trains the attacker's graph.
  collation::FingerprintGraph graph;
  for (const platform::StudyUser& user : population.users()) {
    for (std::uint32_t it = 0; it < kIterationsPerSession; ++it) {
      graph.add_observation(user.id, session_digest(user, 0, it));
    }
  }

  // Session 1 probes it.
  std::size_t matched = 0;
  std::vector<util::Digest> probe;
  for (const platform::StudyUser& user : population.users()) {
    probe.clear();
    for (std::uint32_t it = 0; it < kIterationsPerSession; ++it) {
      probe.push_back(session_digest(user, 1, it));
    }
    const auto hit = graph.match(probe);
    const auto expected = graph.user_component(user.id);
    if (hit.has_value() && expected.has_value() && *hit == *expected) {
      ++matched;
    }
  }

  DefenseResult result;
  result.match_rate = static_cast<double>(matched) /
                      static_cast<double>(population.size());
  std::vector<std::uint32_t> ids(population.size());
  for (std::uint32_t i = 0; i < population.size(); ++i) ids[i] = i;
  result.diversity = analysis::diversity_from_labels(
      graph.extract_clustering(ids).labels);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_users = 400;
  if (argc > 1) num_users = std::strtoul(argv[1], nullptr, 10);

  const platform::DeviceCatalog catalog;
  const platform::Population population(catalog, num_users, 2468);

  std::printf("Simulating %zu users, Hybrid vector, 2 sessions x 4 "
              "iterations\n\n",
              num_users);

  const DefenseResult baseline = evaluate(population, /*defended=*/false);
  const DefenseResult defended = evaluate(population, /*defended=*/true);

  std::printf("%-28s %18s %18s\n", "", "undefended", "Brave-style farbling");
  std::printf("%-28s %17.1f%% %17.1f%%\n", "cross-session match rate",
              baseline.match_rate * 100.0, defended.match_rate * 100.0);
  std::printf("%-28s %18zu %18zu\n", "distinct clusters (attacker)",
              baseline.diversity.distinct, defended.diversity.distinct);
  std::printf("%-28s %18.3f %18.3f\n", "entropy seen by attacker",
              baseline.diversity.entropy, defended.diversity.entropy);

  std::printf(
      "\nReading: farbling makes every browser *maximally unique within one "
      "session*\n(entropy explodes) while destroying cross-session "
      "linkability (match rate\ncollapses) — the trade-off the paper's "
      "Mitigations discussion describes:\nrandomization defeats tracking at "
      "a compatibility/performance cost.\n");
  return 0;
}
