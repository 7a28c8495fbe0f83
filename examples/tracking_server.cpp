// An online fingerprinter, as §3.2 envisions one — now a thin CLI over the
// fault-tolerant collation service in src/service/. Visitors are enrolled
// into the collation graph as their submissions stream through the full
// validate -> queue -> WAL -> graph pipeline; returning visitors are
// re-identified from a handful of fresh iterations, including the dynamic
// cluster merges of the paper's Fig. 4.
//
//   ./build/examples/tracking_server [num_visitors]
//       [--state-dir DIR]     persist WAL + snapshots (and recover on start)
//       [--shards N]          collation engine shard count (default 1)
//       [--snapshot-every N]  checkpoint cadence in applied submissions
//       [--fsync-wal]         fdatasync every WAL append (durable mode)
//       [--drop-every N] [--dup-every N]  deterministic fault injection
//       [--render-workers N]  serve renders through a RenderService worker
//                             pool (continuous cross-visitor batching)
//       [--metrics-every N]   dump the Prometheus-style metrics text every
//                             N enrolled visitors (and once at the end)
//       [--help]              generated usage (util::FlagParser)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "fingerprint/collector.h"
#include "obs/metrics.h"
#include "platform/catalog.h"
#include "platform/population.h"
#include "serve/render_service.h"
#include "service/collation_service.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace wafp;

  std::size_t num_visitors = 400;
  std::size_t metrics_every = 0;
  std::size_t render_workers = 0;
  std::size_t shards = 1;
  service::ServiceConfig config;
  util::FlagParser flags("tracking_server",
                         "Online fingerprint collation demo (paper §3.2): "
                         "enrol visitors through the collation service, then "
                         "re-identify them from fresh iterations.");
  flags.positional("num_visitors", &num_visitors, "visitors to enrol",
                   /*min=*/1);
  flags.flag("--state-dir", &config.state_dir,
             "persist WAL + snapshots here and recover on start");
  flags.flag("--shards", &shards,
             "collation engine shard count (0 is read as 1)");
  flags.flag("--snapshot-every", &config.snapshot_every,
             "checkpoint cadence in applied submissions");
  flags.flag("--fsync-wal", &config.fsync_wal,
             "fdatasync every WAL append (durable mode)");
  flags.flag("--drop-every", &config.faults.drop_every,
             "drop every Nth accepted submission (fault injection)");
  flags.flag("--dup-every", &config.faults.duplicate_every,
             "duplicate every Nth accepted submission (fault injection)");
  flags.flag("--render-workers", &render_workers,
             "serve renders through a RenderService pool of this size");
  flags.flag("--metrics-every", &metrics_every,
             "dump metrics text every N enrolled visitors");
  if (!flags.parse(argc, argv)) return flags.exit_code();

  const fingerprint::VectorId vector = fingerprint::VectorId::kAm;
  constexpr std::uint32_t kEnrolIterations = 2;
  constexpr std::uint32_t kReturnIterations = 3;

  const platform::DeviceCatalog catalog;
  const platform::Population population(catalog, num_visitors, 99);
  fingerprint::RenderCache cache;
  fingerprint::FingerprintCollector collector({&cache});

  // With --render-workers, renders route through the continuous-batching
  // RenderService over the collector's shared cache: a class the cache
  // already holds is served at submit, and concurrent visitors missing on
  // the same (stack, vector, jitter) class coalesce onto one render.
  // Chaotic glitch draws are one-off digests with no render class,
  // so those fall back to the collector's direct path.
  std::optional<serve::RenderService> render_service;
  if (render_workers > 0) {
    serve::RenderServiceConfig serve_config;
    serve_config.workers = render_workers;
    render_service.emplace(cache, serve_config);
  }
  const auto fingerprint_of = [&](const platform::StudyUser& user,
                                  std::uint32_t iteration) -> util::Digest {
    if (!render_service.has_value()) {
      return collector.collect(user, vector, iteration);
    }
    const fingerprint::AudioFingerprintVector& vec =
        fingerprint::audio_vector(vector);
    const webaudio::RenderJitter jitter =
        collector.draw_jitter(user, vec, iteration);
    if (jitter.chaos_seed != 0) {
      return collector.collect(user, vector, iteration);
    }
    return render_service->render(vec, user.profile, jitter.state);
  };

  std::unique_ptr<service::CollationService> engine;
  try {
    engine = service::make_engine(config, shards);
  } catch (const std::runtime_error& e) {
    // A state dir this engine must not open (ShardLayoutError) or cannot
    // trust (SnapshotCorruptError).
    std::fprintf(stderr, "tracking_server: %s\n", e.what());
    return 1;
  }
  service::CollationService& svc = *engine;
  if (svc.shard_count() > 1) {
    std::printf("Sharded collation engine: %zu shards\n", svc.shard_count());
  }
  {
    const auto s = svc.stats();
    if (s.recovered_from_snapshot + s.recovered_from_wal > 0) {
      std::printf("Recovered state: %llu submissions from snapshot, %llu "
                  "replayed from WAL (checksum %016llx)\n\n",
                  static_cast<unsigned long long>(s.recovered_from_snapshot),
                  static_cast<unsigned long long>(s.recovered_from_wal),
                  static_cast<unsigned long long>(svc.component_checksum()));
    }
  }

  // --- Phase 1: first visits enrol everyone through the service. ---------
  std::size_t new_clusters = 0;
  std::size_t joined_existing = 0;
  std::size_t bridged_clusters = 0;
  // Resume above any recovered per-user clocks so a re-run against the same
  // state_dir does not trip the timestamp-regression validator.
  std::uint64_t clock = svc.max_observed_timestamp();
  std::size_t enrolled = 0;
  for (const platform::StudyUser& user : population.users()) {
    const std::size_t before = svc.cluster_count();
    for (std::uint32_t it = 0; it < kEnrolIterations; ++it) {
      service::RawSubmission raw;
      raw.user = user.id;
      raw.vector = static_cast<std::uint32_t>(vector);
      raw.timestamp = ++clock;
      raw.efp_hex = fingerprint_of(user, it).hex();
      auto result = svc.submit(raw);
      while (result.reason == service::Reject::kQueueFull) {
        svc.pump();
        result = svc.submit(raw);
      }
      if (!result.accepted()) {
        std::printf("  rejected submission for user %u: %s\n", user.id,
                    std::string(service::to_string(result.reason)).c_str());
      }
    }
    svc.pump();  // apply this visitor's submissions before inspecting
    const std::size_t after = svc.cluster_count();
    if (after > before) {
      ++new_clusters;  // a previously unseen fingerprint family
    } else if (after == before) {
      ++joined_existing;  // collided with one existing cluster
    } else {
      // The paper's Fig. 4 U5 case: the visitor's fingerprints connected
      // clusters that were previously considered distinct.
      ++bridged_clusters;
    }
    ++enrolled;
    if (metrics_every > 0 && enrolled % metrics_every == 0) {
      std::printf("--- metrics after %zu visitors ---\n%s\n", enrolled,
                  obs::MetricsRegistry::global().render_text().c_str());
    }
  }

  const auto stats = svc.stats();
  std::printf("Enrolled %zu visitors (%u iterations each) -> %zu collated "
              "clusters, %zu elementary fingerprints\n",
              num_visitors, kEnrolIterations, svc.cluster_count(),
              svc.fingerprint_count());
  std::printf("  opened a new cluster : %zu visitors\n", new_clusters);
  std::printf("  joined an existing   : %zu visitors\n", joined_existing);
  std::printf("  bridged clusters     : %zu visitors (dynamic merge, "
              "Fig. 4)\n",
              bridged_clusters);
  std::printf("  service: %llu submitted, %llu accepted, %llu applied, "
              "%llu WAL appends, %llu snapshots, %llu dropped by faults\n\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.applied),
              static_cast<unsigned long long>(stats.wal_appends),
              static_cast<unsigned long long>(stats.snapshots_written),
              static_cast<unsigned long long>(stats.dropped_by_fault));

  // --- Phase 2: everyone returns; re-identify from fresh iterations. -----
  std::size_t identified = 0;
  std::size_t misses = 0;
  std::vector<util::Digest> probe;
  for (const platform::StudyUser& user : population.users()) {
    probe.clear();
    for (std::uint32_t it = kEnrolIterations;
         it < kEnrolIterations + kReturnIterations; ++it) {
      probe.push_back(fingerprint_of(user, it));
    }
    const auto matched = svc.match(probe);
    const auto expected = svc.user_component(user.id);
    if (matched.has_value() && expected.has_value() && *matched == *expected) {
      ++identified;
    } else {
      ++misses;
    }
  }

  std::printf("Returning visitors re-identified: %zu / %zu (%.2f%%)\n",
              identified, num_visitors,
              100.0 * static_cast<double>(identified) /
                  static_cast<double>(num_visitors));
  std::printf("Misses (fresh fingerprints never seen in enrolment): %zu\n",
              misses);
  std::printf("\nCluster sizes (largest 10):\n");
  std::vector<std::size_t> sizes = svc.cluster_user_counts();
  std::sort(sizes.rbegin(), sizes.rend());
  for (std::size_t i = 0; i < sizes.size() && i < 10; ++i) {
    std::printf("  #%zu: %zu users\n", i + 1, sizes[i]);
  }
  if (render_service.has_value()) {
    render_service->stop();
    const serve::ServeStats serve_stats = render_service->stats();
    std::printf("\nRender service (%zu workers): %llu requests, %llu "
                "served inline as cache hits, the rest over %llu classes "
                "(coalesce ratio %.2f), %llu batches, %llu rejected by "
                "backpressure\n",
                render_service->worker_count(),
                static_cast<unsigned long long>(serve_stats.requests),
                static_cast<unsigned long long>(serve_stats.cache_hits),
                static_cast<unsigned long long>(serve_stats.classes),
                serve_stats.coalesce_ratio(),
                static_cast<unsigned long long>(serve_stats.batches),
                static_cast<unsigned long long>(
                    serve_stats.rejected_queue_full));
  }
  if (!config.state_dir.empty()) {
    svc.drain_and_checkpoint();
    std::printf("\nState checkpointed to %s (component checksum %016llx)\n",
                config.state_dir.c_str(),
                static_cast<unsigned long long>(svc.component_checksum()));
  }
  if (metrics_every > 0) {
    std::printf("--- final metrics ---\n%s",
                obs::MetricsRegistry::global().render_text().c_str());
  }
  return 0;
}
