// track: the online tracking service with warm renders and durable writes,
// as examples/tracking_server --render-workers 2 --state-dir D runs it.
//
//   set-up  visitors mapped onto a small pool of sampled device profiles
//           (many users, few render classes); every render class the visit
//           stream will ask for prewarmed through fingerprint::BatchRenderer;
//           serve::RenderService (2 workers) and the single-loop durable
//           engine service::make_engine(cfg, 0) on a fresh state dir.
//   job     one op = one visit. Its 7 audio digests come through
//           RenderService::submit/wait (chaotic draws through
//           FingerprintCollector::collect). Most visits enrol: 7 submits and
//           a pump (validate -> queue -> WAL append -> apply, snapshots on
//           the configured cadence). Every 4th visit after the first round
//           is a returning-visitor probe (match + user_component). The job
//           ends with drain_and_checkpoint, crash, and recovery from the
//           state dir.
//
// Reference: the same visit stream replayed with direct
// FingerprintCollector::collect calls on a fresh render cache into a plain
// collation::FingerprintGraph (no serve, no service).
#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "collation/fingerprint_graph.h"
#include "fingerprint/batch_renderer.h"
#include "fingerprint/collector.h"
#include "fingerprint/vector_registry.h"
#include "harness.h"
#include "platform/catalog.h"
#include "platform/population.h"
#include "serve/render_service.h"
#include "service/sharded_collation_service.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using wafp::fingerprint::VectorId;
using wafp::platform::StudyUser;

constexpr std::size_t kProfilePool = 30;
constexpr std::size_t kVisitors = 5000;
constexpr std::uint32_t kRounds = 8;
constexpr std::size_t kRenderWorkers = 2;
constexpr std::size_t kProbeEvery = 4;
constexpr std::size_t kVectors = 7;
// 30,000 enrolling visits submit 210,000 records; a snapshot every 8,192
// lands on ~0.06% of visits, well clear of the 1% that p99 reads.
constexpr std::size_t kSnapshotEvery = 8192;
// Depending on the seed, the pool spans 8-19 distinct audio stacks and the
// visit stream 245-445 render classes; the input seed is picked so every
// run has 12 stacks and prewarms 352 +- 8 classes (see pick_input_seed).
constexpr std::size_t kStacks = 12;
constexpr std::size_t kRenderClasses = 352;
constexpr std::size_t kRenderClassSlack = 8;

struct Visit {
  std::uint32_t visitor = 0;
  std::uint32_t iteration = 0;
  bool probe = false;
};

struct Cohort {
  std::vector<StudyUser> visitors;
  std::vector<Visit> visits;
};

/// Visitors draw their device from a pool of sampled profiles; each keeps
/// its own draw seed, so jitter differs per visitor while render classes
/// stay few. Round r visits every visitor once, in a seeded order.
Cohort make_cohort(std::uint64_t seed) {
  const wafp::platform::DeviceCatalog catalog;
  const wafp::platform::Population pool(catalog, kProfilePool, seed);
  Cohort c;
  wafp::util::Rng rng(wafp::util::derive_seed(seed, "perfbench-track"));
  c.visitors.reserve(kVisitors);
  for (std::uint32_t v = 0; v < kVisitors; ++v) {
    StudyUser user;
    user.id = v;
    user.profile = pool.user(rng.next_below(kProfilePool)).profile;
    user.seed = wafp::util::derive_seed(seed, v);
    c.visitors.push_back(std::move(user));
  }
  std::vector<std::uint32_t> order(kVisitors);
  for (std::uint32_t v = 0; v < kVisitors; ++v) order[v] = v;
  for (std::uint32_t r = 0; r < kRounds; ++r) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (const std::uint32_t v : order) {
      const bool probe =
          r > 0 && c.visits.size() % kProbeEvery == kProbeEvery - 1;
      c.visits.push_back(Visit{v, r, probe});
    }
  }
  return c;
}

std::span<const VectorId> audio_ids() {
  return wafp::fingerprint::VectorRegistry::instance().audio_ids();
}

/// Calls fn(vector, profile, jitter state) for every render request the
/// cohort's visits make (chaotic draws request the stable class they
/// derive from), in visit order.
template <typename Fn>
void for_each_request(const Cohort& cohort, Fn&& fn) {
  wafp::fingerprint::RenderCache unused;
  wafp::fingerprint::FingerprintCollector draws({&unused});
  for (const Visit& visit : cohort.visits) {
    const StudyUser& user = cohort.visitors[visit.visitor];
    for (const VectorId id : audio_ids()) {
      const auto& vector = wafp::fingerprint::audio_vector(id);
      const auto jitter = draws.draw_jitter(user, vector, visit.iteration);
      fn(vector, user.profile, jitter.chaos_seed != 0 ? 0 : jitter.state);
    }
  }
}

/// How far the cohort of `seed` is from the work window: the pool's distinct
/// audio stacks, then the render classes its visit stream requests.
double cohort_distance(std::uint64_t seed) {
  const wafp::platform::DeviceCatalog catalog;
  const wafp::platform::Population pool(catalog, kProfilePool, seed);
  std::unordered_set<std::uint64_t> stacks;
  for (const StudyUser& user : pool.users()) {
    stacks.insert(wafp::fingerprint::make_render_class_key(
                      wafp::fingerprint::audio_vector(VectorId::kDc),
                      user.profile, 0)
                      .stack_hash);
  }
  std::unordered_set<wafp::fingerprint::RenderClassKey,
                     wafp::fingerprint::RenderClassKeyHash>
      classes;
  if (stacks.size() == kStacks) {
    for_each_request(make_cohort(seed), [&](const auto& vector,
                                            const auto& profile, auto state) {
      classes.insert(
          wafp::fingerprint::make_render_class_key(vector, profile, state));
    });
  }
  return work_distance(stacks.size(), kStacks, classes.size(),
                       kRenderClasses, kRenderClassSlack);
}

class TrackWorkload final : public Workload {
 public:
  explicit TrackWorkload(const Options& options)
      : seed_(pick_input_seed(options.seed, cohort_distance)),
        state_dir_(options.work_dir + "/track-state") {}

  Counts set_up(Tracer& tracer) override {
    Scope setup(tracer, "bench.setup");
    cohort_ = make_cohort(seed_);
    cache_ = std::make_unique<wafp::fingerprint::RenderCache>();
    {
      Scope scope(tracer, "fingerprint.prewarm");
      wafp::fingerprint::BatchRenderer batch(*cache_);
      for_each_request(cohort_, [&](const auto& vector, const auto& profile,
                                    auto state) {
        batch.request(vector, profile, state);
      });
      batch.render_all(1);
    }
    return {{"fingerprint.renders", static_cast<double>(cache_->misses())}};
  }

  Job run_job(Tracer& tracer) override {
    Job job;
    std::filesystem::remove_all(state_dir_);
    wafp::service::ServiceConfig config;
    config.state_dir = state_dir_;
    config.snapshot_every = kSnapshotEvery;
    wafp::serve::RenderServiceConfig serve_config;
    serve_config.workers = kRenderWorkers;
    const std::size_t misses_before = cache_->misses();

    wafp::fingerprint::FingerprintCollector collector({cache_.get()});
    std::unique_ptr<wafp::service::CollationEngine> engine;
    std::optional<wafp::serve::RenderService> renders;
    std::uint64_t clock = 0;
    std::uint64_t probes = 0;
    std::uint64_t identified = 0;
    std::uint64_t rejected = 0;
    std::uint64_t serve_retries = 0;
    std::uint64_t service_retries = 0;
    std::uint64_t checksum = 0;
    wafp::service::ServiceStats written;
    std::array<wafp::util::Digest, kVectors> digests;
    std::array<wafp::serve::RenderService::Ticket, kVectors> tickets;
    std::array<std::uint32_t, kVectors> states{};
    std::array<bool, kVectors> chaotic{};

    const std::int64_t job_start = now_ns();
    {
      Scope root(tracer, "bench.job");
      {
        Scope scope(tracer, "service.open");
        engine = wafp::service::make_engine(config, 0);
      }
      {
        Scope scope(tracer, "serve.start");
        renders.emplace(*cache_, serve_config);
      }
      for (std::size_t k = 0; k < cohort_.visits.size(); ++k) {
        const Visit& visit = cohort_.visits[k];
        const StudyUser& user = cohort_.visitors[visit.visitor];
        const std::uint64_t op = k + 1;
        const std::int64_t t0 = now_ns();
        bool visit_failed = false;
        {
          Scope visit_span(tracer, "bench.visit", op);
          {
            Scope scope(tracer, "fingerprint.collect", op);
            for (std::size_t v = 0; v < kVectors; ++v) {
              const VectorId id = audio_ids()[v];
              const auto jitter = collector.draw_jitter(
                  user, wafp::fingerprint::audio_vector(id),
                  visit.iteration);
              chaotic[v] = jitter.chaos_seed != 0;
              states[v] = jitter.state;
              if (chaotic[v]) {
                digests[v] = collector.collect(user, id, visit.iteration);
              }
            }
          }
          {
            Scope scope(tracer, "serve.render", op);
            for (std::size_t v = 0; v < kVectors; ++v) {
              if (chaotic[v]) continue;
              const auto& vector =
                  wafp::fingerprint::audio_vector(audio_ids()[v]);
              while (renders->submit(vector, user.profile, states[v],
                                     tickets[v]) ==
                     wafp::serve::Admit::kQueueFull) {
                ++serve_retries;
                std::this_thread::yield();
              }
            }
            Scope wait(tracer, "serve.wait", op);
            for (std::size_t v = 0; v < kVectors; ++v) {
              if (!chaotic[v]) digests[v] = renders->wait(tickets[v]);
            }
          }
          if (!visit.probe) {
            {
              Scope scope(tracer, "service.submit", op);
              for (std::size_t v = 0; v < kVectors; ++v) {
                wafp::service::RawSubmission raw;
                raw.user = user.id;
                raw.vector = static_cast<std::uint32_t>(audio_ids()[v]);
                raw.timestamp = ++clock;
                raw.efp_hex = digests[v].hex();
                auto result = engine->submit(raw);
                while (result.reason == wafp::service::Reject::kQueueFull) {
                  ++service_retries;
                  engine->pump();
                  result = engine->submit(raw);
                }
                if (!result.accepted()) {
                  ++rejected;
                  visit_failed = true;
                }
              }
            }
            Scope scope(tracer, "service.pump", op);
            engine->pump();
          } else {
            std::optional<std::size_t> matched;
            std::optional<std::size_t> own;
            {
              Scope scope(tracer, "service.match", op);
              matched = engine->match(digests);
              own = engine->user_component(user.id);
            }
            ++probes;
            if (matched.has_value() && own.has_value() && *matched == *own) {
              ++identified;
            }
          }
        }
        job.op_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
        if (visit_failed) ++job.failed;
      }
      {
        Scope scope(tracer, "service.checkpoint");
        engine->drain_and_checkpoint();
        checksum = engine->component_checksum();
        written = engine->stats();
      }
      Scope scope(tracer, "service.recover");
      engine->crash();
      engine.reset();
      engine = wafp::service::make_engine(config, 0);
    }
    job.job_s = seconds_between(job_start, now_ns());

    // Teardown, outside the timed job.
    renders->stop();
    const wafp::serve::ServeStats serve = renders->stats();
    const wafp::service::ServiceStats recovered = engine->stats();
    const std::uint64_t job_misses = cache_->misses() - misses_before;

    Counts& c = job.counts;
    c["fingerprint.job_misses"] = static_cast<double>(job_misses);
    c["serve.requests"] = static_cast<double>(serve.requests);
    c["serve.coalesced"] = static_cast<double>(serve.coalesced);
    job.varying["serve.batches"] = static_cast<double>(serve.batches);
    job.varying["serve.queue_full_retries"] =
        static_cast<double>(serve_retries);
    job.varying["service.queue_full_retries"] =
        static_cast<double>(service_retries);
    c["service.accepted"] = static_cast<double>(written.accepted);
    c["service.rejected"] = static_cast<double>(rejected);
    c["service.wal_appends"] = static_cast<double>(written.wal_appends);
    c["service.snapshots"] = static_cast<double>(written.snapshots_written);
    c["service.probes"] = static_cast<double>(probes);
    c["service.identified"] = static_cast<double>(identified);
    c["service.recovered"] = static_cast<double>(
        recovered.recovered_from_snapshot + recovered.recovered_from_wal);
    c["collation.users"] = static_cast<double>(engine->user_count());
    c["collation.fingerprints"] =
        static_cast<double>(engine->fingerprint_count());
    c["collation.clusters"] = static_cast<double>(engine->cluster_count());

    Record& r = job.record;
    r.exact("probes", probes);
    r.exact("identified", identified);
    r.exact("validator_rejects", rejected);
    r.exact("job_cache_misses", job_misses);
    r.hex("component_checksum", checksum);
    r.hex("recovered_checksum", engine->component_checksum());
    return job;
  }

  /// Cold-render split: every render class of the reference's cohort,
  /// rendered on a fresh cache in BatchRenderer's archetype-major order, each
  /// RenderCache::get timed on its own and summed per vector. webaudio and
  /// dsp run only inside these calls. The class count must equal the
  /// prewarm's render count.
  bool split(Tracer& tracer, std::map<std::string, double>& out,
             std::string& why) override {
    struct Class {
      wafp::fingerprint::RenderClassKey key;
      const wafp::fingerprint::AudioFingerprintVector* vector;
      const wafp::platform::PlatformProfile* profile;
    };
    std::unordered_set<wafp::fingerprint::RenderClassKey,
                       wafp::fingerprint::RenderClassKeyHash>
        seen;
    std::vector<Class> classes;
    for_each_request(cohort_, [&](const auto& vector, const auto& profile,
                                  auto state) {
      auto key = wafp::fingerprint::make_render_class_key(vector, profile,
                                                          state);
      if (seen.insert(key).second) {
        classes.push_back(Class{std::move(key), &vector, &profile});
      }
    });
    wafp::fingerprint::RenderCache cache;
    std::sort(classes.begin(), classes.end(),
              [](const Class& a, const Class& b) {
                if (a.key.stack_hash != b.key.stack_hash) {
                  return a.key.stack_hash < b.key.stack_hash;
                }
                if (a.key.vector != b.key.vector) {
                  return a.key.vector < b.key.vector;
                }
                return a.key.jitter < b.key.jitter;
              });
    std::map<VectorId, double> per_vector;
    Scope root(tracer, "bench.split");
    for (const Class& c : classes) {
      const std::int64_t t0 = now_ns();
      {
        Scope scope(tracer, "fingerprint.cold_render");
        (void)cache.get(*c.vector, *c.profile, c.key.jitter);
      }
      per_vector[c.vector->id()] += seconds_between(t0, now_ns());
    }
    for (const VectorId id : audio_ids()) {
      out["fingerprint.cold_render_s." + vector_slug(id)] = per_vector[id];
    }
    if (static_cast<double>(cache.misses()) != out["fingerprint.renders"]) {
      why = "cold-render split rendered " + std::to_string(cache.misses()) +
            " classes, the prewarm " +
            std::to_string(out["fingerprint.renders"]);
      return false;
    }
    return true;
  }

  /// The job is visits made of layer calls; the harness adds only its
  /// per-visit bookkeeping.
  [[nodiscard]] double coverage_floor() const override { return 0.95; }

  /// The caller and the render workers.
  [[nodiscard]] std::size_t threads() const override {
    return 1 + kRenderWorkers;
  }

  Record reference() override {
    cohort_ = make_cohort(seed_);
    wafp::fingerprint::RenderCache cache;
    wafp::fingerprint::FingerprintCollector collector({&cache});
    wafp::collation::FingerprintGraph graph;
    std::uint64_t probes = 0;
    std::uint64_t identified = 0;
    std::array<wafp::util::Digest, kVectors> digests;
    for (const Visit& visit : cohort_.visits) {
      const StudyUser& user = cohort_.visitors[visit.visitor];
      for (std::size_t v = 0; v < kVectors; ++v) {
        digests[v] = collector.collect(user, audio_ids()[v], visit.iteration);
      }
      if (!visit.probe) {
        for (const auto& d : digests) graph.add_observation(user.id, d);
        continue;
      }
      const auto matched = graph.match(digests);
      const auto own = graph.user_component(user.id);
      ++probes;
      if (matched.has_value() && own.has_value() && *matched == *own) {
        ++identified;
      }
    }
    Record r;
    r.exact("probes", probes);
    r.exact("identified", identified);
    r.exact("validator_rejects", 0);
    r.exact("job_cache_misses", 0);
    r.hex("component_checksum", graph.component_checksum());
    r.hex("recovered_checksum", graph.component_checksum());
    return r;
  }

 private:
  std::uint64_t seed_;
  std::string state_dir_;
  Cohort cohort_;
  std::unique_ptr<wafp::fingerprint::RenderCache> cache_;
};

}  // namespace

std::unique_ptr<Workload> make_track(const Options& options) {
  return std::make_unique<TrackWorkload>(options);
}

}  // namespace perfbench
