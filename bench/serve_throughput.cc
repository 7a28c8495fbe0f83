// Render-service throughput benchmark: a duplicate-heavy request stream
// (a catalog population shares audio stacks, so many visitors ask for the
// same render class) through the continuous-batching RenderService,
// emitting machine-readable BENCH_serve.json so successive PRs can track
// requests/sec and the cross-request coalesce ratio.
//
// Three claims are measured, not asserted:
//   coalesce   — admit the whole stream before starting workers, so every
//                duplicate class deterministically joins one in-flight
//                task; ratio = requests / distinct classes.
//   steady     — re-serve the identical stream against warm caches and
//                prove it builds nothing (FFT twiddles, scratch, periodic
//                waves, task slabs, cache entries all flat) and that every
//                request is a cache hit served at submit, with no class
//                queued and no worker batch run.
//   parity     — sampled requests must match a direct RenderCache::get
//                bit for bit.
//
//   ./build/bench/serve_throughput [--smoke] [--out FILE]
//                                  [--users N] [--workers N]
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "dsp/fft.h"
#include "fingerprint/vector.h"
#include "fingerprint/vector_registry.h"
#include "platform/catalog.h"
#include "platform/population.h"
#include "serve/render_service.h"
#include "util/flags.h"
#include "webaudio/periodic_wave.h"

namespace {

using namespace wafp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One request in the synthetic stream. Vectors and profiles outlive the
/// bench run (vectors are process singletons; profiles live in the
/// population), so raw pointers are safe here.
struct RequestSpec {
  const fingerprint::AudioFingerprintVector* vector;
  const platform::PlatformProfile* profile;
  std::uint32_t jitter;
};

/// Every (visitor, audio vector, jitter 0/1) triple. The catalog's
/// archetype pool is much smaller than the population, so the stream is
/// naturally duplicate-heavy — exactly the serving workload the coalescer
/// exists for.
std::vector<RequestSpec> make_stream(const platform::Population& population) {
  const auto ids = fingerprint::VectorRegistry::instance().audio_ids();
  std::vector<RequestSpec> stream;
  stream.reserve(population.users().size() * ids.size() * 2);
  for (const platform::StudyUser& user : population.users()) {
    for (const fingerprint::VectorId id : ids) {
      for (const std::uint32_t jitter : {0u, 1u}) {
        stream.push_back(
            {&fingerprint::audio_vector(id), &user.profile, jitter});
      }
    }
  }
  return stream;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  std::size_t users = 256;
  std::size_t workers = 0;  // 0 = RenderService's default (hardware) degree
  wafp::util::FlagParser flags(
      "serve_throughput",
      "Render-service coalescing benchmark (BENCH_serve.json).");
  flags.flag("--smoke", &smoke, "tiny CI-sized run");
  flags.flag("--out", &out_path, "output JSON path");
  flags.flag("--users", &users, "simulated users in the request stream");
  flags.flag("--workers", &workers, "render workers (0 = hardware degree)");
  if (!flags.parse(argc, argv)) return flags.exit_code();
  if (smoke) users = std::min<std::size_t>(users, 48);

  const platform::DeviceCatalog catalog;
  const platform::Population population(catalog, users, 99);
  const std::vector<RequestSpec> stream = make_stream(population);

  fingerprint::RenderCache cache;
  serve::RenderServiceConfig config;
  config.workers = workers;
  // Admission happens before the workers start (for a deterministic
  // coalesce measurement), so the queue must hold every distinct class of
  // the stream at once.
  config.queue_capacity = stream.size();
  config.start_workers = false;
  serve::RenderService service(cache, config);

  // --- Phase 1: admit everything, then render the coalesced batch. -------
  std::vector<serve::RenderService::Ticket> tickets(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const RequestSpec& r = stream[i];
    if (service.submit(*r.vector, *r.profile, r.jitter, tickets[i]) !=
        serve::Admit::kAccepted) {
      std::fprintf(stderr, "request %zu rejected despite a full-size queue\n",
                   i);
      return 1;
    }
  }
  const serve::ServeStats admitted = service.stats();
  const double coalesce_ratio = admitted.coalesce_ratio();

  const auto cold_start = Clock::now();
  service.start();
  for (auto& ticket : tickets) (void)service.wait(ticket);
  const double cold_seconds = seconds_since(cold_start);
  const double requests_per_sec =
      static_cast<double>(stream.size()) / cold_seconds;
  std::printf("cold   : %zu requests over %llu classes in %.3fs (%.0f/s, "
              "coalesce ratio %.2f)\n",
              stream.size(),
              static_cast<unsigned long long>(admitted.classes), cold_seconds,
              requests_per_sec, coalesce_ratio);

  // --- Phase 2: steady state — the same stream against warm caches. ------
  const dsp::FftCounters fft_before = dsp::fft_counters();
  const std::uint64_t waves_before = webaudio::periodic_wave_builds();
  const std::uint64_t slabs_before = service.slab_builds();
  const std::size_t misses_before = cache.misses();
  const serve::ServeStats steady_before = service.stats();

  const auto steady_start = Clock::now();
  for (const RequestSpec& r : stream) {
    (void)service.render(*r.vector, *r.profile, r.jitter);
  }
  const double steady_seconds = seconds_since(steady_start);
  const double steady_requests_per_sec =
      static_cast<double>(stream.size()) / steady_seconds;
  const serve::ServeStats steady_after = service.stats();
  const std::size_t steady_cache_hits =
      steady_after.cache_hits - steady_before.cache_hits;
  const bool served_inline = steady_cache_hits == stream.size() &&
                             steady_after.classes == steady_before.classes &&
                             steady_after.batches == steady_before.batches;

  const dsp::FftCounters fft_after = dsp::fft_counters();
  const bool build_free =
      fft_after.twiddle_builds == fft_before.twiddle_builds &&
      fft_after.scratch_growths == fft_before.scratch_growths &&
      webaudio::periodic_wave_builds() == waves_before &&
      service.slab_builds() == slabs_before && cache.misses() == misses_before;
  std::printf("steady : %zu requests in %.3fs (%.0f/s, build-free: %s)\n",
              stream.size(), steady_seconds, steady_requests_per_sec,
              build_free ? "yes" : "NO");
  std::printf("         %zu served inline as cache hits: %s\n",
              steady_cache_hits, served_inline ? "yes" : "NO");

  // --- Phase 3: sampled parity against direct renders. --------------------
  fingerprint::RenderCache direct_cache;
  bool parity = true;
  for (std::size_t i = 0; i < stream.size(); i += 17) {
    const RequestSpec& r = stream[i];
    if (service.render(*r.vector, *r.profile, r.jitter) !=
        direct_cache.get(*r.vector, *r.profile, r.jitter)) {
      parity = false;
      std::fprintf(stderr, "parity MISMATCH at request %zu (%s jitter %u)\n",
                   i, std::string(r.vector->name()).c_str(), r.jitter);
    }
  }
  service.stop();
  std::printf("parity : sampled served digests vs direct renders: %s\n",
              parity ? "ok" : "MISMATCH");

  bench::BenchJson json("serve_throughput");
  json.boolean("smoke", smoke);
  json.integer("requests", stream.size());
  json.integer("classes", admitted.classes);
  json.integer("workers", service.worker_count());
  json.fixed("coalesce_ratio", coalesce_ratio, 3);
  json.fixed("requests_per_sec", requests_per_sec, 1);
  json.fixed("steady_requests_per_sec", steady_requests_per_sec, 1);
  json.integer("steady_cache_hits", steady_cache_hits);
  json.boolean("build_free_steady_state", build_free);
  json.boolean("parity_ok", parity);
  json.write(out_path);
  return (parity && build_free && served_inline) ? 0 : 1;
}
