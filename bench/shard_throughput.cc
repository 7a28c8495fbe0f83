// Sharded collation-engine benchmark: a million-user synthetic submission
// trace through the CollationService router (validate -> route ->
// per-shard queue/WAL/graph), emitting machine-readable BENCH_shard.json
// with ingest throughput and the p99 ingest->apply latency drawn from the
// wafp_service_ingest_apply_ns histogram.
//
// Two phases, and the binary exits 1 if either parity gate fails:
//   1. parity sweep  — one trace replayed at 1, 2 and 8 shards; every
//      component_checksum must agree (sharding is an implementation
//      detail, not an observable).
//   2. main ingest   — >=1M distinct simulated users at --shards shards,
//      cross-checked against a one-shard run of the same trace
//      (single_submissions_per_sec).
//
//   ./build/bench/shard_throughput [--smoke] [--out FILE] [--shards N]
//                                  [--submissions N] [--users N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "obs/metrics.h"
#include "service/collation_service.h"
#include "util/flags.h"
#include "util/hash.h"

namespace {

using namespace wafp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Synthetic trace over `users` visitors drawn from `platforms` fingerprint
/// families (so components actually merge across users and, with several
/// shards, across shard boundaries), `n` submissions round-robin.
std::vector<service::RawSubmission> make_trace(std::size_t n,
                                               std::size_t users,
                                               std::size_t platforms) {
  std::vector<std::string> family_hex(platforms);
  for (std::size_t p = 0; p < platforms; ++p) {
    family_hex[p] = util::sha256("platform-" + std::to_string(p)).hex();
  }
  std::vector<service::RawSubmission> trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    service::RawSubmission raw;
    raw.user = static_cast<std::uint32_t>(i % users);
    raw.vector = static_cast<std::uint32_t>(fingerprint::VectorId::kAm);
    raw.timestamp = i;
    // Mostly the user's platform family; some per-user noise digests so
    // a user's fingerprints land on more than one shard (migrations).
    if (i % 5 == 0) {
      raw.efp_hex =
          util::sha256("noise-" + std::to_string(raw.user) + "-" +
                       std::to_string(i / users))
              .hex();
    } else {
      raw.efp_hex = family_hex[raw.user % platforms];
    }
    trace.push_back(std::move(raw));
  }
  return trace;
}

struct RunResult {
  double seconds = 0.0;
  std::uint64_t applied = 0;
  std::uint64_t checksum = 0;
  double p99_ingest_apply_ns = 0.0;
  std::uint64_t migration_records = 0;
  std::uint64_t cross_shard_users = 0;
};

/// Replay `trace` through a fresh in-memory engine with `shards` shards
/// (0 is read as 1). Runs against `registry` when given (so the emitted
/// metrics block reflects that run), otherwise a private registry — either
/// way the p99 covers exactly this run.
RunResult ingest(const std::vector<service::RawSubmission>& trace,
                 std::size_t shards,
                 obs::MetricsRegistry* registry = nullptr) {
  obs::MetricsRegistry own;
  obs::MetricsRegistry& metrics = registry != nullptr ? *registry : own;
  service::ServiceConfig config;
  config.metrics = &metrics;
  const auto svc = service::make_engine(config, shards);
  const auto start = Clock::now();
  std::size_t since_pump = 0;
  for (const auto& raw : trace) {
    auto result = svc->submit(raw);
    while (result.reason == service::Reject::kQueueFull) {
      svc->pump();
      result = svc->submit(raw);
    }
    // Drain steadily instead of letting the whole trace sit queued until
    // the end: keeps memory bounded and makes the ingest->apply p99 a
    // statement about steady-state latency, not about trace length.
    if (++since_pump == 1024) {
      svc->pump();
      since_pump = 0;
    }
  }
  svc->drain_and_checkpoint();
  RunResult r;
  r.seconds = seconds_since(start);
  r.applied = svc->stats().applied;
  r.checksum = svc->component_checksum();
  r.p99_ingest_apply_ns =
      metrics.histogram("wafp_service_ingest_apply_ns").snapshot().p99();
  const service::ShardedStats stats = svc->sharded_stats();
  r.migration_records = stats.migration_records;
  r.cross_shard_users = stats.cross_shard_users;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_shard.json";
  std::size_t shards = 8;
  std::size_t submissions = 3000000;
  std::size_t users = 1000000;
  wafp::util::FlagParser flags(
      "shard_throughput",
      "Sharded collation-engine ingest benchmark (BENCH_shard.json).");
  flags.flag("--smoke", &smoke, "tiny CI-sized run");
  flags.flag("--out", &out_path, "output JSON path");
  flags.flag("--shards", &shards, "shard count for the main ingest run");
  flags.flag("--submissions", &submissions, "main-run trace length");
  flags.flag("--users", &users, "distinct simulated users in the main run");
  if (!flags.parse(argc, argv)) return flags.exit_code();
  if (smoke) {
    submissions = std::min<std::size_t>(submissions, 20000);
    users = std::min<std::size_t>(users, 5000);
  }

  // 1) Parity sweep: the same modest trace at 2 and 8 shards, checked
  //    against one shard. A checksum divergence here means a routing or
  //    merge bug, which no throughput number can excuse.
  const std::size_t parity_n = smoke ? 5000 : 60000;
  const std::size_t parity_users = smoke ? 500 : 6000;
  const auto parity_trace =
      make_trace(parity_n, parity_users, parity_users / 8 + 1);
  const RunResult single = ingest(parity_trace, /*shards=*/1);
  std::printf("parity 1 shard : checksum %016llx (reference)\n",
              static_cast<unsigned long long>(single.checksum));
  bool parity = true;
  for (const std::size_t count : {std::size_t{2}, std::size_t{8}}) {
    const RunResult sharded = ingest(parity_trace, count);
    const bool ok = sharded.checksum == single.checksum;
    parity = parity && ok;
    std::printf("parity %zu shards: checksum %016llx (%s)\n", count,
                static_cast<unsigned long long>(sharded.checksum),
                ok ? "ok" : "MISMATCH");
  }

  // 2) Main ingest: >=1M distinct users through the sharded router — run
  //    on the global registry so the emitted metrics block carries the
  //    wafp_shard_* families — with a one-shard run of the identical trace
  //    as the second witness.
  const auto trace = make_trace(submissions, users, users / 8 + 1);
  const RunResult main_run =
      ingest(trace, shards, &obs::MetricsRegistry::global());
  const double per_sec = static_cast<double>(submissions) / main_run.seconds;
  std::printf("sharded   : %zu submissions, %zu users, %zu shards in %.3fs "
              "(%.0f/s, p99 ingest->apply %.0f ns)\n",
              submissions, users, shards, main_run.seconds, per_sec,
              main_run.p99_ingest_apply_ns);
  std::printf("migrations: %llu records, %llu cross-shard users\n",
              static_cast<unsigned long long>(main_run.migration_records),
              static_cast<unsigned long long>(main_run.cross_shard_users));
  const RunResult baseline = ingest(trace, /*shards=*/1);
  std::printf("one shard : %.3fs (%.0f/s)\n", baseline.seconds,
              static_cast<double>(submissions) / baseline.seconds);
  const bool main_parity = main_run.checksum == baseline.checksum;
  parity = parity && main_parity;
  std::printf("main parity: %s\n", main_parity ? "ok" : "MISMATCH");

  bench::BenchJson json("shard_throughput");
  json.boolean("smoke", smoke);
  json.integer("shards", shards);
  json.integer("submissions", submissions);
  json.integer("users", users);
  json.fixed("sharded_submissions_per_sec", per_sec, 1);
  json.fixed("single_submissions_per_sec",
             static_cast<double>(submissions) / baseline.seconds, 1);
  json.fixed("p99_ingest_apply_ns", main_run.p99_ingest_apply_ns, 1);
  json.integer("migration_records", main_run.migration_records);
  json.integer("cross_shard_users", main_run.cross_shard_users);
  json.hex("component_checksum", main_run.checksum);
  json.boolean("parity_ok", parity);
  json.write(out_path);
  return parity ? 0 : 1;
}
