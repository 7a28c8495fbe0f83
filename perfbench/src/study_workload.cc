// study: the paper's batch pipeline, serial (threads = 1), as
// bench/parallel_pipeline and the table benches run it.
//
//   set-up  study::Dataset::collect of a 100-user x 30-iteration cohort with a
//           cold render cache (fingerprint -> webaudio -> dsp). Always
//           collected, never loaded from a CSV cache.
//   job     Table 1, Table 2 (7 vectors + combined), Fig 5
//           (cluster_agreement, s = 1..15 x 7 vectors) and Table 6
//           (fingerprint_match_score at 3 sizes x 7 vectors).
//   op      one audio vector's Table 2 row, Fig 5 curve and Table 6 row;
//           Table 1 and the combined Table 2 row (9 per job).
//
// Reference: the same cohort collected and analysed on 4 threads, which the
// repository guarantees to be bit-identical to the serial path. The split
// pass reuses the reference's dataset.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/ami.h"
#include "fingerprint/collector.h"
#include "fingerprint/vector_registry.h"
#include "harness.h"
#include "obs/metrics.h"
#include "platform/catalog.h"
#include "platform/population.h"
#include "study/dataset.h"
#include "study/experiments.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using wafp::fingerprint::VectorId;
using wafp::study::Dataset;

constexpr std::size_t kUsers = 100;
constexpr std::uint32_t kIterations = 30;
constexpr std::size_t kFig5MaxSubsetSize = 15;
constexpr std::size_t kReferenceThreads = 4;
// Depending on the seed, cohorts of kUsers span 18-32 distinct audio stacks
// and 310-450 render classes; the input seed is picked so every run has 23
// stacks and 384 +- 4 classes (see pick_input_seed).
constexpr std::size_t kStacks = 23;
constexpr std::size_t kRenderClasses = 384;
constexpr std::size_t kRenderClassSlack = 4;
// Cohorts inside that window still differ in Fig 5's AMI work (emi_terms
// summed over the job's clusterings: 2.38M-3.45M over seeds 1-8), and
// nothing known before rendering predicted it. The input seed must also
// have work within kEmiSlack of kEmiTerms, which takes a collect per
// candidate; after kMaxVetted collects the closest vetted candidate wins.
constexpr double kEmiTerms = 2.8e6;
constexpr double kEmiSlack = 0.04;
constexpr std::size_t kMaxVetted = 12;

std::span<const VectorId> audio_ids() {
  return wafp::fingerprint::VectorRegistry::instance().audio_ids();
}

std::vector<std::size_t> table6_sizes() {
  return {kIterations / 2, kIterations / 3, 3};
}

/// Order-fixed FNV over every digest of the dataset (audio and static).
std::uint64_t dataset_checksum(const Dataset& ds) {
  std::uint64_t h = wafp::util::fnv1a64("dataset");
  const auto& registry = wafp::fingerprint::VectorRegistry::instance();
  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    for (const VectorId id : registry.audio_ids()) {
      for (const wafp::util::Digest& d : ds.audio_observations(u, id)) {
        h = wafp::util::fnv1a64_mix(h, d.prefix64());
      }
    }
    for (const VectorId id : registry.static_ids()) {
      h = wafp::util::fnv1a64_mix(h, ds.static_observation(u, id).prefix64());
    }
  }
  return h;
}

/// How far a cohort is from the work window: its distinct audio stacks and
/// the render classes Dataset::collect's prewarm will render (every
/// (stack, vector, jitter state) its draws reach, chaotic draws counting as
/// the stable class they derive from).
double cohort_distance(const wafp::study::StudyConfig& config) {
  const wafp::platform::DeviceCatalog catalog(config.tuning);
  const wafp::platform::Population population(catalog, config.num_users,
                                              config.seed);
  std::unordered_set<std::uint64_t> stacks;
  for (const auto& user : population.users()) {
    stacks.insert(wafp::fingerprint::make_render_class_key(
                      wafp::fingerprint::audio_vector(VectorId::kDc),
                      user.profile, 0)
                      .stack_hash);
  }
  if (stacks.size() != kStacks) {
    return work_distance(stacks.size(), kStacks, kRenderClasses,
                         kRenderClasses, kRenderClassSlack);
  }
  wafp::fingerprint::RenderCache unused;
  wafp::fingerprint::FingerprintCollector draws({&unused});
  std::unordered_set<wafp::fingerprint::RenderClassKey,
                     wafp::fingerprint::RenderClassKeyHash>
      classes;
  for (const auto& user : population.users()) {
    for (const VectorId id : audio_ids()) {
      const auto& vector = wafp::fingerprint::audio_vector(id);
      for (std::uint32_t it = 0; it < config.iterations; ++it) {
        const auto jitter = draws.draw_jitter(user, vector, it);
        classes.insert(wafp::fingerprint::make_render_class_key(
            vector, user.profile, jitter.chaos_seed != 0 ? 0 : jitter.state));
      }
    }
  }
  return work_distance(stacks.size(), kStacks, classes.size(),
                       kRenderClasses, kRenderClassSlack);
}

/// Terms in adjusted_mutual_information's expected-MI sum for labelings
/// `a` and `b`: one per feasible cell count of every pair of clusters. The
/// AMI's work grows with it, and it depends on the cohort, not the host.
std::uint64_t emi_terms(std::span<const int> a, std::span<const int> b) {
  const wafp::analysis::ContingencyTable table =
      wafp::analysis::build_contingency(a, b);
  std::uint64_t terms = 0;
  for (const std::size_t ai : table.row_sums) {
    for (const std::size_t bj : table.col_sums) {
      const std::size_t lo =
          std::max<std::size_t>(ai + bj > table.total ? ai + bj - table.total
                                                      : 0,
                                1);
      const std::size_t hi = std::min(ai, bj);
      if (hi >= lo) terms += hi - lo + 1;
    }
  }
  return terms;
}

/// The clusterings cluster_agreement(ds, id, s) compares: one per subset of
/// s consecutive iterations.
std::vector<wafp::collation::Clustering> fig5_clusterings(const Dataset& ds,
                                                          VectorId id,
                                                          std::size_t s) {
  std::vector<std::uint32_t> ids(ds.num_users());
  std::iota(ids.begin(), ids.end(), 0U);
  std::vector<wafp::collation::Clustering> clusterings(ds.iterations() / s);
  for (std::size_t i = 0; i < clusterings.size(); ++i) {
    const auto graph = wafp::study::build_graph(
        ds, id, static_cast<std::uint32_t>(i * s),
        static_cast<std::uint32_t>((i + 1) * s));
    clusterings[i] = graph.extract_clustering(ids);
  }
  return clusterings;
}

/// emi_terms over every pair of `clusterings`, as cluster_agreement pairs
/// them.
std::uint64_t pair_emi_terms(
    const std::vector<wafp::collation::Clustering>& clusterings) {
  std::uint64_t terms = 0;
  for (std::size_t i = 0; i < clusterings.size(); ++i) {
    for (std::size_t j = i + 1; j < clusterings.size(); ++j) {
      terms += emi_terms(clusterings[i].labels, clusterings[j].labels);
    }
  }
  return terms;
}

/// Distance of a cohort's Fig 5 AMI work from kEmiTerms +- kEmiSlack (<= 1
/// inside). It needs the rendered dataset, so it collects the cohort on
/// kReferenceThreads threads in a forked child: the memory and threads
/// never reach the process that forks the blocks.
double fig5_work_distance(const wafp::study::StudyConfig& config) {
  std::string data;
  std::string error;
  const bool ok = run_in_child(
      [&config](std::string& out) {
        wafp::study::StudyConfig threaded = config;
        threaded.threads = kReferenceThreads;
        wafp::util::ThreadPool::set_shared_threads(kReferenceThreads);
        const Dataset ds = Dataset::collect(threaded);
        std::uint64_t terms = 0;
        for (const VectorId id : audio_ids()) {
          for (std::size_t s = 1; s <= kFig5MaxSubsetSize; ++s) {
            if (ds.iterations() / s < 2) continue;
            terms += pair_emi_terms(fig5_clusterings(ds, id, s));
          }
        }
        out = std::to_string(terms);
      },
      data, error);
  if (!ok) {
    std::fprintf(stderr, "perfbench: vetting a study cohort: %s\n",
                 error.c_str());
    return 1e9;
  }
  const double terms = std::strtod(data.c_str(), nullptr);
  return std::fabs(terms / kEmiTerms - 1.0) / kEmiSlack;
}

/// Runs the job's analyses on `ds`, recording their outputs. One op is one
/// audio vector's share of the study — its Table 2 row, Fig 5 curve
/// (s = 1..15) and Table 6 row (three sizes) — plus Table 1 and the
/// combined Table 2 row as one op each: 9 ops. Single calls range from
/// 0.1 ms to 200 ms and small ones swing with cache state, so their
/// percentiles are not steady; per-vector ops put p50 on the median vector
/// and p99 on the slowest.
void run_analyses(const Dataset& ds, Tracer& tracer, Job& job) {
  std::uint64_t op = 0;
  const auto timed_op = [&](auto&& body) {
    const std::int64_t t0 = now_ns();
    {
      Scope scope(tracer, "bench.op", ++op);
      body();
    }
    job.op_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  };
  Record& r = job.record;
  const auto diversity = [&](const std::string& key,
                             const wafp::analysis::DiversityStats& d) {
    r.exact(key + ".distinct", d.distinct);
    r.exact(key + ".unique", d.unique);
    r.metric(key + ".entropy", d.entropy);
    r.metric(key + ".normalized", d.normalized);
  };

  std::vector<wafp::study::StabilityRow> table1;
  timed_op([&] {
    Scope scope(tracer, "study.table1", op);
    table1 = wafp::study::table1_stability(ds);
  });
  for (const auto& row : table1) {
    const std::string key = "table1." + vector_slug(row.id);
    r.exact(key + ".min", row.min);
    r.exact(key + ".max", row.max);
    r.metric(key + ".mean", row.mean);
  }

  const std::vector<std::size_t> sizes = table6_sizes();
  for (const VectorId id : audio_ids()) {
    wafp::analysis::DiversityStats table2;
    std::vector<wafp::study::AgreementPoint> curve(kFig5MaxSubsetSize);
    std::vector<double> table6(sizes.size());
    timed_op([&] {
      {
        Scope scope(tracer, "study.table2", op);
        table2 = wafp::study::vector_diversity(ds, id);
      }
      for (std::size_t s = 1; s <= kFig5MaxSubsetSize; ++s) {
        Scope scope(tracer, "study.fig5", op);
        curve[s - 1] = wafp::study::cluster_agreement(ds, id, s);
      }
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        Scope scope(tracer, "study.table6", op);
        table6[i] = wafp::study::fingerprint_match_score(ds, id, sizes[i]);
      }
    });
    const std::string slug = vector_slug(id);
    diversity("table2." + slug, table2);
    for (std::size_t s = 1; s <= kFig5MaxSubsetSize; ++s) {
      const std::string key = "fig5." + slug + ".s" + std::to_string(s);
      r.metric(key + ".mean_ami", curve[s - 1].mean_ami);
      r.metric(key + ".min_ami", curve[s - 1].min_ami);
    }
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      r.metric("table6." + slug + ".s" + std::to_string(sizes[i]), table6[i]);
    }
  }

  wafp::analysis::DiversityStats combined;
  timed_op([&] {
    Scope scope(tracer, "study.table2", op);
    combined = wafp::study::combined_audio_diversity(ds);
  });
  diversity("table2.combined", combined);
}

class StudyWorkload final : public Workload {
 public:
  explicit StudyWorkload(const Options& options) {
    config_.num_users = kUsers;
    config_.iterations = kIterations;
    config_.threads = 1;
    // Serial analyses; a degree-1 pool also starts no thread to fork past.
    wafp::util::ThreadPool::set_shared_threads(1);
    // Misses of the cheap window read 10 + d, so a vetted candidate always
    // beats them.
    std::size_t vetted = 0;
    config_.seed =
        pick_input_seed(options.seed, [&](std::uint64_t candidate) {
          wafp::study::StudyConfig config = config_;
          config.seed = candidate;
          const double distance = cohort_distance(config);
          if (distance > 1.0 || vetted == kMaxVetted) return 10.0 + distance;
          ++vetted;
          return fig5_work_distance(config);
        });
  }

  Counts set_up(Tracer& tracer) override {
    wafp::obs::Counter& misses =
        wafp::obs::MetricsRegistry::global().counter(
            "wafp_cache_misses_total");
    const std::uint64_t misses_before = misses.value();
    {
      Scope setup(tracer, "bench.setup");
      Scope collect(tracer, "study.collect");
      ds_ = std::make_unique<Dataset>(Dataset::collect(config_));
    }
    return {{"fingerprint.renders",
             static_cast<double>(misses.value() - misses_before)}};
  }

  Job run_job(Tracer& tracer) override {
    Job job;
    const std::int64_t start = now_ns();
    {
      Scope root(tracer, "bench.job");
      run_analyses(*ds_, tracer, job);
    }
    job.job_s = seconds_between(start, now_ns());
    job.record.hex("dataset_checksum", dataset_checksum(*ds_));
    return job;
  }

  /// Fig 5 split, on the reference's dataset (the checks compare its
  /// checksum with every job's): the graph builds + clusterings and the AMI
  /// calls that cluster_agreement makes, timed separately over the same
  /// subsets. The mean and min AMIs must be bit-identical to
  /// cluster_agreement's.
  bool split(Tracer& tracer, std::map<std::string, double>& out,
             std::string& why) override {
    const Dataset& ds = *ds_;
    double build_s = 0.0;
    double ami_s = 0.0;
    std::uint64_t ami_calls = 0;
    std::uint64_t emi = 0;
    Scope root(tracer, "bench.split");
    for (const VectorId id : audio_ids()) {
      for (std::size_t s = 1; s <= kFig5MaxSubsetSize; ++s) {
        const wafp::study::AgreementPoint job =
            wafp::study::cluster_agreement(ds, id, s);
        const std::size_t subsets = ds.iterations() / s;
        if (subsets < 2) continue;  // cluster_agreement's closed form
        std::vector<wafp::collation::Clustering> clusterings;
        const std::int64_t t0 = now_ns();
        {
          Scope scope(tracer, "collation.graph_build");
          clusterings = fig5_clusterings(ds, id, s);
        }
        build_s += seconds_between(t0, now_ns());
        double total = 0.0;
        double min_ami = 1.0;
        for (std::size_t i = 0; i < subsets; ++i) {
          for (std::size_t j = i + 1; j < subsets; ++j) {
            const std::int64_t t0 = now_ns();
            double ami = 0.0;
            {
              Scope scope(tracer, "analysis.ami");
              ami = wafp::analysis::adjusted_mutual_information(
                  clusterings[i].labels, clusterings[j].labels);
            }
            ami_s += seconds_between(t0, now_ns());
            ++ami_calls;
            total += ami;
            min_ami = std::min(min_ami, ami);
          }
        }
        emi += pair_emi_terms(clusterings);
        const std::size_t pairs = subsets * (subsets - 1) / 2;
        const double mean = total / static_cast<double>(pairs);
        if (mean != job.mean_ami || min_ami != job.min_ami) {
          char text[160];
          std::snprintf(text, sizeof(text),
                        "fig5 split %s s=%zu: mean %.17g min %.17g, "
                        "cluster_agreement %.17g %.17g",
                        vector_slug(id).c_str(), s, mean, min_ami,
                        job.mean_ami, job.min_ami);
          why = text;
          return false;
        }
      }
    }
    out["collation.graph_build_s"] = build_s;
    out["analysis.ami_s"] = ami_s;
    out["analysis.ami_calls"] = static_cast<double>(ami_calls);
    out["analysis.emi_terms"] = static_cast<double>(emi);
    return true;
  }

  Record reference() override {
    wafp::study::StudyConfig config = config_;
    config.threads = kReferenceThreads;
    wafp::util::ThreadPool::set_shared_threads(kReferenceThreads);
    ds_ = std::make_unique<Dataset>(Dataset::collect(config));
    Tracer off;
    Job job;
    run_analyses(*ds_, off, job);
    wafp::util::ThreadPool::set_shared_threads(1);
    job.record.hex("dataset_checksum", dataset_checksum(*ds_));
    return job.record;
  }

  /// The job is calls into study alone, so its spans cover all of it but
  /// the harness's per-call timing.
  [[nodiscard]] double coverage_floor() const override { return 0.98; }

 private:
  wafp::study::StudyConfig config_;
  std::unique_ptr<Dataset> ds_;
};

}  // namespace

std::unique_ptr<Workload> make_study(const Options& options) {
  return std::make_unique<StudyWorkload>(options);
}

}  // namespace perfbench
