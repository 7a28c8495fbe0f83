// perfbench: the repository's benchmark (see perfbench/README.md).
//
//   perfbench --workload study|track|verify --seed N --seconds S --trace 0|1
//             [--write-expected] [--git-sha SHA] [--source-digest HEX]
//
// Run from the repository root: it reads perfbench/expected/ and writes
// under .bench_build/perfbench-run/.
//
// A run is a series of blocks for --seconds (run_block): each a set-up and
// jobs on it, in a forked child (with --trace 1 the jobs alternate untraced
// and traced). The run then checks every job's outputs against a reference
// computed another way, and prints one JSON object as its last line, with
// the metrics as plain numbers:
//
//   --trace 0  the end-to-end metrics: the minimum over set-ups (setup_s),
//              the minimum over jobs of job_s and of each job's op p50/p99,
//              and the peak RSS of the first block
//   --trace 1  the per-layer metrics from the traced jobs' spans, the work
//              counts, the tracing overhead and the span coverage check
//
// perfbench/run.py adds the units BENCHMARK.json declares and checks the
// names against it. The exit code is 0 whenever a result was printed;
// "correct" carries the outcome of the checks.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "util/flags.h"

namespace {

using namespace perfbench;

constexpr std::size_t kMinBlocks = 3;

std::string json_number(double v) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", v);
  return text;
}

std::string json_map(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + key + "\": " + json_number(value);
  }
  return out + "}";
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string workload_name;
  std::uint64_t trace = 0;
  const std::string expected_dir = "perfbench/expected";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool write_expected = false;
  wafp::util::FlagParser flags(
      "perfbench",
      "The repository's benchmark: one workload for --seconds, end-to-end "
      "(--trace 0) or per-layer (--trace 1) metrics as the last line.");
  flags.flag("--workload", &workload_name, "study, track or verify");
  flags.flag("--seed", &options.seed, "workload seed");
  flags.flag("--seconds", &options.seconds, "how long to measure");
  flags.flag("--trace", &trace, "0: end-to-end metrics, 1: per-layer");
  flags.flag("--write-expected", &write_expected,
             "write the reference to perfbench/expected/");
  flags.flag("--git-sha", &git_sha, "commit, for the stamp");
  flags.flag("--source-digest", &source_digest,
             "digest of the sources, for the stamp");
  if (!flags.parse(argc, argv)) return flags.exit_code();
  std::unique_ptr<Workload> workload;
  if (trace <= 1 && std::isfinite(options.seconds) && options.seconds >= 0.0) {
    if (workload_name == "study") {
      workload = make_study(options);
    } else if (workload_name == "track") {
      workload = make_track(options);
    } else if (workload_name == "verify") {
      workload = make_verify(options);
    }
  }
  if (!workload) {
    std::fprintf(stderr,
                 "perfbench: needs --workload study|track|verify, --trace "
                 "0|1 and --seconds >= 0\n%s",
                 flags.help_text().c_str());
    return 2;
  }
  options.trace = trace == 1;
  std::filesystem::create_directories(options.work_dir);

  // --- Blocks ----------------------------------------------------------------
  // Blocks repeat while another block like the last still fits in --seconds,
  // and at least kMinBlocks run. Traced runs keep the spans of the first
  // block for the trace file and reduce every later block's to samples.
  const std::vector<int> cpus = pick_cpus(workload->threads());
  Tracer tracer;
  std::vector<std::string> problems;
  std::size_t failed = 0;
  std::vector<Block> blocks;
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> setup_s, job_s, traced_job_s;
  const double floor = workload->coverage_floor();
  BlockPlan plan;
  plan.cpus = cpus;
  plan.trace = options.trace;
  plan.min_jobs = options.trace ? 2 : 1;
  const std::int64_t start = now_ns();
  plan.end_ns = start + static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t last_block_ns = 0;
  // Span totals of the layer calls; the harness's own spans ("bench.*")
  // show only in bench.self_s.
  const auto add_totals = [&samples](const SpanSummary& summary) {
    for (const auto& [name, seconds] : summary.total_s) {
      if (name.rfind("bench.", 0) != 0) {
        samples[name + "_s"].push_back(seconds);
      }
    }
  };
  for (std::size_t i = 0;
       i < kMinBlocks || now_ns() + last_block_ns <= plan.end_ns; ++i) {
    const std::int64_t t0 = now_ns();
    const std::size_t kept_spans = tracer.spans().size();
    Block block;
    std::string error;
    const bool ok = run_block(*workload, tracer, plan, block, error);
    last_block_ns = now_ns() - t0;
    if (!ok) {
      problems.push_back("block " + std::to_string(i) + ": " + error);
      ++failed;
      continue;
    }
    failed += block.failed_jobs;
    setup_s.push_back(block.setup_s);
    add_totals(
        summarize(tracer, block.setup_span_begin, block.setup_span_end));
    for (const Job& job : block.jobs) {
      (job.traced ? plan.traced : plan.untraced) += 1;
      (job.traced ? traced_job_s : job_s).push_back(job.job_s);
      if (!job.traced) continue;
      const SpanSummary summary =
          summarize(tracer, job.span_begin, job.span_end);
      add_totals(summary);
      for (const auto& [name, seconds] : summary.self_s) {
        samples[name + ".self_s"].push_back(seconds);
      }
      const double covered =
          summary.root_s > 0.0
              ? 1.0 - summary.self_s.at("bench") / summary.root_s
              : 0.0;
      samples["trace.coverage"].push_back(covered);
      samples["trace.spans"].push_back(
          static_cast<double>(job.span_end - job.span_begin));
      if (covered < floor) {
        problems.push_back("layer spans cover " + json_number(covered) +
                           " of the traced job, below " +
                           json_number(floor));
      }
      for (const auto& [name, value] : job.varying) {
        samples[name].push_back(value);
      }
    }
    std::fprintf(stderr, "block %zu: set-up %.4f s, %zu jobs\n", i,
                 block.setup_s, block.jobs.size());
    if (!blocks.empty()) tracer.truncate(kept_spans);
    blocks.push_back(std::move(block));
  }
  tracer.set_enabled(false);
  std::vector<const Job*> jobs;
  for (const Block& block : blocks) {
    for (const Job& job : block.jobs) jobs.push_back(&job);
  }
  if (jobs.empty()) {
    for (const std::string& p : problems) {
      std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    }
    return 1;
  }

  // --- Checks --------------------------------------------------------------
  std::size_t attempted = 0;
  for (const Block& block : blocks) {
    if (block.setup_counts != blocks.front().setup_counts) {
      problems.push_back("set-up work counts differ between set-ups");
    }
  }
  for (const Job* job : jobs) {
    attempted += job->ops;
    failed += job->failed;
    if (job->counts != jobs.front()->counts) {
      problems.push_back("job work counts differ between jobs");
    }
  }

  const Record reference = workload->reference();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto diff = jobs[i]->record.diff(reference, /*tolerant=*/false);
    failed += diff.size();
    for (const auto& d : diff) {
      problems.push_back("job " + std::to_string(i) + " vs reference: " + d);
    }
  }
  const std::string expected_path = expected_dir + "/" + workload_name +
                                    "-seed" + std::to_string(options.seed) +
                                    ".tsv";
  if (write_expected) {
    std::filesystem::create_directories(expected_dir);
    if (!reference.save(expected_path)) {
      problems.push_back("cannot write " + expected_path);
    }
  } else {
    Record expected;
    if (Record::load(expected_path, expected)) {
      for (const auto& d : reference.diff(expected, /*tolerant=*/true)) {
        problems.push_back("vs " + expected_path + ": " + d);
      }
    }
  }

  // --- Metrics -------------------------------------------------------------
  std::map<std::string, double> metrics;
  if (!options.trace) {
    // Host contention only ever slows a set-up or a job down, so the
    // least-disturbed one of the run is the steadiest estimate of the
    // code's own cost.
    double p50 = jobs.front()->op_p50_ms;
    double p99 = jobs.front()->op_p99_ms;
    for (const Job* job : jobs) {
      p50 = std::min(p50, job->op_p50_ms);
      p99 = std::min(p99, job->op_p99_ms);
    }
    metrics["setup_s"] = *std::min_element(setup_s.begin(), setup_s.end());
    metrics["job_s"] = *std::min_element(job_s.begin(), job_s.end());
    metrics["op_p50_ms"] = p50;
    metrics["op_p99_ms"] = p99;
    metrics["peak_rss_mb"] = blocks.front().peak_rss_mb;
  } else {
    // Span totals, self times and coverage: medians over the traced jobs
    // (set-up spans: over the set-ups).
    for (const auto& [name, values] : samples) metrics[name] = median(values);
    for (const auto& [name, value] : blocks.front().setup_counts) {
      metrics[name] = value;
    }
    for (const auto& [name, value] : jobs.front()->counts) {
      metrics[name] = value;
    }
    metrics["trace.overhead_s"] =
        *std::min_element(traced_job_s.begin(), traced_job_s.end()) -
        *std::min_element(job_s.begin(), job_s.end());
    std::string why;
    if (!workload->split(tracer, metrics, why)) problems.push_back(why);
    const std::string trace_path =
        options.work_dir + "/trace-" + workload_name + ".csv";
    if (!tracer.write_csv(trace_path)) {
      problems.push_back("cannot write " + trace_path);
    }
  }

  for (const std::string& p : problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = problems.empty() && failed == 0;

  std::map<std::string, double> counts = blocks.front().setup_counts;
  counts.insert(jobs.front()->counts.begin(), jobs.front()->counts.end());
  std::printf("stamp %s\n", stamp_json(cpus, git_sha, source_digest).c_str());
  std::printf("counts %s\n", json_map(counts).c_str());
  std::printf(
      "times {\"setup_s\": %s, \"job_s\": %s, \"traced_job_s\": %s}\n",
      json_list(setup_s).c_str(), json_list(job_s).c_str(),
      json_list(traced_job_s).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed,
      json_map(metrics).c_str());
  return 0;
}
