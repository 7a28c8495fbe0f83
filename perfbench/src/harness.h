// perfbench harness: the pieces every workload shares.
//
//   * Tracer   — spans recorded from outside the library, around each call
//                into a layer (name, start, end, parent, op id). Kept in
//                memory and written once when the run ends.
//   * Job      — one run of a workload's fixed job on its set-up input.
//   * Block    — one set-up and the jobs run on it, in a forked child. A
//                run is a series of blocks.
//   * Record   — the outputs a job produced, as key/value lines, compared
//                against a reference computed another way outside the
//                timed jobs (and against a committed expected record when
//                one exists for the seed).
//   * Workload — what study / track / verify implement.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fingerprint/vector.h"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t start_ns,
                                            std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// --- Tracing ---------------------------------------------------------------

/// Span names are "<layer>.<call>" string literals; the layer is the src/
/// module the call enters, or "bench" for the harness's own code (the job
/// root, one span per op, and the glue between layer calls).
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // index into spans(), -1 = root
    std::uint64_t op = 0;      // op id; 0 = not inside an op
  };

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; returns -1 when disabled.
  std::int32_t open(const char* name, std::uint64_t op);
  void close(std::int32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Appends spans recorded by a forked copy of this tracer (their parent
  /// indices already count from this tracer's size at the fork).
  void append(const std::vector<Span>& spans);
  /// Drops every span from index `size` on.
  void truncate(std::size_t size) { spans_.resize(size); }

  /// Writes every span as CSV (index,name,start_ns,end_ns,parent,op).
  bool write_csv(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; free when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t op = 0)
      : tracer_(tracer), index_(tracer.open(name, op)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

/// Per-layer view of the spans in [begin, end) (one traced job or set-up).
struct SpanSummary {
  std::map<std::string, double> total_s;  // span name -> summed duration
  std::map<std::string, double> self_s;   // layer -> summed self time
  double root_s = 0.0;                    // the "bench.job" root span
};
[[nodiscard]] SpanSummary summarize(const Tracer& tracer, std::size_t begin,
                                    std::size_t end);

// --- Correctness records ---------------------------------------------------

/// One output value. Exact entries (counts, checksums, digests) must match
/// bit for bit; metric entries (AMI, entropy, rates) match a committed
/// expected record within the repository's kMetricRelTolerance, and match
/// the in-run reference exactly.
struct Entry {
  std::string key;
  std::string text;  // exact rendering (%.17g for doubles)
  double value = 0.0;
  bool metric = false;
};

class Record {
 public:
  void exact(std::string key, std::uint64_t value);
  void hex(std::string key, std::uint64_t value);
  void metric(std::string key, double value);

  /// Entries of *this that differ from `reference` (or are missing from
  /// it); `tolerant` applies kMetricRelTolerance to metric entries.
  [[nodiscard]] std::vector<std::string> diff(const Record& reference,
                                              bool tolerant) const;

  /// One "key<TAB>exact|metric<TAB>text" line per entry.
  [[nodiscard]] std::string to_tsv() const;
  [[nodiscard]] static bool from_tsv(const std::string& text, Record& out);

  bool save(const std::string& path) const;
  [[nodiscard]] static bool load(const std::string& path, Record& out);

 private:
  std::vector<Entry> entries_;
};

// --- Set-ups, jobs and workloads -------------------------------------------

/// Exact work counts (must repeat across set-ups, jobs and runs of one
/// seed) and timing-dependent ones (batches, backpressure retries:
/// reported, never compared).
using Counts = std::map<std::string, double>;

struct Job {
  double job_s = 0.0;
  /// One latency per op, filled by run_job; run_forked sends back only
  /// their count and percentiles.
  std::vector<double> op_ms;
  std::size_t ops = 0;
  double op_p50_ms = 0.0;
  double op_p99_ms = 0.0;
  std::size_t failed = 0;  // ops that failed (rejects, missing digests)
  bool traced = false;
  std::size_t span_begin = 0;  // this job's spans in the tracer
  std::size_t span_end = 0;
  Counts counts;
  Counts varying;
  Record record;
};

class Workload;

/// Runs body(out) in a forked child of this process and returns in `data`
/// what the child wrote to `out`. False, with `error`, if the child failed.
/// The jobs and blocks below run this way; a workload uses it for work
/// whose memory must not stay in the process that forks the blocks.
[[nodiscard]] bool run_in_child(const std::function<void(std::string&)>& body,
                                std::string& data, std::string& error);

/// Runs workload.run_job in a forked child and returns what it produced,
/// spans included. Every job thus starts from the same post-set-up heap:
/// run in one process, each job's freed engine and the results kept from
/// earlier jobs fragment the heap for the next, and verify jobs slowed from
/// 0.42 s to 0.56 s over one run. Returns false, with `error`, if the child
/// failed.
[[nodiscard]] bool run_forked(Workload& workload, Tracer& tracer, Job& job,
                              std::string& error);

/// One set-up and the jobs run on it.
struct Block {
  double setup_s = 0.0;
  Counts setup_counts;
  std::size_t setup_span_begin = 0;  // the set-up's spans in the tracer
  std::size_t setup_span_end = 0;
  /// Peak resident set of the block: the set-up's and its jobs' (a forked
  /// job starts from the block's resident set at the fork).
  double peak_rss_mb = 0.0;
  std::size_t failed_jobs = 0;  // job processes that died
  std::vector<Job> jobs;
};

/// What a block does, once it runs in its own process.
struct BlockPlan {
  std::vector<int> cpus;    // pinned before the set-up (see pick_cpus)
  std::int64_t end_ns = 0;  // no job starts after this
  std::size_t min_jobs = 1;
  bool trace = false;       // alternate untraced and traced jobs
  std::size_t traced = 0;   // jobs of each kind the run has made so far
  std::size_t untraced = 0;
};

/// Runs one block in a forked child of this process, so every set-up
/// starts from the same heap: the set-up, then jobs (each forked again, see
/// run_forked) until the block has run for twice its set-up time, at least
/// plan.min_jobs and none started after plan.end_ns. Appends the block's
/// spans to `tracer`. Returns false, with `error`, if the child failed.
[[nodiscard]] bool run_block(Workload& workload, Tracer& tracer,
                             const BlockPlan& plan, Block& block,
                             std::string& error);

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space inside the checkout (state dirs, the trace file).
  std::string work_dir = ".bench_build/perfbench-run";
};

/// A run sets a workload up several times and runs its job several times
/// on each set-up, each set-up in its own forked process (run_block).
/// set_up() builds the job's shared, read-only input; run_job() builds the
/// job's own mutable state (engines, services) inside its timed region and
/// leaves the input untouched, so every job on one set-up does identical
/// work. reference() and split() run in the process that started the
/// blocks, which never set up.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Returns the set-up's exact work counts.
  virtual Counts set_up(Tracer& tracer) = 0;

  /// Runs the fixed job once; fills everything but the span range and the
  /// traced flag. Called in a forked child (run_forked): changes it makes
  /// to the workload do not reach the parent.
  virtual Job run_job(Tracer& tracer) = 0;

  /// Traced runs only, after reference(): extra attribution passes that
  /// split a library call into its parts, with their own checks. Adds
  /// per-layer metrics to `out`; returns false (with `why`) if a check
  /// fails.
  virtual bool split(Tracer& tracer, std::map<std::string, double>& out,
                     std::string& why) {
    (void)tracer;
    (void)out;
    (void)why;
    return true;
  }

  /// The expected record, computed another way than the timed jobs.
  virtual Record reference() = 0;

  /// Fraction of the traced job the layer spans must cover.
  [[nodiscard]] virtual double coverage_floor() const = 0;

  /// Threads the set-up and job run on at once; the run pins them to as
  /// many CPUs.
  [[nodiscard]] virtual std::size_t threads() const { return 1; }
};

[[nodiscard]] std::unique_ptr<Workload> make_study(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_track(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_verify(const Options& options);

// --- Helpers ---------------------------------------------------------------

/// The input seed a workload generates its data from. Candidates are
/// util::derive_seed(seed, 0), (seed, 1), ...; the first whose input lies
/// within the workload's size window (distance(candidate) <= 1) wins, else
/// the closest of the first 1000. Every --seed thus yields the same amount
/// of work, drawn from the same distribution, so runs on different seeds
/// are comparable; the same --seed always yields the same input.
[[nodiscard]] std::uint64_t pick_input_seed(
    std::uint64_t seed,
    const std::function<double(std::uint64_t)>& distance);

/// Distance of a cohort with `stacks` distinct audio stacks and `classes`
/// render classes from the window {exactly stacks_target stacks,
/// classes_target +- classes_slack classes}; <= 1 inside it.
[[nodiscard]] double work_distance(std::size_t stacks,
                                   std::size_t stacks_target,
                                   std::size_t classes,
                                   std::size_t classes_target,
                                   std::size_t classes_slack);

/// The `n` highest-numbered CPUs this process may run on (fewer if it may
/// run on fewer). A block pins itself to them, so its threads always run on
/// the same CPUs: left to migrate, the hand-off wake-ups of track's render
/// workers made its jobs vary from 2.2 s to 6.3 s between runs.
[[nodiscard]] std::vector<int> pick_cpus(std::size_t n);
/// Pins the calling process to `cpus`; false if the affinity was not set.
bool pin_cpus(const std::vector<int>& cpus);

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile (q in (0, 1]) of unsorted values.
[[nodiscard]] double percentile(std::vector<double> values, double q);
/// Peak resident set of this process and of its waited-for children.
[[nodiscard]] double peak_rss_mb();

/// "Custom Signal" -> "custom_signal": vector names as metric/record keys.
[[nodiscard]] std::string vector_slug(wafp::fingerprint::VectorId id);

/// Host and build stamp, as one JSON object: nproc, the pinned CPUs, CPU
/// model, dispatched SIMD tier, compiler, build type, git SHA and a digest
/// of the sources (run.py passes the last two).
[[nodiscard]] std::string stamp_json(const std::vector<int>& cpus,
                                     const std::string& git_sha,
                                     const std::string& source_digest);

}  // namespace perfbench
