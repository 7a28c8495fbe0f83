#include "harness.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "dsp/simd.h"
#include "testing/compare.h"
#include "util/rng.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// --- Tracer ----------------------------------------------------------------

std::int32_t Tracer::open(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, current_, op});
  current_ = index;
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

void Tracer::append(const std::vector<Span>& spans) {
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "index,name,start_ns,end_ns,parent,op\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu,%s,%" PRId64 ",%" PRId64 ",%" PRId32 ",%" PRIu64
                      "\n",
                 i, s.name, s.start_ns, s.end_ns, s.parent, s.op);
  }
  return std::fclose(out) == 0;
}

SpanSummary summarize(const Tracer& tracer, std::size_t begin,
                      std::size_t end) {
  const auto& spans = tracer.spans();
  SpanSummary summary;
  std::vector<std::int64_t> child_ns(end - begin, 0);
  std::vector<char> in_job(end - begin, 0);
  for (std::size_t i = begin; i < end; ++i) {
    const Tracer::Span& s = spans[i];
    const std::int64_t duration = s.end_ns - s.start_ns;
    summary.total_s[s.name] += static_cast<double>(duration) * 1e-9;
    const bool parent_here = s.parent >= 0 &&
                             static_cast<std::size_t>(s.parent) >= begin;
    if (parent_here) {
      child_ns[static_cast<std::size_t>(s.parent) - begin] += duration;
    }
    const bool is_root = std::string_view(s.name) == "bench.job";
    if (is_root) summary.root_s += static_cast<double>(duration) * 1e-9;
    in_job[i - begin] =
        is_root ||
        (parent_here && in_job[static_cast<std::size_t>(s.parent) - begin]);
  }
  for (std::size_t i = begin; i < end; ++i) {
    if (!in_job[i - begin]) continue;
    const Tracer::Span& s = spans[i];
    const std::string_view name(s.name);
    const std::string layer(name.substr(0, name.find('.')));
    summary.self_s[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i - begin]) *
        1e-9;
  }
  return summary;
}

// --- Record ----------------------------------------------------------------

void Record::exact(std::string key, std::uint64_t value) {
  entries_.push_back(Entry{std::move(key), std::to_string(value),
                           static_cast<double>(value), false});
}

void Record::hex(std::string key, std::uint64_t value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%016" PRIx64, value);
  entries_.push_back(
      Entry{std::move(key), text, static_cast<double>(value), false});
}

void Record::metric(std::string key, double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  entries_.push_back(Entry{std::move(key), text, value, true});
}

std::vector<std::string> Record::diff(const Record& reference,
                                      bool tolerant) const {
  std::unordered_map<std::string, const Entry*> expected;
  for (const Entry& e : reference.entries_) expected.emplace(e.key, &e);
  std::vector<std::string> out;
  for (const Entry& e : entries_) {
    const auto it = expected.find(e.key);
    if (it == expected.end()) {
      out.push_back(e.key + ": not in the expected record");
      continue;
    }
    const Entry& want = *it->second;
    const bool same = tolerant && e.metric
                          ? wafp::testing::metric_close(e.value, want.value)
                          : e.text == want.text;
    if (!same) out.push_back(e.key + ": " + e.text + " != " + want.text);
    expected.erase(it);
  }
  for (const auto& [key, entry] : expected) {
    out.push_back(key + ": missing (expected " + entry->text + ")");
  }
  return out;
}

std::string Record::to_tsv() const {
  std::string out;
  for (const Entry& e : entries_) {
    out += e.key + '\t' + (e.metric ? "metric" : "exact") + '\t' + e.text +
           '\n';
  }
  return out;
}

bool Record::from_tsv(const std::string& text, Record& out) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Entry e;
    std::string kind;
    if (!std::getline(fields, e.key, '\t') ||
        !std::getline(fields, kind, '\t') || !std::getline(fields, e.text)) {
      return false;
    }
    e.metric = kind == "metric";
    e.value = std::strtod(e.text.c_str(), nullptr);
    out.entries_.push_back(std::move(e));
  }
  return true;
}

bool Record::save(const std::string& path) const {
  std::ofstream out(path);
  out << to_tsv();
  return static_cast<bool>(out);
}

bool Record::load(const std::string& path, Record& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  return from_tsv(text.str(), out);
}

// --- Forked jobs and blocks ------------------------------------------------

namespace {

// A child writes its result into a pipe; both sides are the same binary, so
// plain bytes (span names included: they point at string literals, which a
// fork leaves at the same addresses) round-trip exactly.
template <typename T>
void put(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void put_vector(std::string& out, const std::vector<T>& values) {
  put(out, values.size());
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size() * sizeof(T));
}

void put_string(std::string& out, const std::string& text) {
  put(out, text.size());
  out += text;
}

void put_counts(std::string& out, const Counts& counts) {
  put(out, counts.size());
  for (const auto& [name, value] : counts) {
    put_string(out, name);
    put(out, value);
  }
}

void put_job(std::string& out, const Job& job) {
  put(out, job.job_s);
  put(out, job.ops);
  put(out, job.op_p50_ms);
  put(out, job.op_p99_ms);
  put(out, job.failed);
  put(out, job.traced);
  put(out, job.span_begin);
  put(out, job.span_end);
  put_counts(out, job.counts);
  put_counts(out, job.varying);
  put_string(out, job.record.to_tsv());
}

class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}

  template <typename T>
  bool get(T& value) {
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  template <typename T>
  bool get_vector(std::vector<T>& values) {
    std::size_t n = 0;
    if (!get(n) || (data_.size() - pos_) / sizeof(T) < n) return false;
    values.resize(n);
    std::memcpy(values.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return true;
  }

  bool get_string(std::string& text) {
    std::size_t n = 0;
    if (!get(n) || data_.size() - pos_ < n) return false;
    text.assign(data_, pos_, n);
    pos_ += n;
    return true;
  }

  bool get_counts(Counts& counts) {
    std::size_t n = 0;
    if (!get(n)) return false;
    for (std::size_t i = 0; i < n; ++i) {
      std::string name;
      double value = 0.0;
      if (!get_string(name) || !get(value)) return false;
      counts[name] = value;
    }
    return true;
  }

  bool get_job(Job& job) {
    std::string record;
    return get(job.job_s) && get(job.ops) && get(job.op_p50_ms) &&
           get(job.op_p99_ms) && get(job.failed) && get(job.traced) &&
           get(job.span_begin) && get(job.span_end) && get_counts(job.counts) &&
           get_counts(job.varying) && get_string(record) &&
           Record::from_tsv(record, job.record);
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  std::size_t pos_ = 0;
};

void put_new_spans(std::string& out, const Tracer& tracer,
                   std::size_t begin) {
  put_vector(out, std::vector<Tracer::Span>(
                      tracer.spans().begin() +
                          static_cast<std::ptrdiff_t>(begin),
                      tracer.spans().end()));
}

}  // namespace

bool run_in_child(const std::function<void(std::string&)>& body,
                  std::string& data, std::string& error) {
  int fds[2];
  if (::pipe(fds) != 0) {
    error = "pipe failed";
    return false;
  }
  std::fflush(nullptr);  // nothing buffered may be written twice
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    error = "fork failed";
    return false;
  }
  if (pid == 0) {
    // A child never outlives this process, even when it is killed.
    if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != parent) {
      ::_exit(1);
    }
    ::close(fds[0]);
    std::string out;
    try {
      body(out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      ::_exit(1);
    }
    std::size_t written = 0;
    while (written < out.size()) {
      const ssize_t n =
          ::write(fds[1], out.data() + written, out.size() - written);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) ::_exit(1);
      written += static_cast<std::size_t>(n);
    }
    std::fflush(nullptr);
    ::_exit(0);
  }
  ::close(fds[1]);
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    data.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    error = "child process failed (status " + std::to_string(status) + ")";
    return false;
  }
  return true;
}

bool run_forked(Workload& workload, Tracer& tracer, Job& job,
                std::string& error) {
  const std::size_t begin = tracer.spans().size();
  std::string data;
  const auto child = [&](std::string& out) {
    Job done = workload.run_job(tracer);
    done.ops = done.op_ms.size();
    done.op_p50_ms = percentile(done.op_ms, 0.50);
    done.op_p99_ms = percentile(done.op_ms, 0.99);
    put_job(out, done);
    put_new_spans(out, tracer, begin);
  };
  if (!run_in_child(child, data, error)) return false;
  Reader in(data);
  std::vector<Tracer::Span> spans;
  if (!in.get_job(job) || !in.get_vector(spans) || !in.done()) {
    error = "job process sent a malformed result";
    return false;
  }
  tracer.append(spans);
  return true;
}

bool run_block(Workload& workload, Tracer& tracer, const BlockPlan& plan,
               Block& block, std::string& error) {
  const std::size_t begin = tracer.spans().size();
  std::string data;
  const auto child = [&](std::string& out) {
    if (!plan.cpus.empty() && !pin_cpus(plan.cpus)) ::_exit(1);
    Block b;
    std::size_t traced = plan.traced;
    std::size_t untraced = plan.untraced;
    tracer.set_enabled(plan.trace);
    b.setup_span_begin = tracer.spans().size();
    const std::int64_t t0 = now_ns();
    b.setup_counts = workload.set_up(tracer);
    const std::int64_t t1 = now_ns();
    b.setup_s = seconds_between(t0, t1);
    b.setup_span_end = tracer.spans().size();
    const std::int64_t end = std::min(plan.end_ns, t1 + (t1 - t0));
    for (std::size_t n = 0; n < plan.min_jobs || now_ns() < end; ++n) {
      const bool trace_this = plan.trace && traced < untraced;
      tracer.set_enabled(trace_this);
      (trace_this ? traced : untraced) += 1;
      const std::size_t span_begin = tracer.spans().size();
      Job job;
      std::string job_error;
      if (!run_forked(workload, tracer, job, job_error)) {
        std::fprintf(stderr, "perfbench: %s\n", job_error.c_str());
        ++b.failed_jobs;
        continue;
      }
      job.traced = trace_this;
      job.span_begin = span_begin;
      job.span_end = tracer.spans().size();
      b.jobs.push_back(std::move(job));
    }
    b.peak_rss_mb = peak_rss_mb();
    put(out, b.setup_s);
    put_counts(out, b.setup_counts);
    put(out, b.setup_span_begin);
    put(out, b.setup_span_end);
    put(out, b.peak_rss_mb);
    put(out, b.failed_jobs);
    put(out, b.jobs.size());
    for (const Job& job : b.jobs) put_job(out, job);
    put_new_spans(out, tracer, begin);
  };
  if (!run_in_child(child, data, error)) return false;
  Reader in(data);
  std::size_t jobs = 0;
  bool ok = in.get(block.setup_s) && in.get_counts(block.setup_counts) &&
            in.get(block.setup_span_begin) && in.get(block.setup_span_end) &&
            in.get(block.peak_rss_mb) && in.get(block.failed_jobs) &&
            in.get(jobs);
  for (std::size_t i = 0; ok && i < jobs; ++i) {
    ok = in.get_job(block.jobs.emplace_back());
  }
  std::vector<Tracer::Span> spans;
  if (!ok || !in.get_vector(spans) || !in.done()) {
    error = "block process sent a malformed result";
    return false;
  }
  tracer.append(spans);
  return true;
}

// --- Helpers ---------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

std::uint64_t pick_input_seed(
    std::uint64_t seed,
    const std::function<double(std::uint64_t)>& distance) {
  constexpr std::uint64_t kMaxAttempts = 1000;
  // derive_seed(seed, attempt) alone would give seeds that differ in their
  // low byte the same candidates in another order (FNV mixes one byte at a
  // time), so nearby seeds would pick the same input. Mix the seed first.
  const std::uint64_t base = wafp::util::derive_seed(seed, "perfbench-input");
  std::uint64_t best = 0;
  double best_distance = 0.0;
  for (std::uint64_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const std::uint64_t candidate = wafp::util::derive_seed(base, attempt);
    const double d = distance(candidate);
    if (d <= 1.0) return candidate;
    if (attempt == 0 || d < best_distance) {
      best = candidate;
      best_distance = d;
    }
  }
  return best;
}

double work_distance(std::size_t stacks, std::size_t stacks_target,
                     std::size_t classes, std::size_t classes_target,
                     std::size_t classes_slack) {
  // A gap of `slack` maps to < 1 and a gap of slack + 1 to > 1.
  const auto off = [](std::size_t value, std::size_t target,
                      std::size_t slack) {
    return std::fabs(static_cast<double>(value) -
                     static_cast<double>(target)) /
           (static_cast<double>(slack) + 0.5);
  };
  return std::max(off(stacks, stacks_target, 0),
                  off(classes, classes_target, classes_slack));
}

std::vector<int> pick_cpus(std::size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int i = CPU_SETSIZE - 1; i >= 0 && cpus.size() < n; --i) {
    if (CPU_ISSET(i, &allowed)) cpus.insert(cpus.begin(), i);
  }
  return cpus;
}

bool pin_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const long kib = std::max(self.ru_maxrss, children.ru_maxrss);
  return static_cast<double>(kib) * 1024.0 * 1e-6;  // KiB -> MB
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

std::string vector_slug(wafp::fingerprint::VectorId id) {
  std::string slug(wafp::fingerprint::to_string(id));
  for (char& c : slug) {
    c = c == ' ' || c == '-' ? '_'
                             : static_cast<char>(std::tolower(
                                   static_cast<unsigned char>(c)));
  }
  return slug;
}

std::string stamp_json(const std::vector<int>& cpus,
                       const std::string& git_sha,
                       const std::string& source_digest) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpus\": [";
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    out << (i > 0 ? ", " : "") << cpus[i];
  }
  out << "], \"cpu_model\": \""
      << json_escape(cpu_model()) << "\", \"simd_tier\": \""
      << wafp::dsp::to_string(wafp::dsp::active_simd_backend())
      << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
      << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE)
      << "\", \"git_sha\": \"" << json_escape(git_sha)
      << "\", \"source_digest\": \"" << json_escape(source_digest) << "\"}";
  return out.str();
}

}  // namespace perfbench
