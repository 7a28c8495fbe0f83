#include "obs/span.h"

namespace wafp::obs {

namespace {

// Thread-local span state. The stack stores the open span names; the path
// string is rebuilt lazily on demand (span close / current_path), keeping
// span open/close allocation-light. The stack is a thread_local value, so
// a worker thread's stack is freed when the thread exits.
thread_local ScopedTraceCapture* t_capture = nullptr;

std::vector<std::string>& stack() {
  thread_local std::vector<std::string> t_stack;
  return t_stack;
}

std::string join_path(const std::vector<std::string>& names) {
  std::string path;
  for (const std::string& name : names) {
    if (!path.empty()) path += '/';
    path += name;
  }
  return path;
}

}  // namespace

ScopedSpan::ScopedSpan(std::string_view name)
    : ScopedSpan(MetricsRegistry::global(), name) {}

ScopedSpan::ScopedSpan(MetricsRegistry& registry, std::string_view name)
    : registry_(registry), start_ns_(registry.now_ns()) {
  stack().emplace_back(name);
}

ScopedSpan::~ScopedSpan() {
  const std::uint64_t end_ns = registry_.now_ns();
  std::vector<std::string>& s = stack();
  const std::string path = join_path(s);
  const std::size_t depth = s.size() - 1;
  s.pop_back();
  registry_
      .histogram("wafp_span_ns", "Trace span duration in nanoseconds",
                 label("span", path))
      .observe(end_ns - start_ns_);
  if (t_capture != nullptr) {
    t_capture->events_.push_back(SpanEvent{path, depth, start_ns_, end_ns});
  }
}

std::size_t ScopedSpan::depth() { return stack().size(); }

std::string ScopedSpan::current_path() { return join_path(stack()); }

ScopedTraceCapture::ScopedTraceCapture() : prev_(t_capture) {
  t_capture = this;
}

ScopedTraceCapture::~ScopedTraceCapture() { t_capture = prev_; }

}  // namespace wafp::obs
