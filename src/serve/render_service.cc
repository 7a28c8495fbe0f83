#include "serve/render_service.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"

namespace wafp::serve {
namespace {

// Count-style histogram bounds (batch sizes, joins per class): powers of
// two up to far beyond max_batch, so p95 stays meaningful at either end.
constexpr std::uint64_t kCountBounds[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};

}  // namespace

RenderService::RenderService(fingerprint::RenderCache& cache,
                             RenderServiceConfig config)
    : cache_(cache),
      config_(config),
      worker_count_(config.workers != 0 ? config.workers
                                        : util::default_thread_count()),
      metrics_(config.metrics ? *config.metrics
                              : obs::MetricsRegistry::global()),
      queue_depth_gauge_(metrics_.gauge(
          "wafp_serve_queue_depth",
          "Render classes admitted and waiting for a worker")),
      batch_size_hist_(metrics_.histogram(
          "wafp_serve_batch_size", "Classes per worker batch", {},
          kCountBounds)),
      coalesced_per_class_hist_(metrics_.histogram(
          "wafp_serve_coalesced_per_class",
          "Requests absorbed by one in-flight class at its completion", {},
          kCountBounds)),
      request_ns_hist_(metrics_.histogram(
          "wafp_serve_request_ns",
          "Class admission to render completion (ns)")),
      requests_counter_(metrics_.counter("wafp_serve_requests_total",
                                         "Render requests accepted")),
      cache_hits_counter_(metrics_.counter(
          "wafp_serve_cache_hits_total",
          "Accepted requests served at submit from an already rendered "
          "cache entry")),
      coalesced_counter_(metrics_.counter(
          "wafp_serve_coalesced_total",
          "Accepted requests that joined an in-flight class")),
      classes_counter_(metrics_.counter(
          "wafp_serve_classes_total",
          "Render classes admitted to the work queue")),
      completed_counter_(metrics_.counter("wafp_serve_completed_total",
                                          "Render classes completed")),
      batches_counter_(metrics_.counter("wafp_serve_batches_total",
                                        "Worker batches executed")),
      rejected_counter_(metrics_.counter(
          "wafp_serve_rejected_queue_full_total",
          "Submissions rejected with kQueueFull backpressure")) {
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (config_.start_workers) start();
}

RenderService::~RenderService() { stop(); }

bool RenderService::admit_hit(const fingerprint::RenderClassKey& key,
                              Ticket& ticket) {
  const util::Digest* digest = cache_.find(key);
  if (digest == nullptr) return false;
  {
    util::MutexLock lock(mu_);
    ++stats_.requests;
    ++stats_.cache_hits;
  }
  requests_counter_.inc();
  cache_hits_counter_.inc();
  ticket = Ticket(digest);
  return true;
}

Admit RenderService::submit_locked(
    const fingerprint::RenderClassKey& key,
    const fingerprint::AudioFingerprintVector& vector,
    const platform::PlatformProfile& profile, Ticket& ticket) {
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    // Continuous batching's core move: this request adds zero work. It
    // rides the already-admitted task, whether that task is still queued
    // or already rendering on a worker.
    Task* task = it->second;
    ++task->waiters;
    ++task->joins;
    ++stats_.requests;
    ++stats_.coalesced;
    requests_counter_.inc();
    coalesced_counter_.inc();
    ticket = Ticket(task);
    return Admit::kAccepted;
  }
  if (queue_.size() >= config_.queue_capacity) {
    ++stats_.rejected_queue_full;
    rejected_counter_.inc();
    return Admit::kQueueFull;
  }
  Task* task = pool_.acquire();
  task->key = key;
  task->vector = &vector;
  task->profile = &profile;
  task->admitted_ns = metrics_.now_ns();
  task->waiters = 1;
  task->joins = 1;
  inflight_.emplace(key, task);
  queue_.push_back(task);
  queue_depth_gauge_.set(static_cast<std::int64_t>(queue_.size()));
  ++stats_.requests;
  ++stats_.classes;
  requests_counter_.inc();
  classes_counter_.inc();
  ticket = Ticket(task);
  work_cv_.notify_one();
  return Admit::kAccepted;
}

Admit RenderService::submit(const fingerprint::AudioFingerprintVector& vector,
                            const platform::PlatformProfile& profile,
                            std::uint32_t jitter_state, Ticket& ticket) {
  const fingerprint::RenderClassKey key =
      fingerprint::make_render_class_key(vector, profile, jitter_state);
  if (admit_hit(key, ticket)) return Admit::kAccepted;
  util::MutexLock lock(mu_);
  return submit_locked(key, vector, profile, ticket);
}

const util::Digest& RenderService::wait(Ticket& ticket) {
  WAFP_CHECK(ticket.valid())
      << "RenderService::wait on an empty or already-waited ticket";
  if (ticket.hit_ != nullptr) return *std::exchange(ticket.hit_, nullptr);
  Task* task = std::exchange(ticket.task_, nullptr);

  util::MutexLock lock(mu_);
  while (!task->done) done_cv_.wait(mu_);
  // The digest lives in the RenderCache (stable for its lifetime), so the
  // reference survives the task slot's recycling below.
  const util::Digest* result = task->result;
  WAFP_CHECK(task->waiters > 0)
      << "RenderService ticket accounting underflow";
  if (--task->waiters == 0) pool_.release(task);
  return *result;
}

const util::Digest& RenderService::render(
    const fingerprint::AudioFingerprintVector& vector,
    const platform::PlatformProfile& profile, std::uint32_t jitter_state) {
  const fingerprint::RenderClassKey key =
      fingerprint::make_render_class_key(vector, profile, jitter_state);
  Ticket ticket;
  if (!admit_hit(key, ticket)) {
    util::MutexLock lock(mu_);
    while (submit_locked(key, vector, profile, ticket) != Admit::kAccepted) {
      // Waiting out backpressure only terminates while workers drain the
      // queue; if the service is stopping instead, fail loudly rather than
      // sleep forever on a condition nothing will signal.
      WAFP_CHECK(!stopping_)
          << "RenderService::render blocked on a full queue while the "
             "service is stopping";
      space_cv_.wait(mu_);
    }
  }
  return wait(ticket);
}

void RenderService::worker_loop() {
  std::vector<Task*> batch;
  batch.reserve(config_.max_batch);
  for (;;) {
    batch.clear();
    {
      util::MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_cv_.wait(mu_);
      if (queue_.empty()) return;  // stopping && fully drained
      const std::size_t take = std::min(config_.max_batch, queue_.size());
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(queue_.front());
        queue_.pop_front();
      }
      queue_depth_gauge_.set(static_cast<std::int64_t>(queue_.size()));
    }
    space_cv_.notify_all();  // admission capacity just freed up

    // Archetype-major order (BatchRenderer's ordering): consecutive
    // renders share one platform's engine parts. Purely a locality knob —
    // every digest is a pure function of its own (stack, vector, jitter),
    // so batch composition and order can never change results.
    std::sort(batch.begin(), batch.end(), [](const Task* a, const Task* b) {
      if (a->key.stack_hash != b->key.stack_hash) {
        return a->key.stack_hash < b->key.stack_hash;
      }
      if (a->key.vector != b->key.vector) return a->key.vector < b->key.vector;
      return a->key.jitter < b->key.jitter;
    });

    // Render outside the lock: this is the expensive part, and the shared
    // RenderCache already serializes racers on a single cold key.
    render_batch(batch);

    {
      util::MutexLock lock(mu_);
      const std::uint64_t now = metrics_.now_ns();
      for (Task* task : batch) {
        task->done = true;
        inflight_.erase(task->key);
        coalesced_per_class_hist_.observe(task->joins);
        request_ns_hist_.observe(now - task->admitted_ns);
        ++stats_.completed;
        completed_counter_.inc();
      }
      ++stats_.batches;
      batch_size_hist_.observe(batch.size());
      batches_counter_.inc();
    }
    done_cv_.notify_all();
  }
}

void RenderService::render_batch(std::span<Task* const> batch)
    WAFP_NONALLOCATING {
  for (Task* task : batch) {
    task->result =
        &cache_.get(*task->vector, *task->profile, task->key.jitter);
  }
}

void RenderService::start() {
  util::MutexLock lock(workers_mu_);
  if (!threads_.empty()) return;
  {
    util::MutexLock qlock(mu_);
    stopping_ = false;
  }
  threads_.reserve(worker_count_);
  for (std::size_t i = 0; i < worker_count_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

void RenderService::stop() {
  util::MutexLock lock(workers_mu_);
  if (threads_.empty()) return;
  {
    util::MutexLock qlock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();  // wake backpressured render()s so they abort
  for (std::thread& worker : threads_) worker.join();
  threads_.clear();
}

ServeStats RenderService::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

std::size_t RenderService::queue_depth() const {
  util::MutexLock lock(mu_);
  return queue_.size();
}

std::uint64_t RenderService::slab_builds() const {
  util::MutexLock lock(mu_);
  return pool_.slab_builds();
}

}  // namespace wafp::serve
