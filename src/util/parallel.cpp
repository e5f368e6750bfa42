#include "util/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "util/cli.hpp"

namespace mclx::par {

namespace {

thread_local bool t_in_region = false;
thread_local int t_lane_cap = 0;  // 0 = uncapped

int hardware_threads() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return n > 0 ? n : 1;
}

/// Default resolution: MCLX_THREADS (when set and positive), else the
/// hardware concurrency.
int default_threads() {
  if (const char* env = std::getenv("MCLX_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return hardware_threads();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

bool in_parallel_region() { return t_in_region; }

int lane_cap() { return t_lane_cap; }

int effective_lanes() {
  const int p = pool().size();
  return t_lane_cap > 0 && t_lane_cap < p ? t_lane_cap : p;
}

ScopedLaneCap::ScopedLaneCap(int cap) : previous_(t_lane_cap) {
  t_lane_cap = cap > 0 ? cap : 0;
}

ScopedLaneCap::~ScopedLaneCap() { t_lane_cap = previous_; }

ThreadPool::ThreadPool(int nthreads) {
  size_ = nthreads > 0 ? nthreads : hardware_threads();
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int t = 0; t < size_ - 1; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::work(Job& job) {
  for (;;) {
    const int lane = job.next.fetch_add(1, std::memory_order_relaxed);
    if (lane >= job.lanes) return;
    const std::uint64_t t0 = now_ns();
    (*job.fn)(lane);
    job.busy_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    job.done.fetch_add(1, std::memory_order_release);
  }
}

std::shared_ptr<ThreadPool::Job> ThreadPool::claimable_locked() const {
  for (const auto& job : active_) {
    if (job->next.load(std::memory_order_relaxed) < job->lanes) return job;
  }
  return nullptr;
}

int ThreadPool::active_jobs() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(active_.size());
}

void ThreadPool::set_claim_hook_for_testing(std::function<void()> hook) {
  std::lock_guard<std::mutex> lk(mu_);
  claim_hook_ = std::move(hook);
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Keep the job the wait found: lanes are claimed outside the mutex,
    // so a second lookup can come back empty once the job's driver has
    // taken its last lane. work() on a fully claimed job returns at once.
    std::shared_ptr<Job> job;
    wake_.wait(lk, [&] {
      if (stop_) return true;
      job = claimable_locked();
      return job != nullptr;
    });
    if (stop_) return;
    if (claim_hook_) claim_hook_();
    lk.unlock();
    {
      // Lanes run under the submitting driver's lane context, not
      // whatever this worker executed last.
      const obs::ScopedContext sinks(job->context);
      t_in_region = true;
      work(*job);
      t_in_region = false;
    }
    // Waking the caller must happen after holding the mutex, so its
    // predicate check cannot slip between our done-increment and notify.
    if (job->done.load(std::memory_order_acquire) == job->lanes) {
      std::lock_guard<std::mutex> done_lk(mu_);
      finished_.notify_all();
    }
    lk.lock();
  }
}

void ThreadPool::run(int lanes, const std::function<void(int)>& fn) {
  if (lanes <= 0) return;
  runs_.fetch_add(1, std::memory_order_relaxed);
  tasks_.fetch_add(static_cast<std::uint64_t>(lanes),
                   std::memory_order_relaxed);
  obs::count("pool.runs");
  obs::count("pool.tasks", static_cast<std::uint64_t>(lanes));

  // The lane rule (obs/context.hpp): every lane, wherever it runs, sees
  // the caller's context without the two sinks that are not thread-safe.
  const obs::Context lane_context = obs::context().lane();

  // Inline paths: a 1-lane job, a 1-thread pool, or a nested call from a
  // worker lane. Same lane order as the concurrent path, so identical
  // results — the pool is an execution detail, never a semantic one.
  if (lanes == 1 || size_ == 1 || t_in_region) {
    obs::count("pool.inline_runs");
    const obs::ScopedContext sinks(lane_context);
    for (int lane = 0; lane < lanes; ++lane) fn(lane);
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->lanes = lanes;
  job->context = lane_context;
  const std::uint64_t t0 = now_ns();
  std::size_t active_now = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    active_.push_back(job);
    active_now = active_.size();
  }
  obs::record("pool.active_jobs", static_cast<double>(active_now));
  wake_.notify_all();

  // The caller is a lane-execution thread too, under the same rule.
  {
    const obs::ScopedContext sinks(job->context);
    t_in_region = true;
    work(*job);
    t_in_region = false;
  }

  {
    std::unique_lock<std::mutex> lk(mu_);
    finished_.wait(lk, [&] {
      return job->done.load(std::memory_order_acquire) == job->lanes;
    });
    active_.erase(std::find(active_.begin(), active_.end(), job));
  }

  // Utilization from the caller, after the join: lanes have no registry.
  const double span_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const double busy_s =
      static_cast<double>(job->busy_ns.load(std::memory_order_relaxed)) * 1e-9;
  const double idle_s =
      std::max(0.0, span_s * static_cast<double>(size_) - busy_s);
  obs::record("pool.busy_s", busy_s);
  obs::record("pool.idle_s", idle_s);
}

namespace {

std::mutex g_mu;
std::unique_ptr<ThreadPool> g_pool;
int g_configured = -1;  // -1: not resolved yet

}  // namespace

int threads() {
  std::lock_guard<std::mutex> lk(g_mu);
  if (g_configured < 0) g_configured = default_threads();
  return g_configured;
}

void set_threads(int n) {
  std::lock_guard<std::mutex> lk(g_mu);
  const int resolved = n > 0 ? n : default_threads();
  if (g_pool && g_pool->size() != resolved) g_pool.reset();
  g_configured = resolved;
}

ThreadPool& pool() {
  std::lock_guard<std::mutex> lk(g_mu);
  if (!g_pool) {
    if (g_configured < 0) g_configured = default_threads();
    g_pool = std::make_unique<ThreadPool>(g_configured);
  }
  return *g_pool;
}

void shutdown() {
  std::lock_guard<std::mutex> lk(g_mu);
  g_pool.reset();
}

int register_threads_flag(util::Cli& cli) {
  const int n = static_cast<int>(cli.get_int(
      "threads", 0,
      "worker threads for the per-rank pipeline (0 = hardware, or "
      "MCLX_THREADS)"));
  if (n > 0) set_threads(n);
  return threads();
}

namespace detail {

void run_chunks(int chunks, const std::function<void(int)>& fn) {
  pool().run(chunks, fn);
}

}  // namespace detail

}  // namespace mclx::par
