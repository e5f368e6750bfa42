// Shared thread-pool backbone for every per-rank hot path.
//
// The paper's per-node speedups come from multithreaded local kernels
// (§VI follows Nagasaka et al.'s multicore hash SpGEMM); this module is
// the process-wide substrate those kernels run on: one persistent pool
// (no per-call thread spawns), sized once from --threads / MCLX_THREADS,
// with parallel_for / parallel_chunks / parallel_reduce helpers.
//
// Determinism contract (see docs/PERFORMANCE.md): work is split into
// contiguous chunks with boundaries at begin + (n*i)/chunks — a pure
// function of the range, never of scheduling — and every parallelized
// pipeline stage only writes lane-disjoint state (whole columns, disjoint
// output slices). Results are therefore bit-identical at any thread
// count, which is what lets ctest run under MCLX_THREADS=1 and =4 and
// lets the perf gate keep comparing virtual trajectories across machines.
//
// parallel_reduce combines partials in chunk-index order; the chunk count
// depends on the pool size, so it is reserved for ops that are exact
// under any grouping (integer sums, min/max). Floating-point sums that
// must stay bit-identical are stored per-element and folded sequentially.
//
// Multi-driver concurrency (the mclx::svc layer, docs/SERVICE.md): run()
// may be called from several driver threads at once — each call enqueues
// an independent job and the workers drain every active job's lanes, so
// N concurrent clustering jobs share one pool instead of oversubscribing
// the machine with N pools. Each job snapshots the submitting thread's
// obs::Context, and every lane runs under that snapshot with the metrics
// registry and event log cleared (the lane rule, obs/context.hpp): the
// thread-safe ledger and flight recorder keep per-job accounting exact,
// and the two sinks that are not thread-safe are only ever written by
// driver threads. Fair-share lane allocation is cooperative: a driver
// thread under a ScopedLaneCap plans its parallel constructs over at most
// that many lanes (see effective_lanes()), leaving the rest of the pool
// to the other drivers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/context.hpp"

namespace mclx::util {
class Cli;
}

namespace mclx::par {

/// Chunk c of [begin, end) split into `chunks` contiguous pieces:
/// [begin + n*c/chunks, begin + n*(c+1)/chunks). Pure function of the
/// range — the determinism contract's single source of truth.
template <typename IT>
inline std::pair<IT, IT> chunk_range(IT begin, IT end, int chunks, int c) {
  const auto n = static_cast<std::uint64_t>(end - begin);
  const auto k = static_cast<std::uint64_t>(chunks);
  const auto lo = begin + static_cast<IT>(n * static_cast<std::uint64_t>(c) / k);
  const auto hi =
      begin + static_cast<IT>(n * (static_cast<std::uint64_t>(c) + 1) / k);
  return {lo, hi};
}

/// Persistent worker pool. `size()` counts execution lanes including the
/// calling thread: a pool of size N spawns N-1 workers, and run()'s
/// caller executes lanes alongside them (so size 1 means fully inline).
class ThreadPool {
 public:
  /// nthreads <= 0 picks hardware_concurrency (at least 1).
  explicit ThreadPool(int nthreads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  int size() const { return size_; }

  /// Execute fn(lane) for lane in [0, lanes). Lanes are claimed from an
  /// atomic counter by the workers and the calling thread; which thread
  /// runs which lane is unspecified, so fn's work per lane must be a pure
  /// function of the lane index. Blocks until every lane finished.
  /// Nested calls from inside a worker run all lanes inline on that
  /// worker (no deadlock, same results).
  ///
  /// Safe to call from several driver threads concurrently: each call is
  /// an independent job, the workers drain all active jobs (FIFO), and
  /// the calling thread always participates in its own job — so a run()
  /// completes even when every worker is busy with other jobs. Every
  /// lane executes under the submitting thread's obs::Context::lane().
  void run(int lanes, const std::function<void(int)>& fn);

  /// Jobs currently dispatched and not yet completed (any driver).
  int active_jobs() const;

  /// Test seam: a worker calls `hook` (pool mutex held) after its wait
  /// found a job with unclaimed lanes and before it claims any. Tests
  /// block in it to let the job's driver claim every lane first.
  void set_claim_hook_for_testing(std::function<void()> hook);

  /// Lifetime totals, for tests and the obs counters.
  std::uint64_t runs() const { return runs_.load(std::memory_order_relaxed); }
  std::uint64_t tasks() const { return tasks_.load(std::memory_order_relaxed); }

 private:
  struct Job {
    const std::function<void(int)>* fn = nullptr;
    int lanes = 0;
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    std::atomic<std::uint64_t> busy_ns{0};
    obs::Context context;  ///< installed around every lane of this job
  };

  void worker_loop();
  static void work(Job& job);
  /// First active job with unclaimed lanes (callers hold mu_).
  std::shared_ptr<Job> claimable_locked() const;

  int size_ = 1;
  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable finished_;
  std::vector<std::shared_ptr<Job>> active_;  // dispatch order (FIFO)
  bool stop_ = false;
  std::function<void()> claim_hook_;  // guarded by mu_
  std::atomic<std::uint64_t> runs_{0};
  std::atomic<std::uint64_t> tasks_{0};
};

/// Resolved global thread count: the last set_threads() value, else
/// MCLX_THREADS, else hardware_concurrency. Always >= 1.
int threads();

/// Configure the global pool size (0 = hardware_concurrency). Takes
/// effect immediately: an existing pool of a different size is shut down
/// and the next pool() call rebuilds it. Not safe to call from inside a
/// parallel region.
void set_threads(int n);

/// The lazy global pool (created on first use at the configured size).
ThreadPool& pool();

/// Explicit shutdown (joins the workers). The next pool() use revives it;
/// call at process exit or between test fixtures that resize.
void shutdown();

/// True while the calling thread is a pool worker executing a lane —
/// nested parallel constructs run inline in that case.
bool in_parallel_region();

/// Per-thread cap on how many pool lanes parallel constructs issued from
/// this thread may occupy; 0 (the default) means uncapped. Fair-share
/// scheduling (mclx::svc) gives each concurrent job driver an equal
/// slice of the pool through this cap. Purely a width limit: results
/// stay bit-identical under any cap (the determinism contract), only
/// the chunk count changes.
int lane_cap();

/// The parallel width constructs issued from this thread actually plan
/// for: min(pool size, lane cap) — the pool size when uncapped. Large
/// cpu-hash multiplies split into this many lanes (spgemm/registry.cpp),
/// so a capped driver uses only the lanes it really has.
int effective_lanes();

/// RAII lane cap for the current thread (restores the previous cap).
class ScopedLaneCap {
 public:
  explicit ScopedLaneCap(int cap);
  ScopedLaneCap(const ScopedLaneCap&) = delete;
  ScopedLaneCap& operator=(const ScopedLaneCap&) = delete;
  ~ScopedLaneCap();

 private:
  int previous_;
};

/// Registers --threads on `cli` (default 0 = hardware_concurrency),
/// applies it via set_threads(), and returns the resolved count. The
/// one-liner every CLI/bench front end uses so the flag, the env var and
/// the run_meta record stay consistent.
int register_threads_flag(util::Cli& cli);

namespace detail {
/// Dispatch `chunks` lanes over the global pool and record the obs pool
/// counters (tasks, busy/idle time) from the calling thread. `chunks`
/// may exceed the pool size; excess lanes queue on the atomic counter.
void run_chunks(int chunks, const std::function<void(int)>& fn);
}  // namespace detail

/// How many chunks a range of size n is split into: min(effective lanes,
/// n), at least 1 — the effective width honors the calling thread's
/// fair-share lane cap. Shared by every helper below so call sites can
/// reproduce the split (e.g. to allocate per-chunk scratch).
template <typename IT>
inline int plan_chunks(IT begin, IT end) {
  const auto n = end > begin ? static_cast<std::uint64_t>(end - begin) : 0;
  if (n == 0) return 0;
  const auto p = static_cast<std::uint64_t>(effective_lanes());
  return static_cast<int>(p < n ? p : n);
}

/// body(lo, hi, chunk_index) over the deterministic chunk split of
/// [begin, end). Empty range → no calls.
template <typename IT, typename Body>
inline void parallel_chunks(IT begin, IT end, Body&& body) {
  const int chunks = plan_chunks(begin, end);
  if (chunks == 0) return;
  if (chunks == 1) {
    body(begin, end, 0);
    return;
  }
  const std::function<void(int)> fn = [&](int c) {
    const auto [lo, hi] = chunk_range(begin, end, chunks, c);
    body(lo, hi, c);
  };
  detail::run_chunks(chunks, fn);
}

/// fn(i) for every i in [begin, end), chunked contiguously. fn must only
/// touch per-i (or per-chunk-disjoint) state.
template <typename IT, typename Fn>
inline void parallel_for(IT begin, IT end, Fn&& fn) {
  parallel_chunks(begin, end, [&](IT lo, IT hi, int) {
    for (IT i = lo; i < hi; ++i) fn(i);
  });
}

/// chunk_fn(lo, hi) -> T partial, folded left-to-right in chunk order:
/// init ⊕ partial_0 ⊕ partial_1 ⊕ … The chunk count tracks the pool
/// size, so use only with grouping-exact ⊕ (integer sums, min/max) when
/// bit-identity across thread counts is required.
template <typename T, typename IT, typename ChunkFn, typename Combine>
inline T parallel_reduce(IT begin, IT end, T init, ChunkFn&& chunk_fn,
                         Combine&& combine) {
  const int chunks = plan_chunks(begin, end);
  if (chunks == 0) return init;
  if (chunks == 1) return combine(std::move(init), chunk_fn(begin, end));
  std::vector<T> partials(static_cast<std::size_t>(chunks));
  parallel_chunks(begin, end, [&](IT lo, IT hi, int c) {
    partials[static_cast<std::size_t>(c)] = chunk_fn(lo, hi);
  });
  T acc = std::move(init);
  for (auto& p : partials) acc = combine(std::move(acc), std::move(p));
  return acc;
}

}  // namespace mclx::par
