// The shared thread-pool backbone: pool lifecycle (sizing, shutdown and
// revival, re-entrancy, nested submission), the deterministic chunking
// helpers, and the tentpole guarantee — every pooled pipeline stage is
// bit-identical to its sequential execution at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/hipmcl.hpp"
#include "core/inflate.hpp"
#include "core/prune.hpp"
#include "dist/distmat.hpp"
#include "estimate/cohen.hpp"
#include "gen/er.hpp"
#include "io/matrix_market.hpp"
#include "merge/kway.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/flight_recorder.hpp"
#include "sim/eventlog.hpp"
#include "sim/machine.hpp"
#include "sparse/convert.hpp"
#include "spgemm/hash.hpp"
#include "spgemm/symbolic.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

#include "prune_blocks.hpp"

namespace {

using namespace mclx;
using dist::DistMat;
using dist::ProcGrid;
using C = sparse::Csc<vidx_t, val_t>;
using T = sparse::Triples<vidx_t, val_t>;

T random_triples(vidx_t n, std::uint64_t entries, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  T t(n, n);
  for (std::uint64_t e = 0; e < entries; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(n)),
                     static_cast<vidx_t>(rng.bounded(n)), rng.uniform_pos());
  }
  t.sort_and_combine();
  return t;
}

C random_csc(vidx_t n, std::uint64_t entries, std::uint64_t seed) {
  return sparse::csc_from_triples(random_triples(n, entries, seed));
}

/// Restores the default pool configuration when a test exits.
struct PoolGuard {
  ~PoolGuard() { par::set_threads(0); }
};

// ---------------------------------------------------------------------------
// chunk_range: the determinism contract's single source of truth.

TEST(ChunkRange, CoversRangeExactlyInOrder) {
  for (const int n : {0, 1, 7, 64, 87, 1000}) {
    for (const int chunks : {1, 2, 3, 8, 17}) {
      int expected_lo = 0;
      for (int c = 0; c < chunks; ++c) {
        const auto [lo, hi] = par::chunk_range(0, n, chunks, c);
        EXPECT_EQ(lo, expected_lo);
        EXPECT_LE(lo, hi);
        // Balanced to within one element.
        EXPECT_LE(hi - lo, n / chunks + 1);
        expected_lo = hi;
      }
      EXPECT_EQ(expected_lo, n);
    }
  }
}

TEST(ChunkRange, IndependentOfAnyGlobalState) {
  // Same inputs, same boundaries — before and after resizing the pool.
  PoolGuard guard;
  const auto before = par::chunk_range(10, 97, 4, 2);
  par::set_threads(3);
  const auto after = par::chunk_range(10, 97, 4, 2);
  EXPECT_EQ(before, after);
}

// ---------------------------------------------------------------------------
// Pool lifecycle.

TEST(ThreadPool, SizeFollowsConfiguration) {
  PoolGuard guard;
  par::set_threads(3);
  EXPECT_EQ(par::threads(), 3);
  EXPECT_EQ(par::pool().size(), 3);
  par::set_threads(1);
  EXPECT_EQ(par::pool().size(), 1);
}

TEST(ThreadPool, ThreadsFlagOverridesTheConfiguredWidth) {
  PoolGuard guard;
  par::set_threads(2);
  {
    const char* argv[] = {"prog", "--threads", "3"};
    util::Cli cli(3, const_cast<char**>(argv));
    EXPECT_EQ(par::register_threads_flag(cli), 3);
    cli.finish();  // the flag is registered, so it is not "unknown"
  }
  EXPECT_EQ(par::threads(), 3);
  EXPECT_EQ(par::pool().size(), 3);
  {
    // Absent (0) keeps whatever width is configured.
    const char* argv[] = {"prog"};
    util::Cli cli(1, const_cast<char**>(argv));
    EXPECT_EQ(par::register_threads_flag(cli), 3);
  }
}

TEST(ThreadPool, EnvironmentSetsTheDefaultWidth) {
  PoolGuard guard;
  // Destroyed before the guard, so the default it restores reads the
  // caller's environment again.
  struct EnvRestore {
    const char* old = std::getenv("MCLX_THREADS");
    std::string saved = old ? old : "";
    ~EnvRestore() {
      if (old) {
        setenv("MCLX_THREADS", saved.c_str(), 1);
      } else {
        unsetenv("MCLX_THREADS");
      }
    }
  } restore;
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  setenv("MCLX_THREADS", "2", 1);
  par::set_threads(0);
  EXPECT_EQ(par::threads(), 2);
  // An explicit width beats the environment.
  par::set_threads(3);
  EXPECT_EQ(par::threads(), 3);
  // Zero, negative and unparsable values fall back to the hardware.
  for (const char* bad : {"0", "-4", "lots"}) {
    setenv("MCLX_THREADS", bad, 1);
    par::set_threads(0);
    EXPECT_EQ(par::threads(), hw) << bad;
  }
}

TEST(ThreadPool, ShutdownRevives) {
  PoolGuard guard;
  par::set_threads(2);
  std::vector<int> out(10, 0);
  par::parallel_for(0, 10, [&](int i) { out[static_cast<std::size_t>(i)] = i; });
  par::shutdown();
  // Next use rebuilds the pool at the configured size.
  std::vector<int> out2(10, 0);
  par::parallel_for(0, 10,
                    [&](int i) { out2[static_cast<std::size_t>(i)] = i; });
  EXPECT_EQ(out, out2);
  EXPECT_EQ(par::pool().size(), 2);
}

TEST(ThreadPool, RunExecutesEveryLaneExactlyOnce) {
  PoolGuard guard;
  par::set_threads(4);
  std::vector<std::atomic<int>> hits(64);
  par::pool().run(64, [&](int lane) {
    hits[static_cast<std::size_t>(lane)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroLanesIsANoop) {
  PoolGuard guard;
  par::set_threads(2);
  bool called = false;
  par::pool().run(0, [&](int) { called = true; });
  EXPECT_FALSE(called);
  par::parallel_for(5, 5, [&](int) { called = true; });  // empty range
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedSubmissionRunsInline) {
  PoolGuard guard;
  par::set_threads(4);
  std::vector<std::atomic<int>> inner_hits(8);
  std::atomic<int> outer_hits{0};
  par::pool().run(4, [&](int) {
    outer_hits.fetch_add(1);
    EXPECT_TRUE(par::in_parallel_region());
    // A nested run must complete inline without deadlock and execute
    // every lane.
    par::pool().run(8, [&](int lane) {
      inner_hits[static_cast<std::size_t>(lane)].fetch_add(1);
    });
  });
  EXPECT_EQ(outer_hits.load(), 4);
  for (const auto& h : inner_hits) EXPECT_EQ(h.load(), 4);  // once per outer
  EXPECT_FALSE(par::in_parallel_region());
}

TEST(ThreadPool, NestedRunsCountOnlyTheDriversOwn) {
  // The lane rule (obs/context.hpp): lanes run without the driver's
  // registry, so a run nested in a lane neither races on it nor counts
  // into it — pool.* holds exactly the driver's own runs.
  PoolGuard guard;
  par::set_threads(4);
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetrics scope(registry);
    for (int round = 0; round < 50; ++round) {
      par::pool().run(4, [](int) { par::pool().run(2, [](int) {}); });
    }
  }
  EXPECT_EQ(registry.counter("pool.runs"), 50u);
  EXPECT_EQ(registry.counter("pool.tasks"), 200u);
  EXPECT_EQ(registry.counter("pool.inline_runs"), 0u);
}

TEST(ThreadPool, LanesRunUnderTheLaneContext) {
  // Inline, on the submitting thread or on a worker: every lane sees the
  // driver's ledger and recorder, and no registry or event log.
  PoolGuard guard;
  par::set_threads(4);
  obs::MetricsRegistry registry;
  obs::MemLedger ledger;
  sim::EventLog events;
  obs::FlightRecorder recorder;
  const obs::ScopedContext sinks({&registry, &ledger, &events, &recorder});
  std::atomic<int> wrong{0};
  const auto check = [&] {
    const obs::Context& c = obs::context();
    if (c.metrics != nullptr || c.events != nullptr || c.ledger != &ledger ||
        c.recorder != &recorder) {
      wrong.fetch_add(1);
    }
  };
  par::pool().run(8, [&](int) {
    check();
    obs::mem_charge("lane", 1);
    obs::fr_record(obs::FrEventKind::kMark, "lane");
    par::pool().run(2, [&](int) { check(); });  // nested: inline
  });
  par::pool().run(1, [&](int) { check(); });  // one lane: inline
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ledger.label_stats("lane").charges, 8u);
  int marks = 0;  // the ledger adds its own high-water events
  for (const obs::FrEvent& e : recorder.merged()) {
    marks += e.kind == static_cast<std::uint32_t>(obs::FrEventKind::kMark);
  }
  EXPECT_EQ(marks, 8);
  // The driver's own context is back after each run.
  EXPECT_EQ(obs::context().metrics, &registry);
  EXPECT_EQ(obs::context().events, &events);
}

TEST(ThreadPool, ReentrantAcrossManyRuns) {
  PoolGuard guard;
  par::set_threads(3);
  std::uint64_t total = 0;
  for (int round = 0; round < 50; ++round) {
    total += par::parallel_reduce(
        0, 1000, std::uint64_t{0},
        [](int lo, int hi) {
          std::uint64_t s = 0;
          for (int i = lo; i < hi; ++i) s += static_cast<std::uint64_t>(i);
          return s;
        },
        [](std::uint64_t x, std::uint64_t y) { return x + y; });
  }
  EXPECT_EQ(total, 50ull * (999ull * 1000ull / 2));
}

TEST(ThreadPool, ConcurrentDriversAllComplete) {
  // The multi-driver contract (mclx::svc): several threads call run()
  // on the same pool at once; every job's lanes all execute, and the
  // caller's participation guarantees progress even with every worker
  // busy elsewhere.
  PoolGuard guard;
  par::set_threads(4);
  auto& p = par::pool();
  constexpr int kDrivers = 6;
  constexpr int kLanes = 32;
  std::vector<std::vector<std::atomic<int>>> hits(kDrivers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kLanes);
  }
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&p, &hits, d] {
      for (int round = 0; round < 5; ++round) {
        p.run(kLanes, [&hits, d](int lane) {
          hits[static_cast<std::size_t>(d)][static_cast<std::size_t>(lane)]
              .fetch_add(1);
        });
      }
    });
  }
  for (auto& t : drivers) t.join();
  for (const auto& job : hits) {
    for (const auto& lane : job) EXPECT_EQ(lane.load(), 5);
  }
  EXPECT_EQ(p.active_jobs(), 0);
}

TEST(ThreadPool, WorkerRunsTheJobItsWaitFound) {
  // Regression for the worker wake-up race. Lanes are claimed outside
  // the pool mutex, so between a worker's wait finding a job with an
  // unclaimed lane and that worker claiming it, the job's driver can
  // take the last lane. The claim hook holds the worker in exactly that
  // window until the driver has run both lanes itself; the worker must
  // then find nothing left to do and carry on, not lose the job.
  par::ThreadPool pool(2);  // the driver plus one worker
  std::atomic<bool> worker_in_window{false};
  std::atomic<int> lanes_done{0};
  pool.set_claim_hook_for_testing([&] {
    worker_in_window.store(true);
    while (lanes_done.load() < 2) std::this_thread::yield();
  });
  pool.run(2, [&](int lane) {
    // Lane 0 waits for the worker to enter the window, so the driver
    // claims lane 1 while the worker sits between wait and claim.
    if (lane == 0) {
      while (!worker_in_window.load()) std::this_thread::yield();
    }
    lanes_done.fetch_add(1);
  });
  EXPECT_EQ(lanes_done.load(), 2);
  EXPECT_TRUE(worker_in_window.load());
  pool.set_claim_hook_for_testing(nullptr);
  // The worker survived the empty claim and still serves new jobs.
  std::atomic<int> hits{0};
  pool.run(8, [&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 8);
  EXPECT_EQ(pool.active_jobs(), 0);
}

TEST(ThreadPool, LaneCapBoundsPlannedChunks) {
  PoolGuard guard;
  par::set_threads(4);
  EXPECT_EQ(par::lane_cap(), 0);
  EXPECT_EQ(par::effective_lanes(), 4);
  EXPECT_EQ(par::plan_chunks(0, 1000), 4);
  {
    par::ScopedLaneCap cap(2);
    EXPECT_EQ(par::lane_cap(), 2);
    EXPECT_EQ(par::effective_lanes(), 2);
    EXPECT_EQ(par::plan_chunks(0, 1000), 2);
    {
      par::ScopedLaneCap inner(1);  // nests, restores the outer cap
      EXPECT_EQ(par::effective_lanes(), 1);
    }
    EXPECT_EQ(par::effective_lanes(), 2);
    // A cap above the pool size does not invent lanes.
    par::ScopedLaneCap wide(64);
    EXPECT_EQ(par::effective_lanes(), 4);
  }
  EXPECT_EQ(par::lane_cap(), 0);
  EXPECT_EQ(par::effective_lanes(), 4);
}

TEST(ThreadPool, CappedResultsBitIdenticalToUncapped) {
  // The cap only narrows the chunk split; the determinism contract
  // makes the results invariant (this is what keeps fair-share capped
  // svc jobs bit-identical to standalone runs).
  PoolGuard guard;
  par::set_threads(4);
  const C a = random_csc(120, 1800, 77);
  const C b = random_csc(120, 1600, 78);
  const C uncapped = spgemm::hash_spgemm(a, b, par::effective_lanes());
  par::ScopedLaneCap cap(2);
  EXPECT_EQ(uncapped, spgemm::hash_spgemm(a, b, par::effective_lanes()));
}

TEST(ThreadPool, CountsRunsAndTasks) {
  PoolGuard guard;
  par::set_threads(2);
  auto& p = par::pool();
  const std::uint64_t runs0 = p.runs();
  const std::uint64_t tasks0 = p.tasks();
  p.run(5, [](int) {});
  p.run(1, [](int) {});
  EXPECT_EQ(p.runs(), runs0 + 2);
  EXPECT_EQ(p.tasks(), tasks0 + 6);
}

// ---------------------------------------------------------------------------
// Bit-identity sweeps: every pooled stage vs its 1-thread execution.

class ThreadSweep : public testing::TestWithParam<int> {
 protected:
  void SetUp() override { par::set_threads(GetParam()); }
  void TearDown() override { par::set_threads(0); }
};

TEST_P(ThreadSweep, SpgemmAndSymbolic) {
  const C a = random_csc(150, 2500, 21);
  const C b = random_csc(150, 2200, 22);

  par::set_threads(1);
  const C seq = spgemm::hash_spgemm(a, b, par::effective_lanes());
  const auto sym_seq = spgemm::symbolic_nnz_per_col(a, b);

  par::set_threads(GetParam());
  EXPECT_EQ(seq, spgemm::hash_spgemm(a, b, par::effective_lanes()));
  EXPECT_EQ(sym_seq, spgemm::symbolic_nnz_per_col(a, b));
  EXPECT_EQ(seq, spgemm::hash_spgemm(a, b));  // and vs one lane
}

TEST_P(ThreadSweep, PruneWithRecoveryAndTopK) {
  const T t = random_triples(48, 2000, 23);
  core::PruneParams p;
  p.cutoff = 0.35;
  p.select_k = 6;
  p.recover_num = 3;

  par::set_threads(1);
  DistMat m_seq = DistMat::from_triples(t, ProcGrid(4));
  sim::SimState sim_seq(sim::summit_like(4));
  prune_blocks(m_seq, p, sim_seq);
  const C seq = m_seq.to_csc();

  par::set_threads(GetParam());
  DistMat m_par = DistMat::from_triples(t, ProcGrid(4));
  sim::SimState sim_par(sim::summit_like(4));
  prune_blocks(m_par, p, sim_par);
  EXPECT_EQ(seq, m_par.to_csc());
}

TEST_P(ThreadSweep, InflateNormalizeHadamard) {
  const T t = random_triples(40, 900, 24);

  par::set_threads(1);
  DistMat m_seq = DistMat::from_triples(t, ProcGrid(4));
  sim::SimState sim_seq(sim::summit_like(4));
  core::distributed_inflate(m_seq, 2.0, sim_seq);
  const C seq = m_seq.to_csc();

  par::set_threads(GetParam());
  DistMat m_par = DistMat::from_triples(t, ProcGrid(4));
  sim::SimState sim_par(sim::summit_like(4));
  core::distributed_inflate(m_par, 2.0, sim_par);

  // Bitwise, not approx: same per-column FP order at any thread count.
  const C par_c = m_par.to_csc();
  ASSERT_EQ(seq.colptr(), par_c.colptr());
  ASSERT_EQ(seq.rowids(), par_c.rowids());
  EXPECT_EQ(seq.vals(), par_c.vals());
}

TEST_P(ThreadSweep, CohenEstimator) {
  const C a = random_csc(200, 3000, 25);
  const C b = random_csc(200, 2800, 26);

  par::set_threads(1);
  const auto seq = estimate::cohen_nnz_estimate(a, b, 16, 99);

  par::set_threads(GetParam());
  const auto par_est = estimate::cohen_nnz_estimate(a, b, 16, 99);
  EXPECT_EQ(seq.per_col, par_est.per_col);
  EXPECT_EQ(seq.total, par_est.total);
}

TEST_P(ThreadSweep, KwayMerge) {
  std::vector<C> blocks;
  for (std::uint64_t s = 0; s < 5; ++s) {
    blocks.push_back(random_csc(60, 700, 30 + s));
  }

  par::set_threads(1);
  const C seq = merge::kway_merge(blocks);

  par::set_threads(GetParam());
  const C par_c = merge::kway_merge(blocks);
  ASSERT_EQ(seq.colptr(), par_c.colptr());
  ASSERT_EQ(seq.rowids(), par_c.rowids());
  EXPECT_EQ(seq.vals(), par_c.vals());
}

TEST_P(ThreadSweep, MatrixMarketParse) {
  // Symmetric input: the mirror pushes must land in the same order as
  // the sequential reader for sort_and_combine to fold identically.
  std::ostringstream mtx;
  mtx << "%%MatrixMarket matrix coordinate real symmetric\n"
      << "% generated\n"
      << "50 50 120\n";
  util::Xoshiro256 rng(31);
  for (int e = 0; e < 120; ++e) {
    const auto r = 1 + rng.bounded(50);
    const auto c = 1 + rng.bounded(50);
    mtx << r << ' ' << c << ' ' << rng.uniform_pos() << '\n';
  }
  const std::string text = mtx.str();

  par::set_threads(1);
  std::istringstream in_seq(text);
  const io::MmTriples seq = io::read_matrix_market(in_seq);

  par::set_threads(GetParam());
  std::istringstream in_par(text);
  EXPECT_EQ(seq, io::read_matrix_market(in_par));
}

/// A symmetric Matrix Market file of more than 2.5 MiB, so its entry
/// lines span three of the reader's 1 MiB blocks, with the triples it must
/// read as. Lines vary in length, so the blocks end mid-line; every
/// seventh line ends in CRLF, every fifth is tab-separated, and the
/// last one has no '\n'.
struct BigSymmetricFile {
  std::string text;
  T expected;
};

const BigSymmetricFile& big_symmetric_file() {
  static const BigSymmetricFile file = [] {
    constexpr vidx_t kN = 3'000;
    constexpr int kEntries = 110'000;
    BigSymmetricFile f;
    f.expected = T(kN, kN);
    std::ostringstream mtx;
    mtx.precision(17);
    mtx << "%%MatrixMarket matrix coordinate real symmetric\n"
        << "% generated\n"
        << kN << ' ' << kN << ' ' << kEntries << '\n';
    util::Xoshiro256 rng(41);
    for (int e = 0; e < kEntries; ++e) {
      auto r = static_cast<vidx_t>(rng.bounded(kN));
      auto c = static_cast<vidx_t>(rng.bounded(kN));
      if (r < c) std::swap(r, c);
      const double v = std::ldexp(rng.uniform_pos() - 0.5,
                                  static_cast<int>(rng.bounded(40)) - 20);
      f.expected.push(r, c, v);
      if (r != c) f.expected.push(c, r, v);
      const char* sep = e % 5 == 0 ? "\t" : " ";
      mtx << r + 1 << sep << c + 1 << sep << v;
      if (e + 1 < kEntries) mtx << (e % 7 == 0 ? "\r\n" : "\n");
    }
    f.text = mtx.str();
    f.expected.sort_and_combine();
    return f;
  }();
  return file;
}

/// `text` with the whole line that starts after byte `offset` replaced.
std::string replace_line_after(std::string text, std::size_t offset,
                               const std::string& line) {
  const std::size_t begin = text.find('\n', offset) + 1;
  const std::size_t end = text.find_first_of("\r\n", begin);
  return text.replace(begin, end - begin, line);
}

TEST_P(ThreadSweep, MatrixMarketBlocks) {
  const BigSymmetricFile& file = big_symmetric_file();
  ASSERT_GE(file.text.size(), std::size_t{5} << 19);

  std::istringstream in(file.text);
  const io::MmTriples got = io::read_matrix_market(in);
  ASSERT_EQ(got.nnz(), file.expected.nnz());
  for (std::size_t i = 0; i < got.nnz(); ++i) {
    const auto& a = got.data()[i];
    const auto& b = file.expected.data()[i];
    ASSERT_EQ(a.row, b.row) << i;
    ASSERT_EQ(a.col, b.col) << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.val),
              std::bit_cast<std::uint64_t>(b.val))
        << i;
  }

  // Bad lines past the first block: the earliest is named, also when a
  // later one falls in the same block at another lane, or in a later
  // block.
  const auto error_of = [](const std::string& text) -> std::string {
    std::istringstream bad_in(text);
    try {
      (void)io::read_matrix_market(bad_in);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no error";
  };
  std::string bad = replace_line_after(file.text, 1'300'000, "17 x 0.5");
  bad = replace_line_after(bad, 1'900'000, "1 1 nan");
  bad = replace_line_after(bad, 2'600'000, "0 1 0.5");
  EXPECT_NE(error_of(bad).find("bad entry line: 17 x 0.5"), std::string::npos);
  EXPECT_NE(error_of(replace_line_after(file.text, 2'600'000, "3001 1 0.5"))
                .find("entry out of bounds: 3001 1 0.5"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ThreadSweep,
                         testing::Values(1, 2, 3, 8),
                         [](const testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Width independence: the pool width never reaches the virtual clock.

TEST(WidthIndependence, CpuOnlyTrajectoryIdenticalAcrossPoolWidths) {
  // One CPU-only rank, so the pooled prune, inflate and estimator loops
  // run over the whole matrix. A random graph keeps cf near 2, where
  // cpu-hash is selected and a policy that consulted the width would pick
  // a different kernel (and cost) per width. Labels and virtual times must
  // not depend on how many lanes the pool has.
  PoolGuard guard;
  gen::ErParams gp;
  gp.n = 1'000;
  gp.avg_degree = 22.0;
  gp.seed = 91;
  const auto graph = gen::erdos_renyi(gp);
  core::MclParams params;
  params.prune.select_k = 40;
  params.max_iters = 3;
  auto run = [&](int threads, int cap) {
    par::set_threads(threads);
    par::ScopedLaneCap lane_cap(cap);
    sim::SimState sim(sim::summit_like_cpu_only(1));
    return core::run_hipmcl(graph, params, core::HipMclConfig::optimized(),
                            sim);
  };
  const auto w1 = run(1, 0);
  ASSERT_FALSE(w1.iters.empty());
  for (const auto& [name, other] :
       {std::pair{"4 lanes", run(4, 0)},
        std::pair{"4 capped to 2", run(4, 2)}}) {
    EXPECT_EQ(w1.labels, other.labels) << name;
    ASSERT_EQ(w1.iters.size(), other.iters.size()) << name;
    for (std::size_t i = 0; i < w1.iters.size(); ++i) {
      const auto& a = w1.iters[i];
      const auto& b = other.iters[i];
      EXPECT_EQ(a.elapsed, b.elapsed) << name << " iter " << i;
      EXPECT_EQ(a.stage_times, b.stage_times) << name << " iter " << i;
      EXPECT_EQ(a.cpu_idle, b.cpu_idle) << name << " iter " << i;
      EXPECT_EQ(a.gpu_idle, b.gpu_idle) << name << " iter " << i;
    }
    EXPECT_EQ(w1.elapsed, other.elapsed) << name;
  }
}

TEST(MatrixMarketParallel, BadEntrySurfacesAsException) {
  PoolGuard guard;
  par::set_threads(4);
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 2\n"
      "1 1 0.5\n"
      "4 1 0.5\n");  // out of bounds
  EXPECT_THROW(io::read_matrix_market(in), std::runtime_error);
}

}  // namespace
