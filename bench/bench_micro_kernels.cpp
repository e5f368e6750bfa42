// Microbenchmark of the local-SpGEMM kernel the host runs — the hash
// accumulator behind every kind, on one or more lanes — across the cf
// spectrum. Reports measured wall time of the
// real computation (google-benchmark) and, via counters, the cost
// model's virtual time for the same multiply — so any drift between
// "what we compute" and "what we charge" is visible in one table.
// The BM_Planted* pairs benchmark each SIMD-specced loop (prune
// threshold scan, inflate) against its scalar counterpart on the same
// planted-partition workload; BM_PlantedAccumScalar times cpu-hash's
// row-indexed accumulator alone.
// Every benchmark also reports bytes/flop so the arithmetic-intensity
// regime of each kernel (all far into memory-bound territory) is visible
// next to its wall time.
#include <benchmark/benchmark.h>

#include <cmath>

#include "gen/planted.hpp"
#include "sim/costmodel.hpp"
#include "sim/machine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "spgemm/hash.hpp"
#include "spgemm/kernels.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/types.hpp"

namespace {

using namespace mclx;
using C = sparse::Csc<vidx_t, val_t>;

/// Matrix whose square has roughly the requested compression factor:
/// denser columns collide more, raising cf.
C matrix_for_cf(vidx_t n, double density, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sparse::Triples<vidx_t, val_t> t(n, n);
  const auto entries = static_cast<std::uint64_t>(
      density * static_cast<double>(n) * static_cast<double>(n));
  for (std::uint64_t e = 0; e < entries; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(n)),
                     static_cast<vidx_t>(rng.bounded(n)), rng.uniform_pos());
  }
  t.sort_and_combine();
  return sparse::csc_from_triples(std::move(t));
}

struct Regime {
  const char* name;
  vidx_t n;
  double density;
};

// low-cf: sparse random square; high-cf: dense columns.
constexpr Regime kRegimes[] = {
    {"low_cf", 2000, 0.002},
    {"mid_cf", 600, 0.03},
    {"high_cf", 300, 0.25},
};

template <typename Kernel>
void run_kernel(benchmark::State& state, spgemm::KernelKind kind,
                Kernel&& kernel) {
  const Regime& regime = kRegimes[state.range(0)];
  const C a = matrix_for_cf(regime.n, regime.density, 42);
  const std::uint64_t flops = sparse::spgemm_flops(a, a);

  std::uint64_t out_nnz = 0;
  for (auto _ : state) {
    C c = kernel(a, a);
    out_nnz = c.nnz();
    benchmark::DoNotOptimize(c);
  }
  const double cf = sparse::compression_factor(flops, out_nnz);

  // Model time for the same multiply on the virtual Summit node (divided
  // by work_scale back to "real machine" seconds for comparability).
  auto machine = sim::summit_like(4);
  const sim::CostModel model(machine);
  const double width = static_cast<double>(a.nnz()) /
                       static_cast<double>(a.ncols());
  const double model_time =
      model.local_spgemm(kind, flops, cf, width) / machine.work_scale;

  state.counters["flops"] = static_cast<double>(flops);
  state.counters["cf"] = cf;
  state.counters["model_us"] = model_time * 1e6;
  // Arithmetic intensity: bytes streamed through the kernel (both input
  // operands read, output written, index+value per entry) per flop. All
  // SpGEMM regimes land well below 1 flop/byte — memory-bound.
  const double entry_bytes = sizeof(vidx_t) + sizeof(val_t);
  state.counters["bytes_per_flop"] =
      static_cast<double>(2 * a.nnz() + out_nnz) * entry_bytes /
      static_cast<double>(flops);
  state.SetLabel(regime.name);
}

void BM_CpuHash(benchmark::State& state) {
  run_kernel(state, spgemm::KernelKind::kCpuHash,
             [](const C& a, const C& b) { return spgemm::hash_spgemm(a, b); });
}
/// The hash kernel on an explicit lane count (second range arg) over a
/// pool of that width, so one run shows the real multicore scaling curve
/// next to the single-lane kernels.
void BM_CpuHashPar(benchmark::State& state) {
  const auto nthreads = static_cast<int>(state.range(1));
  par::set_threads(nthreads);
  run_kernel(state, spgemm::KernelKind::kCpuHash,
             [nthreads](const C& a, const C& b) {
               return spgemm::hash_spgemm(a, b, nthreads);
             });
  state.counters["threads"] = static_cast<double>(nthreads);
  par::set_threads(0);
}

BENCHMARK(BM_CpuHash)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CpuHashPar)
    ->ArgsProduct({{0, 1, 2}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Planted-partition workloads: the hash accumulator alone, and
// scalar-vs-SIMD pairs for prune and inflate. Each pair runs the
// identical fixed-lane computation; the scalar side is a plain loop, so
// the delta is exactly what the vector backend buys. Compare the _Simd
// rows against their _Scalar partners in a -DMCLX_SIMD_NATIVE=ON build
// (on a scalar-only build the pairs tie).

/// Planted workloads spanning the accumulator's regimes. "family"
/// (arg 0) keeps the defaults: dense protein families make A² products
/// collide onto few rows, so accumulates are mostly *hits*. "noise"
/// (arg 1) shrinks families and raises cross-family noise: products are
/// mostly distinct rows, so accumulates are mostly *inserts*. Early MCL
/// iterations (cf near 1) look like "noise"; late, contracted ones like
/// "family".
C planted_matrix(int workload) {
  gen::PlantedParams p;
  p.n = 1200;
  p.seed = 5;
  if (workload == 1) {
    p.mean_family = 6.0;
    p.max_family = 30;
    p.p_in = 0.3;
    p.out_degree = 16.0;
  } else if (workload == 2) {
    // "hub" (arg 2): the family regime scaled up to 8,000 rows with
    // heavy-tailed families, so the worst column's flops are orders of
    // magnitude above its output nnz — the L2-spilling regime.
    p.n = 8000;
    p.mean_family = 80.0;
    p.max_family = 800;
  }
  auto g = gen::planted_partition(p);
  return sparse::csc_from_triples(std::move(g.edges));
}

const char* workload_name(int workload) {
  if (workload == 1) return "noise";
  return workload == 2 ? "hub" : "family";
}

/// Drives `acc` through the full product stream of A·A: accumulate each
/// output column, then extract it sorted. Exactly hash_spgemm's per-column
/// loop, so the benchmark isolates the accumulator itself.
template <typename Accumulator>
void planted_accum_loop(benchmark::State& state, const C& a,
                        Accumulator& acc) {
  std::vector<vidx_t> rows;
  std::vector<val_t> vals;
  for (auto _ : state) {
    rows.clear();
    vals.clear();
    for (vidx_t j = 0; j < a.ncols(); ++j) {
      const auto bk = a.col_rows(j);
      const auto bv = a.col_vals(j);
      for (std::size_t p = 0; p < bk.size(); ++p) {
        const auto ar = a.col_rows(bk[p]);
        const auto av = a.col_vals(bk[p]);
        for (std::size_t q = 0; q < ar.size(); ++q) {
          acc.accumulate(ar[q], av[q] * bv[p]);
        }
      }
      acc.extract_sorted(rows, vals);
    }
    benchmark::DoNotOptimize(rows.data());
    benchmark::DoNotOptimize(vals.data());
  }
  state.counters["flops"] =
      static_cast<double>(sparse::spgemm_flops(a, a));
  // Per intermediate product: read one A entry, touch one value slot and
  // its stamp.
  state.counters["bytes_per_flop"] =
      sizeof(vidx_t) + 2 * sizeof(val_t) + sizeof(std::uint32_t);
}

void BM_PlantedAccumScalar(benchmark::State& state) {
  const C a = planted_matrix(static_cast<int>(state.range(0)));
  state.SetLabel(workload_name(static_cast<int>(state.range(0))));
  // The row-indexed accumulator hash_spgemm allocates once per call.
  spgemm::detail::RowAccumulator<vidx_t, val_t> acc(a.nrows());
  planted_accum_loop(state, a, acc);
}

void BM_PlantedPruneScalar(benchmark::State& state) {
  const C a = planted_matrix(0);
  std::vector<char> flags(a.nnz());
  const double cutoff = 0.1;
  for (auto _ : state) {
    std::uint64_t kept = 0;
    for (std::size_t i = 0; i < a.nnz(); ++i) {
      flags[i] = std::abs(a.vals()[i]) >= cutoff ? 1 : 0;
      kept += static_cast<std::uint64_t>(flags[i]);
    }
    benchmark::DoNotOptimize(kept);
  }
  // One compare per entry; read a double, write a flag byte.
  state.counters["bytes_per_flop"] = sizeof(val_t) + 1.0;
}
void BM_PlantedPruneSimd(benchmark::State& state) {
  const C a = planted_matrix(0);
  std::vector<char> flags(a.nnz());
  const double cutoff = 0.1;
  for (auto _ : state) {
    auto kept =
        simd::threshold_flags(a.vals().data(), a.nnz(), cutoff, flags.data());
    benchmark::DoNotOptimize(kept);
  }
  state.counters["bytes_per_flop"] = sizeof(val_t) + 1.0;
  state.SetLabel(std::string(simd::backend()));
}

void BM_PlantedInflateScalar(benchmark::State& state) {
  const C a = planted_matrix(0);
  std::vector<val_t> v(a.vals().begin(), a.vals().end());
  for (auto _ : state) {
    // Hadamard square, column-spec sum, divide — the scalar sum follows
    // the same 4-lane spec as simd::sum so both sides compute one bit
    // pattern.
    for (auto& x : v) x = x * x;
    double s[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < v.size(); ++i) s[i % 4] += v[i];
    const double total = (s[0] + s[1]) + (s[2] + s[3]);
    for (auto& x : v) x /= total;
    benchmark::DoNotOptimize(v.data());
  }
  // ~3 flops per entry (square, add, divide); value read + written per
  // pass.
  state.counters["bytes_per_flop"] = 2.0 * sizeof(val_t) / 3.0;
}
void BM_PlantedInflateSimd(benchmark::State& state) {
  const C a = planted_matrix(0);
  std::vector<val_t> v(a.vals().begin(), a.vals().end());
  for (auto _ : state) {
    simd::hadamard_pow(v.data(), v.size(), 2.0);
    const double total = simd::sum(v.data(), v.size());
    simd::div_by(v.data(), v.size(), total);
    benchmark::DoNotOptimize(v.data());
  }
  state.counters["bytes_per_flop"] = 2.0 * sizeof(val_t) / 3.0;
  state.SetLabel(std::string(simd::backend()));
}

BENCHMARK(BM_PlantedAccumScalar)
    ->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlantedPruneScalar)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PlantedPruneSimd)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PlantedInflateScalar)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PlantedInflateSimd)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
