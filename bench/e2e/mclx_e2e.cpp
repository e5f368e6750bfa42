// mclx_e2e: the program half of the wall-clock end-to-end benchmark
// (bench/e2e/README.md). run.py owns the loop, the checks and the
// statistics; this binary does the work one process at a time, so a
// crash costs one repetition, not the whole run:
//
//   mclx_e2e --gen --workload W --seed S --dir D
//       Generates the workload's input graphs from S, writes them to
//       D/job<j>.mtx and prints {"jobs": [{"truth": [...]}, ...]}.
//   mclx_e2e --child op|job|traced --workload W --dir D --spawn-ns N
//       One repetition in a fresh process: reads D/job<j>.mtx, runs, and
//       prints one result JSON on stdout.
//         op      the workload's end-to-end operation: one run_hipmcl
//                 call, or all jobs of a batch through svc::Scheduler
//         job     job 0 alone, untraced (the tracing overhead's baseline)
//         traced  job 0 with stage spans, an obs registry and the layer
//                 probe; a batch workload first runs its batch once for
//                 the scheduler's wait times
//
// Every timestamp is std::chrono::steady_clock, i.e. CLOCK_MONOTONIC on
// Linux, so --spawn-ns (taken by the runner just before it spawned this
// process) and the child's own stamps share one clock.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mclx.hpp"
#include "obs/json_writer.hpp"
#include "util/cli.hpp"

namespace {

using namespace mclx;
using obs::JsonWriter;

struct Workload {
  std::string_view name;
  std::string_view dataset;  ///< gen::make_dataset recipe
  double scale;
  bool original;  ///< HipMclConfig::original() on a CPU-only machine
  int nodes;
  int jobs;            ///< > 1: one svc::Scheduler batch of this many graphs
  int max_concurrent;  ///< scheduler runners (batch workloads only)
};

// Every job runs on one pool lane. A pool job with more than one lane can
// hit the ThreadPool::worker_loop null dereference (README.md, "Known
// crash"), which at four lanes kills most isom-dense and metaclust-sparse
// repetitions; single-lane jobs never dispatch to the workers.
constexpr int kPoolThreads = 1;

// README.md records why each workload exists. The batch runs four jobs
// at a time, one runner thread (and one lane) each.
constexpr Workload kWorkloads[] = {
    {"isom-dense", "isom-mini", 0.5, false, 16, 1, 1},
    {"metaclust-sparse", "metaclust-mini", 0.5, false, 16, 1, 1},
    {"original-cpu", "archaea-mini", 0.75, true, 16, 1, 1},
    {"svc-batch", "archaea-mini", 0.25, false, 4, 12, 4},
};

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown --workload: " + std::string(name));
}

sim::MachineConfig machine_for(const Workload& w) {
  return w.original ? sim::summit_like_cpu_only(w.nodes)
                    : sim::summit_like(w.nodes);
}

core::HipMclConfig config_for(const Workload& w) {
  core::HipMclConfig c = w.original ? core::HipMclConfig::original()
                                    : core::HipMclConfig::optimized();
  // Independent of MCLX_REORDER, so the probe replays the same iterations.
  c.ordering = order::OrderKind::kNone;
  return c;
}

std::string mtx_path(const std::string& dir, int job) {
  return dir + "/job" + std::to_string(job) + ".mtx";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct Span {
  std::string name, parent;
  std::int64_t start_ns = 0, end_ns = 0;
};

/// Spans recorded around calls into the library's public functions.
class Spans {
 public:
  void add(std::string name, std::string parent, std::int64_t start_ns,
           std::int64_t end_ns) {
    list_.push_back({std::move(name), std::move(parent), start_ns, end_ns});
  }

  /// Runs fn() inside a span and returns its duration in seconds.
  template <typename Fn>
  double time(std::string name, std::string parent, Fn&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    add(std::move(name), std::move(parent), t0, t1);
    return seconds(t1 - t0);
  }

  const std::vector<Span>& list() const { return list_; }

 private:
  std::vector<Span> list_;
};

using Metrics = std::map<std::string, double>;

struct JobResult {
  std::string state = "done";
  double run_s = 0;
  double wait_s = 0;
  std::vector<vidx_t> labels;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Layer probe: replays iteration `rep.iter` of a run through the
/// library's public calls, timing each one. The iteration's input is
/// rebuilt by a run stopped one iteration earlier; the replay must
/// reproduce the run's IterationReport bit for bit, which is what makes
/// its timings the run's and not some other computation's.
bool probe_iteration(const Workload& w, const dist::TriplesD& graph,
                     const core::MclParams& params,
                     const core::HipMclConfig& config,
                     const core::IterationReport& rep,
                     const std::string& suffix, Spans& spans, Metrics& out) {
  const std::string root = "probe" + suffix;
  const std::int64_t probe_t0 = now_ns();
  sim::SimState sim(machine_for(w));

  std::optional<dist::DistMat> input;
  spans.time("probe.rebuild", root, [&] {
    core::MclParams head = params;
    head.max_iters = rep.iter - 1;
    core::HipMclConfig c = config;
    c.keep_final_matrix = true;
    input = std::move(core::run_hipmcl(graph, head, c, sim).final_matrix);
  });
  const dist::DistMat& a = *input;

  dist::CscD ga;
  const double gather_s = spans.time("dist.gather", root, [&] {
    ga = a.to_csc();
  });
  std::uint64_t flops = 0;
  const double flops_s = spans.time("sparse.flops_count", root, [&] {
    flops = sparse::spgemm_flops(ga, ga);
  });
  estimate::CohenEstimate cohen;
  const double cohen_s = spans.time("estimate.cohen", root, [&] {
    cohen = estimate::cohen_nnz_estimate(
        ga, ga, config.cohen_keys,
        util::derive_seed(config.seed,
                          static_cast<std::uint64_t>(rep.iter - 1)));
  });
  std::uint64_t exact = 0;
  const double symbolic_s = spans.time("estimate.symbolic", root, [&] {
    exact = spgemm::symbolic_nnz(ga, ga);
  });
  const double est_nnz =
      config.estimator == core::EstimatorKind::kExactSymbolic
          ? static_cast<double>(exact)
          : cohen.total;
  const double cf = est_nnz > 0 ? static_cast<double>(flops) / est_nnz : 1.0;

  const dist::ProcGrid grid(sim.nranks());
  estimate::PhasePlanInput plan_in;
  plan_in.est_output_nnz = est_nnz;
  plan_in.ncols_global = a.ncols();
  plan_in.grid_dim = grid.dim();
  plan_in.mem_budget_per_rank = config.mem_budget_per_rank != 0
                                    ? config.mem_budget_per_rank
                                    : sim.machine().mem_per_rank;
  plan_in.guard_factor = config.guard_factor;
  const int phases = estimate::plan_phases(plan_in).phases;

  dist::SummaOptions opt;
  opt.pipelined = config.pipelined;
  opt.binary_merge = config.binary_merge;
  opt.kernel = config.kernel;
  opt.phases = phases;
  opt.cf_estimate = cf;
  double prune_s = 0;
  dist::SummaResult ex{dist::DistMat(a.nrows(), a.ncols(), grid), {}};
  const double summa_total_s = spans.time("dist.summa", root, [&] {
    ex = dist::summa_multiply(
        a, a, sim, opt, [&](int, std::vector<dist::CscD>& chunks) {
          prune_s += spans.time("core.prune", "dist.summa", [&] {
            core::prune_chunks(chunks, grid, params.prune, sim);
          });
        });
  });
  const std::uint64_t kept_nnz = ex.c.nnz();
  const double inflate_s = spans.time("core.inflate", root, [&] {
    core::distributed_inflate(ex.c, params.inflation, sim);
  });
  double chaos = 0;
  const double chaos_s = spans.time("core.chaos", root, [&] {
    chaos = core::distributed_chaos(ex.c, sim);
  });
  const double cc_s = spans.time("dist.cc", root, [&] {
    dist::connected_components(ex.c, sim);
  });

  // SUMMA's local work again, split into its two parts: DCSC -> CSC
  // decompression of every stage's operand blocks, and the local
  // multiply of every (A(i,k), B(k,j)) block pair, on per-rank
  // multipliers as summa_multiply builds them.
  double decompress_s = 0, local_s = 0;
  std::uint64_t local_flops = 0;
  int local_fallbacks = 0;
  const std::string local = root + ".local";
  spans.time(local, root, [&] {
    const sim::CostModel model(sim.machine());
    std::vector<spgemm::LocalMultiplier> mults;
    for (int r = 0; r < sim.nranks(); ++r) mults.emplace_back(model, opt.kernel);
    const auto dim = static_cast<std::size_t>(grid.dim());
    for (int phase = 0; phase < phases; ++phase) {
      for (int k = 0; k < grid.dim(); ++k) {
        std::vector<dist::CscD> a_csc(dim), b_chunk(dim);
        decompress_s += spans.time("sparse.decompress", local, [&] {
          for (std::size_t i = 0; i < dim; ++i) {
            a_csc[i] = sparse::csc_from_dcsc(a.block(static_cast<int>(i), k));
          }
          for (std::size_t j = 0; j < dim; ++j) {
            const dist::CscD full =
                sparse::csc_from_dcsc(a.block(k, static_cast<int>(j)));
            const auto [c0, c1] =
                dist::phase_col_range(full.ncols(), phase, phases);
            b_chunk[j] = sparse::csc_col_slice(full, c0, c1);
          }
        });
        local_s += spans.time("spgemm.local", local, [&] {
          for (std::size_t i = 0; i < dim; ++i) {
            for (std::size_t j = 0; j < dim; ++j) {
              const int r = grid.rank_of(static_cast<int>(i),
                                         static_cast<int>(j));
              const spgemm::LocalSpgemmResult lr =
                  mults[static_cast<std::size_t>(r)].multiply(a_csc[i],
                                                              b_chunk[j], cf);
              local_flops += lr.flops;
              if (lr.gpu_fallback) ++local_fallbacks;
            }
          }
        });
      }
    }
  });
  spans.add(root, "", probe_t0, now_ns());

  const double summa_s = summa_total_s - prune_s;
  const auto put = [&](const std::string& name, double v) {
    out[name + suffix] = v;
  };
  put("dist.gather_s", gather_s);
  put("dist.gather_bytes_computed", static_cast<double>(ga.bytes()));
  put("sparse.flops_count_s", flops_s);
  put("estimate.cohen_s", cohen_s);
  put("estimate.symbolic_s", symbolic_s);
  put("estimate.rel_error",
      exact > 0 ? std::abs(cohen.total - static_cast<double>(exact)) /
                      static_cast<double>(exact)
                : 0.0);
  put("dist.summa_s", summa_s);
  put("dist.summa_rest_s", summa_s - decompress_s - local_s);
  put("sparse.decompress_s", decompress_s);
  put("spgemm.local_s", local_s);
  put("spgemm.local_flops_per_s",
      local_s > 0 ? static_cast<double>(local_flops) / local_s : 0.0);
  put("core.prune_s", prune_s);
  put("prune.kept_ratio",
      ex.stats.unpruned_nnz > 0 ? static_cast<double>(kept_nnz) /
                                      static_cast<double>(ex.stats.unpruned_nnz)
                                : 0.0);
  put("core.inflate_s", inflate_s);
  put("core.chaos_s", chaos_s);
  put("dist.cc_s", cc_s);
  put("merge.peak_elements_max",
      static_cast<double>(ex.stats.merge_peak_elements_max));

  // The replayed SUMMA must match the run, and the replay of its local
  // work must match that SUMMA: the same flops on the same kernels, with
  // the same GPU fallbacks, or its timings are of other work.
  const bool match = flops == rep.flops &&
                     same_bits(est_nnz, rep.est_unpruned_nnz) &&
                     phases == rep.phases &&
                     kept_nnz == rep.nnz_after_prune &&
                     same_bits(chaos, rep.chaos) &&
                     ex.stats.gpu_fallbacks == rep.gpu_fallbacks &&
                     local_flops == ex.stats.total_flops &&
                     local_fallbacks == ex.stats.gpu_fallbacks;
  if (!match) {
    std::cerr << "mclx_e2e: probe" << suffix << " of iteration " << rep.iter
              << " does not reproduce the run (flops " << flops << " vs "
              << rep.flops << ", phases " << phases << " vs " << rep.phases
              << ", nnz " << kept_nnz << " vs " << rep.nnz_after_prune
              << ", local flops " << local_flops << " vs "
              << ex.stats.total_flops << ", gpu fallbacks " << local_fallbacks
              << " / " << ex.stats.gpu_fallbacks << " vs "
              << rep.gpu_fallbacks << ")\n";
  }
  return match;
}

/// The traced run of job 0: stage spans from the on_stage hook, counts
/// from an obs registry installed around the call, then the probe of the
/// first iteration and of the iteration with the most flops.
JobResult traced_job(const Workload& w, const dist::TriplesD& graph,
                     const core::MclParams& params, sim::SimState& sim,
                     Spans& spans, Metrics& out) {
  const core::HipMclConfig base = config_for(w);
  core::HipMclConfig config = base;
  std::vector<std::pair<obs::RunStage, std::int64_t>> marks;
  config.on_stage = [&marks](obs::RunStage s) {
    marks.emplace_back(s, now_ns());
  };
  obs::MetricsRegistry registry;
  core::MclResult result;
  const std::int64_t t0 = now_ns();
  {
    obs::ScopedMetrics scope(registry);
    result = core::run_hipmcl(graph, params, config, sim);
  }
  const std::int64_t t1 = now_ns();
  spans.add("run_hipmcl", "", t0, t1);

  std::map<std::string, double> stage_s = {
      {"init", 0},    {"estimate", 0}, {"expand", 0},
      {"inflate", 0}, {"converge", 0}, {"interpret", 0}};
  const std::int64_t first = marks.empty() ? t1 : marks.front().second;
  spans.add("core.stage.init", "run_hipmcl", t0, first);
  stage_s["init"] = seconds(first - t0);
  for (std::size_t i = 0; i < marks.size(); ++i) {
    const std::string stage(obs::to_string(marks[i].first));
    const std::int64_t end = i + 1 < marks.size() ? marks[i + 1].second : t1;
    spans.add("core.stage." + stage, "run_hipmcl", marks[i].second, end);
    stage_s[stage] += seconds(end - marks[i].second);
  }
  double attributed = 0;
  for (const auto& [stage, s] : stage_s) {
    out["core.stage." + stage + "_s"] = s;
    if (stage != "init") attributed += s;
  }
  out["core.stage.coverage"] = attributed / seconds(t1 - t0);

  // The kinds one-lane, unreordered runs can select.
  for (const spgemm::KernelKind k :
       {spgemm::KernelKind::kCpuHeap, spgemm::KernelKind::kCpuHash,
        spgemm::KernelKind::kGpuNsparse, spgemm::KernelKind::kGpuRmerge2}) {
    const std::string name =
        "spgemm.kernel." + std::string(spgemm::kernel_name(k));
    out[name] = static_cast<double>(registry.counter(name));
  }
  out["spgemm.gpu_fallbacks"] =
      static_cast<double>(registry.counter("spgemm.gpu_fallbacks"));

  std::uint64_t flops = 0;
  double cf_sum = 0;
  int phases_max = 0;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < result.iters.size(); ++i) {
    const core::IterationReport& it = result.iters[i];
    flops += it.flops;
    cf_sum += it.cf;
    phases_max = std::max(phases_max, it.phases);
    if (it.flops > result.iters[peak].flops) peak = i;
  }
  out["mcl.iterations"] = result.iterations;
  out["mcl.flops"] = static_cast<double>(flops);
  out["mcl.cf"] = result.iters.empty()
                      ? 0.0
                      : cf_sum / static_cast<double>(result.iters.size());
  out["mcl.phases_max"] = phases_max;

  bool match = !result.iters.empty();
  if (match) {
    match = probe_iteration(w, graph, params, base, result.iters.front(),
                            ".first", spans, out);
    match = probe_iteration(w, graph, params, base, result.iters[peak],
                            ".peak", spans, out) &&
            match;
  }
  out["probe.match"] = match ? 1.0 : 0.0;

  JobResult job;
  job.run_s = seconds(t1 - t0);
  job.labels = std::move(result.labels);
  return job;
}

/// All jobs of a batch workload through one svc::Scheduler, submitted
/// together; returns when every job is terminal.
std::vector<JobResult> run_batch(const Workload& w,
                                 const std::vector<dist::TriplesD>& graphs,
                                 const core::MclParams& params,
                                 svc::Scheduler& scheduler) {
  for (std::size_t j = 0; j < graphs.size(); ++j) {
    svc::JobSpec spec;
    spec.id = "job" + std::to_string(j);
    spec.graph = graphs[j];
    spec.nodes = w.nodes;
    spec.cpu_only_machine = w.original;
    spec.params = params;
    spec.config = config_for(w);
    scheduler.submit(std::move(spec));
  }
  std::vector<JobResult> jobs;
  for (svc::JobOutcome& o : scheduler.drain()) {
    JobResult job;
    job.state = std::string(svc::to_string(o.state));
    job.run_s = o.run_s;
    job.wait_s = o.wait_s;
    job.labels = std::move(o.labels);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int gen_main(const Workload& w, std::uint64_t seed, const std::string& dir) {
  JsonWriter json(std::cout);
  json.begin_object();
  json.begin_array("jobs");
  for (int j = 0; j < w.jobs; ++j) {
    const gen::Dataset d = gen::make_dataset(
        std::string(w.dataset), w.scale, seed + static_cast<std::uint64_t>(j));
    io::write_matrix_market_file(mtx_path(dir, j), d.graph.edges, d.name);
    json.begin_object(JsonWriter::Style::kCompact);
    json.begin_array("truth");
    for (const vidx_t l : d.graph.labels) json.value(l);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return 0;
}

int child_main(const Workload& w, std::string_view mode,
               const std::string& dir, std::int64_t spawn_ns) {
  if (mode != "op" && mode != "job" && mode != "traced") {
    throw std::invalid_argument("unknown --child mode: " + std::string(mode));
  }
  const core::MclParams params;
  const bool batch = w.jobs > 1;
  Spans spans;
  Metrics metrics;

  // --- set-up: everything a user pays before clustering starts --------
  par::set_threads(kPoolThreads);
  std::vector<dist::TriplesD> graphs;
  std::uint64_t entries = 0;
  const int inputs = mode == "job" ? 1 : w.jobs;
  const double read_s = spans.time("io.mm_read", "setup", [&] {
    for (int j = 0; j < inputs; ++j) {
      graphs.push_back(io::read_matrix_market_file(mtx_path(dir, j)));
      entries += graphs.back().nnz();
    }
  });
  sim::SimState sim(machine_for(w));
  std::optional<svc::Scheduler> scheduler;
  if (batch && mode != "job") {
    svc::SchedulerOptions options;
    options.max_concurrent = w.max_concurrent;
    options.pool_lanes = w.max_concurrent * kPoolThreads;
    scheduler.emplace(options);
  }
  const std::int64_t ready_ns = now_ns();
  spans.add("setup", "", spawn_ns, ready_ns);

  std::vector<JobResult> jobs;
  double wall_s = 0;
  if (mode == "op" && batch) {
    const std::int64_t t0 = now_ns();
    jobs = run_batch(w, graphs, params, *scheduler);
    wall_s = seconds(now_ns() - t0);
  } else if (mode == "traced") {
    double wait_p50 = 0;
    int lanes = par::threads();
    if (batch) {
      std::vector<double> waits;
      for (const JobResult& j : run_batch(w, graphs, params, *scheduler)) {
        waits.push_back(j.wait_s);
      }
      wait_p50 = median(waits);
      lanes = scheduler->lane_share();
      scheduler.reset();
    }
    metrics["svc.wait_s.p50"] = wait_p50;
    metrics["svc.lanes"] = lanes;
    metrics["io.mm_read_s"] = read_s;
    metrics["io.mm_entries_per_s"] = static_cast<double>(entries) / read_s;
    jobs.push_back(traced_job(w, graphs.front(), params, sim, spans, metrics));
    wall_s = jobs.back().run_s;
  } else {
    const std::int64_t t0 = now_ns();
    core::MclResult r =
        core::run_hipmcl(graphs.front(), params, config_for(w), sim);
    wall_s = seconds(now_ns() - t0);
    JobResult job;
    job.run_s = wall_s;
    job.labels = std::move(r.labels);
    jobs.push_back(std::move(job));
  }

  JsonWriter json(std::cout);
  json.begin_object();
  json.field("setup_s", seconds(ready_ns - spawn_ns));
  json.field("wall_s", wall_s);
  json.begin_array("jobs");
  for (const JobResult& j : jobs) {
    json.begin_object(JsonWriter::Style::kCompact);
    json.field("state", j.state);
    json.field("run_s", j.run_s);
    json.field("wait_s", j.wait_s);
    json.begin_array("labels");
    for (const vidx_t l : j.labels) json.value(l);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.begin_object("metrics");
  for (const auto& [name, v] : metrics) json.field(name, v);
  json.end_object();
  json.begin_array("spans");
  for (const Span& s : spans.list()) {
    json.begin_object(JsonWriter::Style::kCompact);
    json.field("name", s.name);
    json.field("parent", s.parent);
    json.field("start_ns", static_cast<std::int64_t>(s.start_ns));
    json.field("end_ns", static_cast<std::int64_t>(s.end_ns));
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const bool gen = cli.get_bool("gen", false, "write the inputs for --seed");
  const std::string child =
      cli.get("child", "", "run one repetition: op | job | traced");
  const std::string workload = cli.get("workload", "", "workload name");
  const std::string dir = cli.get("dir", "", "input directory");
  const auto seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1, "input seed (--gen)"));
  const std::int64_t spawn_ns = cli.get_int(
      "spawn-ns", 0, "steady-clock ns at which the runner spawned this child");
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  cli.finish();
  if (dir.empty()) throw std::invalid_argument("--dir is required");
  const Workload& w = find_workload(workload);
  if (gen) return gen_main(w, seed, dir);
  if (child.empty()) throw std::invalid_argument("pass --gen or --child");
  return child_main(w, child, dir, spawn_ns);
} catch (const std::exception& e) {
  std::cerr << "mclx_e2e: " << e.what() << "\n";
  return 1;
}
