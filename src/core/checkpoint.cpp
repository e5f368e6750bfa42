#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "util/log.hpp"

namespace mclx::core {

namespace {

// v1 is the matrix alone. v2 files, from when runs could be reordered,
// append a vertex permutation after the entries. Their matrix is stored
// in the input's vertex ids like v1's, so the permutation is checked and
// discarded.
constexpr char kMagicV1[8] = {'M', 'C', 'L', 'X', 'C', 'K', 'P', '1'};
constexpr char kMagicV2[8] = {'M', 'C', 'L', 'X', 'C', 'K', 'P', '2'};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

/// Most elements reserved up front on the header's word alone: a
/// truncated or hostile file must fail as "truncated file", not as an
/// allocation of whatever count its header claims.
std::size_t trusted_reserve(std::uint64_t claimed) {
  return static_cast<std::size_t>(
      std::min(claimed, std::uint64_t{1} << 20));
}

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) fail("truncated file");
  return value;
}

}  // namespace

void save_checkpoint(const std::string& path, const Checkpoint& cp) {
  // Write to a temp file then rename: a kill mid-write must not destroy
  // the previous checkpoint.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) fail("cannot open for write: " + tmp);
    out.write(kMagicV1, 8);
    write_pod(out, static_cast<std::int64_t>(cp.completed_iterations));
    write_pod(out, cp.matrix.nrows());
    write_pod(out, cp.matrix.ncols());
    write_pod(out, static_cast<std::uint64_t>(cp.matrix.nnz()));
    for (const auto& e : cp.matrix) {
      write_pod(out, e.row);
      write_pod(out, e.col);
      write_pod(out, e.val);
    }
    if (!out) fail("write failed: " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;  // absent: fresh start
  char magic[8];
  in.read(magic, 8);
  if (!in) fail("bad magic in " + path);
  const bool v2 = std::memcmp(magic, kMagicV2, 8) == 0;
  if (!v2 && std::memcmp(magic, kMagicV1, 8) != 0)
    fail("bad magic in " + path);
  const auto completed = read_pod<std::int64_t>(in);
  const auto nrows = read_pod<vidx_t>(in);
  const auto ncols = read_pod<vidx_t>(in);
  const auto nnz = read_pod<std::uint64_t>(in);
  if (nrows < 0 || ncols < 0 || completed < 0 ||
      completed > std::numeric_limits<int>::max())
    fail("corrupt header in " + path);
  Checkpoint cp;
  cp.completed_iterations = static_cast<int>(completed);
  cp.matrix = sparse::Triples<vidx_t, val_t>(nrows, ncols);
  cp.matrix.reserve(trusted_reserve(nnz));
  for (std::uint64_t e = 0; e < nnz; ++e) {
    const auto row = read_pod<vidx_t>(in);
    const auto col = read_pod<vidx_t>(in);
    const auto val = read_pod<val_t>(in);
    if (row < 0 || row >= nrows || col < 0 || col >= ncols)
      fail("entry out of bounds in " + path);
    cp.matrix.push_unchecked(row, col, val);
  }
  if (v2) {
    const auto perm_size = read_pod<std::uint64_t>(in);
    if (perm_size != 0 && perm_size != static_cast<std::uint64_t>(nrows))
      fail("corrupt permutation in " + path);
    for (std::uint64_t v = 0; v < perm_size; ++v) {
      const auto p = read_pod<vidx_t>(in);
      if (p < 0 || p >= nrows) fail("permutation entry out of range in " + path);
    }
  }
  return cp;
}

MclResult run_hipmcl_checkpointed(const dist::TriplesD& graph,
                                  const MclParams& params,
                                  const HipMclConfig& config,
                                  sim::SimState& sim,
                                  const std::string& path, int every) {
  if (every <= 0)
    throw std::invalid_argument("run_hipmcl_checkpointed: every <= 0");

  // Resume state, or the raw input for a fresh start.
  dist::TriplesD current = graph;
  int done = 0;
  bool resumed = false;
  if (auto cp = load_checkpoint(path)) {
    current = std::move(cp->matrix);
    done = cp->completed_iterations;
    resumed = true;
    util::log_info("checkpoint: resuming after ", done, " iterations");
  }

  MclResult total;
  HipMclConfig chunk_config = config;  // hooks (should_stop, ...) propagate
  chunk_config.keep_final_matrix = true;
  MclParams chunk_params = params;
  // A resumed matrix is already stochastic with loops; the initializer
  // must not add a second set of self loops.
  chunk_params.add_self_loops = params.add_self_loops && !resumed;
  // Bitwise continuation: a resumed (or continuing) chunk starts from a
  // column-stochastic matrix and must not renormalize it, and its
  // estimator seeds must derive from the global iteration index — with
  // both in place a chunked/cancelled/resumed run executes the exact
  // floating-point trajectory of the uninterrupted run, whatever the
  // chunk boundaries (docs/SERVICE.md "Resume semantics").
  bool stochastic = resumed;

  // The first chunk always runs. When the checkpoint already holds
  // params.max_iters iterations it runs none and goes straight to
  // interpreting the stored matrix, so a rerun returns its clusters.
  do {
    chunk_params.max_iters = std::clamp(params.max_iters - done, 0, every);
    chunk_config.start_iteration = done;
    chunk_config.assume_stochastic = stochastic;
    MclResult chunk =
        run_hipmcl(current, chunk_params, chunk_config, sim);

    done += chunk.iterations;
    total.iterations += chunk.iterations;
    for (std::size_t s = 0; s < sim::kNumStages; ++s) {
      total.stage_times[s] += chunk.stage_times[s];
    }
    total.elapsed += chunk.elapsed;
    total.mean_cpu_idle += chunk.mean_cpu_idle;
    total.mean_gpu_idle += chunk.mean_gpu_idle;
    for (auto& it : chunk.iters) {
      total.iters.push_back(it);  // it.iter already carries the global index
    }
    total.labels = std::move(chunk.labels);
    total.num_clusters = chunk.num_clusters;
    total.converged = chunk.converged;
    total.cancelled = chunk.cancelled;

    current = chunk.final_matrix->to_triples();
    save_checkpoint(path, {current, done});
    if (config.keep_final_matrix) {
      total.final_matrix = std::move(chunk.final_matrix);
    }
    if (chunk.converged || chunk.cancelled) break;
    // Subsequent chunks continue from a stochastic matrix.
    chunk_params.add_self_loops = false;
    stochastic = true;
  } while (done < params.max_iters);
  return total;
}

}  // namespace mclx::core
