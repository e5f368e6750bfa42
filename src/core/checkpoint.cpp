#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "util/log.hpp"

namespace mclx::core {

namespace {

// v1 is the matrix alone. v2 files, from when runs could be reordered,
// append a vertex permutation after the entries. Their matrix is stored
// in the input's vertex ids like v1's, so the permutation is checked and
// discarded. v3 is v1's header and entries, a converged byte, then an
// FNV-1a 64 checksum of every byte before it. v4 puts the last
// iteration's chaos (a double) between the converged byte and the
// checksum.
constexpr char kMagicV1[8] = {'M', 'C', 'L', 'X', 'C', 'K', 'P', '1'};
constexpr char kMagicV2[8] = {'M', 'C', 'L', 'X', 'C', 'K', 'P', '2'};
constexpr char kMagicV3[8] = {'M', 'C', 'L', 'X', 'C', 'K', 'P', '3'};
constexpr char kMagicV4[8] = {'M', 'C', 'L', 'X', 'C', 'K', 'P', '4'};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
void put(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Reads a fixed-size field off the front of `rest`.
template <typename T>
T take(std::string_view& rest) {
  if (rest.size() < sizeof(T)) fail("truncated file");
  T value{};
  std::memcpy(&value, rest.data(), sizeof(T));
  rest.remove_prefix(sizeof(T));
  return value;
}

}  // namespace

void save_checkpoint(const std::string& path, const Checkpoint& cp) {
  std::string bytes(kMagicV4, 8);
  put(bytes, static_cast<std::int64_t>(cp.completed_iterations));
  put(bytes, cp.matrix.nrows());
  put(bytes, cp.matrix.ncols());
  put(bytes, static_cast<std::uint64_t>(cp.matrix.nnz()));
  for (const auto& e : cp.matrix) {
    put(bytes, e.row);
    put(bytes, e.col);
    put(bytes, e.val);
  }
  put(bytes, static_cast<std::uint8_t>(cp.converged));
  put(bytes, cp.prev_chaos);
  put(bytes, fnv1a64(bytes));
  // Write to a temp file then rename: a kill mid-write must not destroy
  // the previous checkpoint.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) fail("cannot open for write: " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) fail("write failed: " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;  // absent: fresh start
  const std::string file{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  std::string_view bytes = file;
  if (bytes.size() < 8) fail("bad magic in " + path);
  const bool v2 = std::memcmp(bytes.data(), kMagicV2, 8) == 0;
  const bool v4 = std::memcmp(bytes.data(), kMagicV4, 8) == 0;
  // v3 and v4 end in the converged byte, v4's last chaos and a checksum.
  const bool checked = v4 || std::memcmp(bytes.data(), kMagicV3, 8) == 0;
  if (!v2 && !checked && std::memcmp(bytes.data(), kMagicV1, 8) != 0)
    fail("bad magic in " + path);
  if (checked) {
    if (bytes.size() < 16) fail("truncated file");
    std::string_view tail = bytes.substr(bytes.size() - 8);
    bytes.remove_suffix(8);
    if (fnv1a64(bytes) != take<std::uint64_t>(tail))
      fail("checksum mismatch in " + path);
  }
  std::string_view rest = bytes.substr(8);
  const auto completed = take<std::int64_t>(rest);
  const auto nrows = take<vidx_t>(rest);
  const auto ncols = take<vidx_t>(rest);
  const auto nnz = take<std::uint64_t>(rest);
  if (nrows < 0 || ncols < 0 || completed < 0 ||
      completed > std::numeric_limits<int>::max())
    fail("corrupt header in " + path);
  // A count past what the file can hold fails before anything is
  // reserved for it.
  if (nnz > rest.size() / (2 * sizeof(vidx_t) + sizeof(val_t)))
    fail("truncated file");
  Checkpoint cp;
  cp.completed_iterations = static_cast<int>(completed);
  cp.matrix = sparse::Triples<vidx_t, val_t>(nrows, ncols);
  cp.matrix.reserve(static_cast<std::size_t>(nnz));
  for (std::uint64_t e = 0; e < nnz; ++e) {
    const auto row = take<vidx_t>(rest);
    const auto col = take<vidx_t>(rest);
    const auto val = take<val_t>(rest);
    if (row < 0 || row >= nrows || col < 0 || col >= ncols)
      fail("entry out of bounds in " + path);
    cp.matrix.push_unchecked(row, col, val);
  }
  if (v2) {
    const auto perm_size = take<std::uint64_t>(rest);
    if (perm_size != 0 && perm_size != static_cast<std::uint64_t>(nrows))
      fail("corrupt permutation in " + path);
    for (std::uint64_t v = 0; v < perm_size; ++v) {
      const auto p = take<vidx_t>(rest);
      if (p < 0 || p >= nrows) fail("permutation entry out of range in " + path);
    }
  }
  if (checked) {
    const auto converged = take<std::uint8_t>(rest);
    if (converged > 1) fail("corrupt converged flag in " + path);
    cp.converged = converged == 1;
  }
  if (v4) {
    cp.prev_chaos = take<double>(rest);
    if (!(cp.prev_chaos >= 0)) fail("corrupt last chaos in " + path);
  }
  if (!rest.empty()) fail("trailing bytes in " + path);
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
  bool converged = false;
  double prev_chaos = std::numeric_limits<double>::infinity();
  if (auto cp = load_checkpoint(path)) {
    current = std::move(cp->matrix);
    done = cp->completed_iterations;
    converged = cp->converged;
    prev_chaos = cp->prev_chaos;
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
  // chunk boundaries (docs/SERVICE.md "Resume semantics"). The last
  // chaos carries over too, so the stall rule stops at the same
  // iteration.
  bool stochastic = resumed;

  // The first chunk always runs. When the checkpoint holds a converged
  // run, or already params.max_iters iterations, it runs none and goes
  // straight to interpreting the stored matrix, so a rerun returns its
  // clusters and leaves the file as it is.
  do {
    chunk_params.max_iters =
        converged ? 0 : std::clamp(params.max_iters - done, 0, every);
    chunk_config.start_iteration = done;
    chunk_config.prev_chaos = prev_chaos;
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
    converged = converged || chunk.converged;
    total.converged = converged;
    total.cancelled = chunk.cancelled;

    if (chunk.iterations > 0) {
      prev_chaos = chunk.iters.back().chaos;
      current = chunk.final_matrix->to_triples();
      save_checkpoint(path, {current, done, converged, prev_chaos});
    }
    if (config.keep_final_matrix) {
      total.final_matrix = std::move(chunk.final_matrix);
    }
    if (converged || chunk.cancelled) break;
    // Subsequent chunks continue from a stochastic matrix.
    chunk_params.add_self_loops = false;
    stochastic = true;
  } while (done < params.max_iters);
  return total;
}

}  // namespace mclx::core
