// Checkpoint / restart for long MCL runs. Clustering the paper's largest
// networks takes hours even optimized; a production run wants to survive
// a node failure or a queue-limit kill. The checkpoint captures exactly
// what the next iteration needs: the current column-stochastic matrix, the
// iteration counter and the last iteration's chaos, which the stall rule
// compares the next one with (MCL is a Markov iteration — no other state).
#pragma once

#include <limits>
#include <optional>
#include <string>

#include "core/hipmcl.hpp"
#include "sparse/triples.hpp"
#include "util/types.hpp"

namespace mclx::core {

struct Checkpoint {
  sparse::Triples<vidx_t, val_t> matrix;  ///< current A (stochastic)
  int completed_iterations = 0;
  /// The run met its convergence test: a rerun has nothing left to do.
  bool converged = false;
  /// The last completed iteration's chaos (+∞ before the first).
  double prev_chaos = std::numeric_limits<double>::infinity();
};

/// Write a checkpoint (binary, magic-tagged v4 layout: header, entries,
/// the converged flag, the last chaos and a checksum of everything before
/// it).
void save_checkpoint(const std::string& path, const Checkpoint& cp);

/// Load, or nullopt when the file does not exist. Corrupt files throw a
/// std::runtime_error that names the fault. Also reads v1 files (header
/// and entries), v2 files (v1 followed by a vertex permutation, which is
/// checked and discarded), both as not converged, and v3 files (v4 without
/// the last chaos); all three with +∞ as the last chaos.
std::optional<Checkpoint> load_checkpoint(const std::string& path);

/// run_hipmcl with checkpointing: writes `path` every `every` iterations
/// and, when `path` already holds a checkpoint, resumes from it instead
/// of starting over. The returned result counts only the iterations this
/// call executed (their IterationReport::iter fields carry the *global*
/// index); `completed_iterations` in the file accumulates.
///
/// Resume is bitwise: chunks skip renormalization of the already-
/// stochastic matrix, derive estimator seeds from the global iteration
/// index and carry the last chaos into the stall rule, so a
/// cancelled-then-resumed run reproduces the uninterrupted run's
/// floating-point trajectory and stopping iteration exactly — clusters,
/// nnz counts and chaos values are bit-identical at any chunk boundary
/// and any thread count (tests/test_svc.cpp pins this).
///
/// config.should_stop cancels at the next iteration boundary; the
/// checkpoint written then lets a later call (same path) resume. A file
/// of a converged run, or one that already holds params.max_iters
/// iterations, runs none, returns its matrix's clusters and is left
/// unchanged.
MclResult run_hipmcl_checkpointed(const dist::TriplesD& graph,
                                  const MclParams& params,
                                  const HipMclConfig& config,
                                  sim::SimState& sim,
                                  const std::string& path, int every = 5);

}  // namespace mclx::core
