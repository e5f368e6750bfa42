// Checkpoint / restart: format round trip, the v4 layout the writer
// emits and the v1, v2 and v3 layouts the loader still reads, named errors
// for corrupt, truncated or bit-flipped files, crash-safe rename, bitwise
// chunked execution at any thread count, interrupted-run resume, the
// stall rule's stop across chunks and resumes, and reruns of finished and
// converged checkpoints, directly and through the scheduler.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "gen/planted.hpp"
#include "sim/machine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "svc/scheduler.hpp"
#include "util/parallel.hpp"

namespace {

using namespace mclx;

std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// A file name of the running test's own, so that tests ctest runs as
/// concurrent processes never share one.
std::string own_temp_path(const std::string& stem) {
  return temp_path(
      stem + "_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin");
}

gen::PlantedGraph test_graph(std::uint64_t seed) {
  gen::PlantedParams gp;
  gp.n = 200;
  gp.seed = seed;
  return gen::planted_partition(gp);
}

core::MclParams test_params() {
  core::MclParams p;
  p.prune.select_k = 25;
  return p;
}

template <typename V>
void put(std::string& out, V value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(V));
}

/// The v1 layout by hand: magic, completed count, nrows, ncols, nnz, then
/// (row, col, val) per entry.
std::string v1_bytes(const dist::TriplesD& m, std::int64_t done) {
  std::string out = "MCLXCKP1";
  put(out, done);
  put(out, m.nrows());
  put(out, m.ncols());
  put(out, static_cast<std::uint64_t>(m.nnz()));
  for (const auto& e : m) {
    put(out, e.row);
    put(out, e.col);
    put(out, e.val);
  }
  return out;
}

/// The v2 layout by hand: v1's fields, then a permutation's size and its
/// entries.
std::string v2_bytes(const dist::TriplesD& m, std::int64_t done,
                     const std::vector<vidx_t>& perm) {
  std::string out = v1_bytes(m, done);
  out[7] = '2';
  put(out, static_cast<std::uint64_t>(perm.size()));
  for (const vidx_t v : perm) put(out, v);
  return out;
}

/// FNV-1a 64 over `bytes`.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The v3 layout by hand: v1's fields, the converged byte, then the
/// checksum of every byte before it.
std::string v3_bytes(const dist::TriplesD& m, std::int64_t done,
                     bool converged) {
  std::string out = v1_bytes(m, done);
  out[7] = '3';
  put(out, static_cast<std::uint8_t>(converged));
  put(out, fnv1a64(out));
  return out;
}

/// The v4 layout by hand: v3's fields up to the converged byte, the last
/// chaos, then the checksum of every byte before it.
std::string v4_bytes(const dist::TriplesD& m, std::int64_t done,
                     bool converged, double prev_chaos) {
  std::string out = v1_bytes(m, done);
  out[7] = '4';
  put(out, static_cast<std::uint8_t>(converged));
  put(out, prev_chaos);
  put(out, fnv1a64(out));
  return out;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<vidx_t> reversed_ids(vidx_t n) {
  std::vector<vidx_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.rbegin(), perm.rend(), vidx_t{0});
  return perm;
}

/// `got` ran the iterations of `want` from index `skip` on: the same
/// global indices, chaos bits and nnz counts.
void expect_same_trajectory(const core::MclResult& got,
                            const core::MclResult& want, std::size_t skip) {
  ASSERT_EQ(got.iters.size() + skip, want.iters.size());
  for (std::size_t i = 0; i < got.iters.size(); ++i) {
    const auto& x = got.iters[i];
    const auto& y = want.iters[i + skip];
    EXPECT_EQ(x.iter, y.iter);
    EXPECT_EQ(std::memcmp(&x.chaos, &y.chaos, sizeof(double)), 0)
        << "iteration " << y.iter;
    EXPECT_EQ(x.nnz_before, y.nnz_before) << "iteration " << y.iter;
    EXPECT_EQ(x.nnz_after_prune, y.nnz_after_prune) << "iteration " << y.iter;
  }
}

struct PoolGuard {
  ~PoolGuard() { par::set_threads(0); }
};

/// Loads `bytes` from a file and expects a runtime_error naming `error`.
void expect_load_error(const std::string& bytes, const std::string& error,
                       const std::string& what) {
  const std::string path = own_temp_path("ckp_load_error");
  write_file(path, bytes);
  try {
    core::load_checkpoint(path);
    ADD_FAILURE() << what << ": loaded without error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(error), std::string::npos)
        << what << ": " << e.what();
  }
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  const auto g = test_graph(101);
  const std::string path = temp_path("ckp_roundtrip.bin");
  for (const bool converged : {false, true}) {
    for (const double chaos : {0.0, 0.1875, kInf}) {
      core::Checkpoint cp{g.edges, 7, converged, chaos};
      core::save_checkpoint(path, cp);
      EXPECT_EQ(read_file(path), v4_bytes(g.edges, 7, converged, chaos));
      const auto back = core::load_checkpoint(path);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(back->completed_iterations, 7);
      EXPECT_EQ(back->matrix, g.edges);
      EXPECT_EQ(back->converged, converged);
      EXPECT_EQ(std::memcmp(&back->prev_chaos, &chaos, sizeof(double)), 0);
    }
  }
}

TEST(Checkpoint, V3FilesStillLoadWithAnInfiniteLastChaos) {
  const auto g = test_graph(108);
  const std::string path = temp_path("ckp_v3_legacy.bin");
  for (const bool converged : {false, true}) {
    write_file(path, v3_bytes(g.edges, 6, converged));
    const auto back = core::load_checkpoint(path);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->completed_iterations, 6);
    EXPECT_EQ(back->matrix, g.edges);
    EXPECT_EQ(back->converged, converged);
    EXPECT_EQ(back->prev_chaos, kInf);
  }
}

TEST(Checkpoint, V1FilesStillLoadAsNotConverged) {
  const auto g = test_graph(106);
  const std::string path = temp_path("ckp_v1_legacy.bin");
  write_file(path, v1_bytes(g.edges, 5));
  const auto back = core::load_checkpoint(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->completed_iterations, 5);
  EXPECT_EQ(back->matrix, g.edges);
  EXPECT_FALSE(back->converged);
  EXPECT_EQ(back->prev_chaos, kInf);
}

/// Every single-bit flip of `good` fails to load with a named error.
void expect_every_bit_flip_named(const std::string& good) {
  const std::string path = own_temp_path("ckp_bit_flip");
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      write_file(path, bad);
      try {
        core::load_checkpoint(path);
        ADD_FAILURE() << "byte " << byte << " bit " << bit
                      << ": loaded without error";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()).rfind("checkpoint: ", 0), 0u)
            << "byte " << byte << " bit " << bit << ": " << e.what();
      }
    }
  }
}

TEST(Checkpoint, EveryBitFlipOfAV3FileIsANamedError) {
  // A flip in the magic can turn the file into a v1 or v2 one, whose
  // parse then meets the v3 tail; anywhere else the checksum disagrees.
  dist::TriplesD m(3, 3);
  m.push_unchecked(0, 1, 0.25);
  m.push_unchecked(2, 2, 0.75);
  expect_every_bit_flip_named(v3_bytes(m, 4, true));
}

TEST(Checkpoint, EveryBitFlipOfAV4FileIsANamedError) {
  dist::TriplesD m(3, 3);
  m.push_unchecked(0, 1, 0.25);
  m.push_unchecked(2, 2, 0.75);
  expect_every_bit_flip_named(v4_bytes(m, 4, false, 0.375));
}

TEST(Checkpoint, V3TailFaultsAreNamed) {
  dist::TriplesD m(3, 3);
  m.push_unchecked(1, 1, 0.5);
  const std::string good = v3_bytes(m, 2, false);
  // A flag other than 0 or 1 under a matching checksum.
  std::string flag = good.substr(0, good.size() - 9);
  put(flag, std::uint8_t{2});
  put(flag, fnv1a64(flag));
  const std::pair<std::string, const char*> cases[] = {
      {flag, "corrupt converged flag"},
      {good.substr(0, good.size() - 1), "checksum mismatch"},
      {good.substr(0, 12), "truncated file"},
      {v1_bytes(m, 2) + "x", "trailing bytes"},
  };
  for (const auto& [bytes, error] : cases) {
    expect_load_error(bytes, error, error);
  }
}

TEST(Checkpoint, V4TailFaultsAreNamed) {
  dist::TriplesD m(3, 3);
  m.push_unchecked(1, 1, 0.5);
  const std::string good = v4_bytes(m, 2, false, 0.5);
  const std::string head = good.substr(0, good.size() - 17);
  // A chaos no run produces, or a flag other than 0 or 1, under a
  // matching checksum.
  const auto with_tail = [&](std::uint8_t flag, double chaos) {
    std::string out = head;
    put(out, flag);
    put(out, chaos);
    put(out, fnv1a64(out));
    return out;
  };
  const std::pair<std::string, const char*> cases[] = {
      {with_tail(0, std::numeric_limits<double>::quiet_NaN()),
       "corrupt last chaos"},
      {with_tail(0, -1.0), "corrupt last chaos"},
      {with_tail(0, -kInf), "corrupt last chaos"},
      {with_tail(3, 0.5), "corrupt converged flag"},
      {good.substr(0, good.size() - 1), "checksum mismatch"},
      {v3_bytes(m, 2, false).replace(7, 1, "4"), "checksum mismatch"},
  };
  for (const auto& [bytes, error] : cases) {
    expect_load_error(bytes, error, error);
  }
  // Without the last chaos but checksummed: the parse runs out of bytes.
  std::string short_tail = head;
  put(short_tail, std::uint8_t{0});
  put(short_tail, fnv1a64(short_tail));
  expect_load_error(short_tail, "truncated file", "v4 without its chaos");
}

TEST(Checkpoint, V2FilesStillLoad) {
  const auto g = test_graph(107);
  const std::string path = temp_path("ckp_v2_legacy.bin");
  for (const auto& perm :
       {std::vector<vidx_t>{}, reversed_ids(g.edges.nrows())}) {
    write_file(path, v2_bytes(g.edges, 3, perm));
    const auto back = core::load_checkpoint(path);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->completed_iterations, 3);
    EXPECT_EQ(back->matrix, g.edges);
    EXPECT_FALSE(back->converged);
  }
}

TEST(Checkpoint, CorruptV2PermutationThrows) {
  const auto g = test_graph(108);
  const vidx_t n = g.edges.nrows();
  std::vector<vidx_t> out_of_range = reversed_ids(n);
  out_of_range[0] = n;
  const std::pair<std::vector<vidx_t>, const char*> cases[] = {
      {{0, 1, 2, 3, 4, 5, 6}, "corrupt permutation"},  // size neither 0 nor n
      {out_of_range, "permutation entry out of range"},
  };
  const std::string path = temp_path("ckp_v2_corrupt.bin");
  for (const auto& [perm, error] : cases) {
    write_file(path, v2_bytes(g.edges, 1, perm));
    try {
      core::load_checkpoint(path);
      ADD_FAILURE() << error << ": loaded without error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(error), std::string::npos)
          << e.what();
    }
  }
}

TEST(Checkpoint, LargestIterationCountLoads) {
  const auto g = test_graph(110);
  const std::string path = temp_path("ckp_int_max.bin");
  constexpr int kMax = std::numeric_limits<int>::max();
  write_file(path, v1_bytes(g.edges, kMax));
  const auto back = core::load_checkpoint(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->completed_iterations, kMax);
  EXPECT_EQ(back->matrix, g.edges);
}

TEST(Checkpoint, CorruptHeaderFieldsThrow) {
  const dist::TriplesD m(3, 3);
  // nrows follows the 8-byte magic and the 8-byte count; ncols follows it.
  constexpr std::size_t kRowsAt = 16;
  std::string negative_rows = v1_bytes(m, 1);
  const vidx_t minus_one = -1;
  std::memcpy(&negative_rows[kRowsAt], &minus_one, sizeof(vidx_t));
  std::string negative_cols = v1_bytes(m, 1);
  std::memcpy(&negative_cols[kRowsAt + sizeof(vidx_t)], &minus_one,
              sizeof(vidx_t));
  const std::pair<std::string, const char*> cases[] = {
      {v1_bytes(m, -1), "negative iteration count"},
      {v1_bytes(m, std::int64_t{std::numeric_limits<int>::max()} + 1),
       "iteration count past INT_MAX"},
      {v2_bytes(m, std::int64_t{1} << 40, {}), "v2 iteration count"},
      {negative_rows, "negative row count"},
      {negative_cols, "negative column count"},
  };
  for (const auto& [bytes, what] : cases) {
    expect_load_error(bytes, "corrupt header", what);
  }
}

TEST(Checkpoint, EntryOutOfBoundsThrows) {
  const std::pair<vidx_t, vidx_t> outside[] = {{3, 0}, {0, 3}, {-1, 0},
                                                {0, -1}};
  for (const auto& [row, col] : outside) {
    dist::TriplesD m(3, 3);
    m.push_unchecked(1, 1, 0.5);
    m.push_unchecked(row, col, 0.5);
    expect_load_error(v1_bytes(m, 1), "entry out of bounds",
                      "entry (" + std::to_string(row) + ", " +
                          std::to_string(col) + ")");
  }
}

TEST(Checkpoint, TruncatedFilesThrow) {
  const auto g = test_graph(111);
  const std::string v1 = v1_bytes(g.edges, 2);
  const std::string v2 = v2_bytes(g.edges, 2, reversed_ids(g.edges.nrows()));
  const std::pair<std::string, const char*> cases[] = {
      {v1.substr(0, 20), "v1 header"},
      {v1.substr(0, v1.size() - 1), "v1 last entry"},
      {"MCLXCKP2" + v1.substr(8), "v2 without its permutation size"},
      {v2.substr(0, v2.size() - sizeof(vidx_t)), "v2 last permutation entry"},
  };
  for (const auto& [bytes, what] : cases) {
    expect_load_error(bytes, "truncated file", what);
  }
}

TEST(Checkpoint, EmptyMatrixRoundTrips) {
  for (const vidx_t n : {vidx_t{0}, vidx_t{5}}) {
    const dist::TriplesD m(n, n);
    const std::string path = temp_path("ckp_empty.bin");
    core::save_checkpoint(path, {m, 0});
    EXPECT_EQ(read_file(path), v4_bytes(m, 0, false, kInf));
    const auto back = core::load_checkpoint(path);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->completed_iterations, 0);
    EXPECT_EQ(back->matrix, m);
  }
}

TEST(Checkpoint, MissingFileIsFreshStart) {
  EXPECT_FALSE(core::load_checkpoint(temp_path("ckp_missing.bin")));
}

TEST(Checkpoint, CorruptFileThrows) {
  const std::string path = temp_path("ckp_corrupt.bin");
  std::ofstream(path) << "definitely not a checkpoint";
  EXPECT_THROW(core::load_checkpoint(path), std::runtime_error);
}

TEST(Checkpoint, NoTempFileLeftBehind) {
  const auto g = test_graph(102);
  const std::string path = temp_path("ckp_tmpfree.bin");
  core::save_checkpoint(path, {g.edges, 1});
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(Checkpoint, ChunkedRunMatchesMonolithic) {
  const auto g = test_graph(103);
  const auto params = test_params();

  sim::SimState s1(sim::summit_like(4));
  const auto plain = core::run_hipmcl(g.edges, params,
                                      core::HipMclConfig::optimized(), s1);

  sim::SimState s2(sim::summit_like(4));
  const std::string path = temp_path("ckp_chunked.bin");
  const auto chunked = core::run_hipmcl_checkpointed(
      g.edges, params, core::HipMclConfig::optimized(), s2, path,
      /*every=*/3);

  EXPECT_EQ(plain.labels, chunked.labels);
  EXPECT_EQ(plain.iterations, chunked.iterations);
  EXPECT_TRUE(chunked.converged);
  // Checkpoint file reflects the completed run.
  const auto cp = core::load_checkpoint(path);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->completed_iterations, chunked.iterations);
}

TEST(Checkpoint, ResumesAfterInterruption) {
  const auto g = test_graph(104);
  const auto params = test_params();
  const std::string path = temp_path("ckp_resume.bin");

  // Reference: uninterrupted run.
  sim::SimState s0(sim::summit_like(4));
  const auto reference = core::run_hipmcl(g.edges, params,
                                          core::HipMclConfig::optimized(),
                                          s0);

  // "Crash" after 4 iterations: cap max_iters.
  core::MclParams first_leg = params;
  first_leg.max_iters = 4;
  sim::SimState s1(sim::summit_like(4));
  const auto partial = core::run_hipmcl_checkpointed(
      g.edges, first_leg, core::HipMclConfig::optimized(), s1, path, 2);
  EXPECT_FALSE(partial.converged);
  EXPECT_EQ(partial.iterations, 4);

  // Restart with the full budget: must resume, not redo.
  sim::SimState s2(sim::summit_like(4));
  const auto resumed = core::run_hipmcl_checkpointed(
      g.edges, params, core::HipMclConfig::optimized(), s2, path, 2);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.iterations, reference.iterations - 4);
  EXPECT_EQ(resumed.labels, reference.labels);
}

TEST(Checkpoint, ResumeFromV2FileIgnoresItsPermutation) {
  // A v2 file's matrix is in input space. Its permutation, valid and not
  // the identity here, is read, checked and dropped: the resumed run must
  // continue the uninterrupted run bit for bit.
  const auto g = test_graph(104);
  const auto params = test_params();
  sim::SimState s0(sim::summit_like(4));
  const auto reference = core::run_hipmcl(
      g.edges, params, core::HipMclConfig::optimized(), s0);
  constexpr int kDone = 4;
  ASSERT_GT(reference.iterations, kDone);

  core::MclParams first_leg = params;
  first_leg.max_iters = kDone;
  const std::string path = temp_path("ckp_v2_resume.bin");
  sim::SimState s1(sim::summit_like(4));
  core::run_hipmcl_checkpointed(g.edges, first_leg,
                                core::HipMclConfig::optimized(), s1, path, 2);
  const auto cp = core::load_checkpoint(path);
  ASSERT_TRUE(cp.has_value());
  ASSERT_EQ(cp->completed_iterations, kDone);
  write_file(path, v2_bytes(cp->matrix, kDone,
                            reversed_ids(cp->matrix.nrows())));

  sim::SimState s2(sim::summit_like(4));
  const auto resumed = core::run_hipmcl_checkpointed(
      g.edges, params, core::HipMclConfig::optimized(), s2, path, 2);
  EXPECT_EQ(resumed.labels, reference.labels);
  expect_same_trajectory(resumed, reference, kDone);
}

TEST(Checkpoint, RerunOfAFinishedCheckpointReturnsItsClusters) {
  // The file already holds max_iters iterations: the rerun runs none and
  // interprets the stored matrix instead of returning no labels.
  const auto g = test_graph(109);
  core::MclParams params = test_params();
  params.max_iters = 4;
  const std::string path = temp_path("ckp_finished.bin");
  sim::SimState s1(sim::summit_like(4));
  const auto first = core::run_hipmcl_checkpointed(
      g.edges, params, core::HipMclConfig::optimized(), s1, path, 2);
  ASSERT_EQ(first.iterations, 4);
  ASSERT_FALSE(first.converged);

  sim::SimState s2(sim::summit_like(4));
  const auto again = core::run_hipmcl_checkpointed(
      g.edges, params, core::HipMclConfig::optimized(), s2, path, 2);
  EXPECT_EQ(again.iterations, 0);
  EXPECT_EQ(again.labels, first.labels);
  EXPECT_EQ(again.num_clusters, first.num_clusters);
  const auto cp = core::load_checkpoint(path);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->completed_iterations, 4);
}

TEST(Checkpoint, RerunOfAFinishedCheckpointRewritesTheSameBytes) {
  const auto g = test_graph(112);
  core::MclParams params = test_params();
  params.max_iters = 4;
  const std::string path = temp_path("ckp_finished_bytes.bin");
  sim::SimState s1(sim::summit_like(4));
  core::run_hipmcl_checkpointed(g.edges, params,
                                core::HipMclConfig::optimized(), s1, path, 2);
  const std::string before = read_file(path);

  sim::SimState s2(sim::summit_like(4));
  core::run_hipmcl_checkpointed(g.edges, params,
                                core::HipMclConfig::optimized(), s2, path, 2);
  EXPECT_EQ(read_file(path), before);
}

TEST(Checkpoint, RerunOfAFinishedCheckpointKeepsItsFinalMatrix) {
  const auto g = test_graph(113);
  core::MclParams params = test_params();
  params.max_iters = 4;
  core::HipMclConfig config = core::HipMclConfig::optimized();
  config.keep_final_matrix = true;
  const std::string path = temp_path("ckp_finished_matrix.bin");
  sim::SimState s1(sim::summit_like(4));
  const auto first =
      core::run_hipmcl_checkpointed(g.edges, params, config, s1, path, 2);
  sim::SimState s2(sim::summit_like(4));
  const auto again =
      core::run_hipmcl_checkpointed(g.edges, params, config, s2, path, 2);
  ASSERT_TRUE(first.final_matrix.has_value());
  ASSERT_TRUE(again.final_matrix.has_value());
  const auto want = first.final_matrix->to_csc();
  const auto got = again.final_matrix->to_csc();
  EXPECT_EQ(got, want);
  ASSERT_EQ(got.vals().size(), want.vals().size());
  EXPECT_EQ(std::memcmp(got.vals().data(), want.vals().data(),
                        want.vals().size() * sizeof(val_t)),
            0);
}

// A converged run's checkpoint holds the answer: a rerun on the same path
// runs no iteration, returns the first call's clusters (those of the
// monolithic run) and leaves the file's bytes as they were. Seed 114 is a
// graph where one more iteration on the converged matrix splits a
// cluster; seed 103 one where it only raises the stored count.
class ConvergedRerun : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvergedRerun, ReturnsTheFirstCallsClustersAndLeavesTheFile) {
  const auto g = test_graph(GetParam());
  const auto params = test_params();
  sim::SimState s0(sim::summit_like(4));
  const auto plain = core::run_hipmcl(g.edges, params,
                                      core::HipMclConfig::optimized(), s0);
  const std::string path =
      temp_path("ckp_converged_" + std::to_string(GetParam()) + ".bin");
  sim::SimState s1(sim::summit_like(4));
  const auto first = core::run_hipmcl_checkpointed(
      g.edges, params, core::HipMclConfig::optimized(), s1, path, 3);
  ASSERT_TRUE(first.converged);
  EXPECT_EQ(first.labels, plain.labels);
  const std::string bytes = read_file(path);

  for (int rerun = 0; rerun < 2; ++rerun) {
    SCOPED_TRACE("rerun " + std::to_string(rerun));
    sim::SimState s(sim::summit_like(4));
    const auto again = core::run_hipmcl_checkpointed(
        g.edges, params, core::HipMclConfig::optimized(), s, path, 3);
    EXPECT_EQ(again.iterations, 0);
    EXPECT_TRUE(again.converged);
    EXPECT_EQ(again.labels, first.labels);
    EXPECT_EQ(again.num_clusters, first.num_clusters);
    EXPECT_EQ(read_file(path), bytes);
  }
  const auto cp = core::load_checkpoint(path);
  ASSERT_TRUE(cp.has_value());
  EXPECT_TRUE(cp->converged);
  EXPECT_EQ(cp->completed_iterations, first.iterations);
}

TEST_P(ConvergedRerun, ThroughTheSchedulerToo) {
  const std::string path =
      temp_path("ckp_converged_svc_" + std::to_string(GetParam()) + ".bin");
  svc::JobSpec spec;
  spec.graph = test_graph(GetParam()).edges;
  spec.nodes = 4;
  spec.params = test_params();
  spec.config = core::HipMclConfig::optimized();
  spec.checkpoint_path = path;
  spec.checkpoint_every = 3;
  svc::SchedulerOptions options;
  options.max_concurrent = 1;
  svc::Scheduler scheduler(options);

  spec.id = "first";
  scheduler.submit(spec);
  const svc::JobOutcome first = scheduler.wait("first");
  ASSERT_EQ(first.state, svc::JobState::kDone);
  ASSERT_TRUE(first.converged);
  const std::string bytes = read_file(path);

  spec.id = "again";
  scheduler.submit(spec);
  const svc::JobOutcome again = scheduler.wait("again");
  ASSERT_EQ(again.state, svc::JobState::kDone);
  EXPECT_EQ(again.iterations, 0);
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(again.labels, first.labels);
  EXPECT_EQ(again.num_clusters, first.num_clusters);
  EXPECT_EQ(read_file(path), bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergedRerun, testing::Values(103, 114),
                         [](const testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(Checkpoint, CancelledRunResumesBitwise) {
  // should_stop ends the run at an iteration boundary inside a chunk; the
  // checkpoint written then holds exactly the iterations that ran, and a
  // later call continues the uninterrupted trajectory.
  const auto g = test_graph(114);
  const auto params = test_params();
  sim::SimState s0(sim::summit_like(4));
  const auto reference = core::run_hipmcl(
      g.edges, params, core::HipMclConfig::optimized(), s0);
  constexpr int kStopAfter = 3;
  ASSERT_GT(reference.iterations, kStopAfter);

  const std::string path = temp_path("ckp_cancelled.bin");
  core::HipMclConfig stopping = core::HipMclConfig::optimized();
  int seen = 0;
  stopping.on_iteration = [&seen](const core::IterationReport&) { ++seen; };
  stopping.should_stop = [&seen] { return seen >= kStopAfter; };
  sim::SimState s1(sim::summit_like(4));
  const auto partial =
      core::run_hipmcl_checkpointed(g.edges, params, stopping, s1, path, 5);
  EXPECT_TRUE(partial.cancelled);
  EXPECT_FALSE(partial.converged);
  EXPECT_EQ(partial.iterations, kStopAfter);
  const auto cp = core::load_checkpoint(path);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->completed_iterations, kStopAfter);

  sim::SimState s2(sim::summit_like(4));
  const auto resumed = core::run_hipmcl_checkpointed(
      g.edges, params, core::HipMclConfig::optimized(), s2, path, 5);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.labels, reference.labels);
  expect_same_trajectory(resumed, reference, kStopAfter);
}

TEST(Checkpoint, ChunkedRunTrajectoryMatchesMonolithicBitwise) {
  const auto g = test_graph(115);
  const auto params = test_params();
  core::HipMclConfig config = core::HipMclConfig::optimized();
  config.keep_final_matrix = true;
  sim::SimState s1(sim::summit_like(4));
  const auto plain = core::run_hipmcl(g.edges, params, config, s1);
  for (const int every : {1, 2, 5}) {
    SCOPED_TRACE("every " + std::to_string(every));
    sim::SimState s2(sim::summit_like(4));
    const auto chunked = core::run_hipmcl_checkpointed(
        g.edges, params, config, s2,
        temp_path("ckp_chunked_bitwise.bin"), every);
    EXPECT_EQ(chunked.labels, plain.labels);
    expect_same_trajectory(chunked, plain, 0);
    ASSERT_TRUE(chunked.final_matrix.has_value());
    const auto want = plain.final_matrix->to_csc();
    const auto got = chunked.final_matrix->to_csc();
    EXPECT_EQ(got, want);
    ASSERT_EQ(got.vals().size(), want.vals().size());
    EXPECT_EQ(std::memcmp(got.vals().data(), want.vals().data(),
                          want.vals().size() * sizeof(val_t)),
              0);
  }
}

TEST(Checkpoint, ChunkedRunBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const auto g = test_graph(116);
  const auto params = test_params();
  const std::string path = temp_path("ckp_threads.bin");
  const auto run = [&](int threads) {
    std::remove(path.c_str());
    par::set_threads(threads);
    sim::SimState sim(sim::summit_like(4));
    return core::run_hipmcl_checkpointed(
        g.edges, params, core::HipMclConfig::optimized(), sim, path, 3);
  };
  const auto one = run(1);
  const std::string one_file = read_file(path);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto many = run(threads);
    EXPECT_EQ(many.labels, one.labels);
    expect_same_trajectory(many, one, 0);
    EXPECT_EQ(read_file(path), one_file);  // the stored matrix too
  }
}

TEST(Checkpoint, StoredMatrixIsColumnStochastic) {
  const auto g = test_graph(117);
  core::MclParams params = test_params();
  params.max_iters = 3;
  const std::string path = temp_path("ckp_stochastic.bin");
  sim::SimState sim(sim::summit_like(4));
  core::run_hipmcl_checkpointed(g.edges, params,
                                core::HipMclConfig::optimized(), sim, path, 2);
  const auto cp = core::load_checkpoint(path);
  ASSERT_TRUE(cp.has_value());
  ASSERT_EQ(cp->completed_iterations, 3);
  const auto sums =
      sparse::column_sums(sparse::csc_from_triples(cp->matrix));
  ASSERT_EQ(sums.size(), static_cast<std::size_t>(g.edges.ncols()));
  for (std::size_t j = 0; j < sums.size(); ++j) {
    EXPECT_NEAR(sums[j], 1.0, 1e-9) << "column " << j;
  }
}

// The stall rule (chaos equal to the last iteration's, nnz unchanged)
// stops these runs: chaos_eps 0 turns the threshold off. Chunks and
// resumes carry the last chaos, so they stop at the same iteration.
class StallCarry : public testing::TestWithParam<std::uint64_t> {
 protected:
  static core::MclParams stall_params() {
    core::MclParams p = test_params();
    p.chaos_eps = 0;
    return p;
  }
};

TEST_P(StallCarry, ChunkedRunsStopWhereTheMonolithicRunStops) {
  const auto g = test_graph(GetParam());
  const auto params = stall_params();
  sim::SimState s0(sim::summit_like(4));
  const auto plain = core::run_hipmcl(g.edges, params,
                                      core::HipMclConfig::optimized(), s0);
  ASSERT_TRUE(plain.converged);
  ASSERT_LT(plain.iterations, params.max_iters);
  for (const int every : {1, 2, 3}) {
    SCOPED_TRACE("every " + std::to_string(every));
    sim::SimState s(sim::summit_like(4));
    const auto chunked = core::run_hipmcl_checkpointed(
        g.edges, params, core::HipMclConfig::optimized(), s,
        temp_path("ckp_stall_chunked_" + std::to_string(GetParam()) + ".bin"),
        every);
    EXPECT_EQ(chunked.iterations, plain.iterations);
    EXPECT_TRUE(chunked.converged);
    EXPECT_EQ(chunked.labels, plain.labels);
    expect_same_trajectory(chunked, plain, 0);
  }
}

TEST_P(StallCarry, CancelledRunsResumeToTheSameStop) {
  const auto g = test_graph(GetParam());
  const auto params = stall_params();
  sim::SimState s0(sim::summit_like(4));
  const auto plain = core::run_hipmcl(g.edges, params,
                                      core::HipMclConfig::optimized(), s0);
  ASSERT_TRUE(plain.converged);
  // Cancelled one iteration before the stop, the resumed run's first
  // iteration is the one the rule stops on.
  for (const int stop_after : {1, plain.iterations / 2, plain.iterations - 1}) {
    SCOPED_TRACE("cancelled after " + std::to_string(stop_after));
    const std::string path = temp_path("ckp_stall_cancelled_" +
                                       std::to_string(GetParam()) + ".bin");
    core::HipMclConfig stopping = core::HipMclConfig::optimized();
    int seen = 0;
    stopping.on_iteration = [&seen](const core::IterationReport&) { ++seen; };
    stopping.should_stop = [&] { return seen >= stop_after; };
    sim::SimState s1(sim::summit_like(4));
    const auto partial =
        core::run_hipmcl_checkpointed(g.edges, params, stopping, s1, path, 4);
    ASSERT_TRUE(partial.cancelled);
    ASSERT_EQ(partial.iterations, stop_after);

    sim::SimState s2(sim::summit_like(4));
    const auto resumed = core::run_hipmcl_checkpointed(
        g.edges, params, core::HipMclConfig::optimized(), s2, path, 4);
    EXPECT_EQ(partial.iterations + resumed.iterations, plain.iterations);
    EXPECT_TRUE(resumed.converged);
    EXPECT_EQ(resumed.labels, plain.labels);
    expect_same_trajectory(resumed, plain,
                           static_cast<std::size_t>(stop_after));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StallCarry, testing::Values(1, 2, 3),
                         [](const testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(Checkpoint, InvalidEveryThrows) {
  const auto g = test_graph(105);
  sim::SimState sim(sim::summit_like(4));
  EXPECT_THROW(core::run_hipmcl_checkpointed(
                   g.edges, {}, core::HipMclConfig::optimized(), sim,
                   temp_path("ckp_bad.bin"), 0),
               std::invalid_argument);
}

}  // namespace
