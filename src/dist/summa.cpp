#include "dist/summa.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "gpuk/multigpu.hpp"
#include "merge/binary.hpp"
#include "merge/multiway.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "sim/collectives.hpp"
#include "sim/costmodel.hpp"
#include "sparse/convert.hpp"
#include "spgemm/hash.hpp"
#include "util/simd.hpp"

namespace mclx::dist {

namespace {

using sim::Stage;

/// Virtual cost of decompressing a received DCSC block to CSC (§III-B's
/// column-pointer decompression): only the column-pointer array is built;
/// the index/value arrays carry over untouched, so the cost is O(ncols),
/// independent of nnz — that is exactly why the paper skips the full
/// format conversion.
vtime_t conversion_cost(const sim::CostModel& model, std::uint64_t ncols) {
  return model.other(ncols);
}

/// The phase pass's per-row state over A's rows, one output column at a
/// time: the running total of the row's earlier stages, the partial of
/// its current stage, and that stage (-1 while the row is untouched).
/// A product of a new stage folds the partial into the total; totals and
/// partials rest at -0.0, the identity of +, so the first fold assigns
/// bit for bit. The column then emits total + partial per row: the left
/// fold S1 + S2 + … of the per-stage products, each summed in B's
/// column order — the bits of hash_spgemm per block and kway_merge's
/// left fold over the stages (docs/KERNELS.md, "Fold order").
class StageAccumulator {
 public:
  explicit StageAccumulator(vidx_t nrows)
      : sums_(static_cast<std::size_t>(nrows), Sums{-0.0, -0.0}),
        stage_(sums_.size(), -1),
        touched_(sums_.size()),
        bits_((sums_.size() + 63) / 64, 0) {}

  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(sums_.size()) *
               (sizeof(Sums) + sizeof(int) + sizeof(vidx_t)) +
           static_cast<std::uint64_t>(bits_.size()) * sizeof(std::uint64_t);
  }

  /// Adds stage k's product v to `row`. Returns the stage of the row's
  /// previous product in this column (-1 for none): k unless this is the
  /// row's first product of stage k.
  int add(vidx_t row, int k, val_t v) {
    const auto r = static_cast<std::size_t>(row);
    const int prev = stage_[r];
    Sums& s = sums_[r];
    if (prev == k) {
      s.partial += v;
    } else {
      if (prev < 0) touched_[size_++] = row;
      s.total += s.partial;
      s.partial = v;
      stage_[r] = k;
    }
    return prev;
  }

  /// Appends the column's entries sorted by row, then starts a new column.
  void extract(std::vector<vidx_t>& rows, std::vector<val_t>& vals) {
    rows.resize(size_);
    vals.resize(size_);
    vidx_t* out_rows = rows.data();
    val_t* out_vals = vals.data();
    spgemm::detail::visit_sorted(
        touched_.data(), size_, bits_.data(), [&](std::size_t r) {
          *out_rows++ = static_cast<vidx_t>(r);
          *out_vals++ = sums_[r].total + sums_[r].partial;
          sums_[r] = {-0.0, -0.0};
          stage_[r] = -1;
        });
    size_ = 0;
  }

 private:
  struct Sums {
    val_t total;
    val_t partial;
  };

  std::vector<Sums> sums_;
  std::vector<int> stage_;
  std::vector<vidx_t> touched_;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// One grid column's columns of the product in global rows, each phase's
/// appended after the last: the result joins the parts in grid-column
/// order.
struct Part {
  std::vector<vidx_t> colptr = {0};
  std::vector<vidx_t> rows;
  std::vector<val_t> vals;

  vidx_t ncols() const { return static_cast<vidx_t>(colptr.size()) - 1; }
  std::uint64_t bytes() const {
    return (colptr.capacity() + rows.capacity()) * sizeof(vidx_t) +
           vals.capacity() * sizeof(val_t);
  }
};

}  // namespace

std::uint64_t PhaseCounts::merged_size(int r, int first, int end) const {
  const auto ri = static_cast<std::size_t>(r);
  if (first == 0 && end == dim) return unpruned[ri];
  const auto u = static_cast<std::size_t>(
      std::find(ranges.begin(), ranges.end(), std::pair{first, end}) -
      ranges.begin());
  return unions[ri * ranges.size() + u];
}

/// Builds each phase's columns of the product in one pass over the
/// phase's global columns of the operands, and counts what the stage loop
/// charges for them. A product's stage is the block that holds its inner
/// index; B's column entries are sorted by row, so stages arrive in
/// order. Each column of A is split by row block once (`alen_`), so a B
/// entry's flops per rank are known without touching its products, and
/// only a row's first product of a stage looks up its rank. Each output
/// column is split at the row-block bounds only to count per rank. With a
/// prune rule, each column is pruned as it is extracted and only its
/// survivors reach the parts.
class SummaPass::Impl {
 public:
  Impl(const DistMat& a, const DistMat& b, int device_slices,
       bool binary_merge, const std::optional<PruneParams>& prune)
      : a_(a), b_(b), dim_(a.dim()), acc_(a.nrows()),
        row_block_(static_cast<std::size_t>(a.nrows())),
        alen_(static_cast<std::size_t>(a.ncols()) *
              static_cast<std::size_t>(dim_)),
        ranges_of_(static_cast<std::size_t>(dim_)),
        parts_(static_cast<std::size_t>(dim_)),
        mem_("summa.accumulator", 0),
        product_mem_("summa.product", 0) {
    if (prune) prune_.emplace(*prune);
    counts_.dim = dim_;
    counts_.nslices = std::max(device_slices, 1);
    counts_.device_slices = device_slices > 0;
    const auto dim = static_cast<std::size_t>(dim_);
    for (int i = 0; i <= dim_; ++i) {
      row_off_.push_back(a.row_offset(i));
      inner_off_.push_back(b.row_offset(i));
    }
    for (std::size_t i = 0; i < dim; ++i) {
      std::fill(row_block_.begin() + row_off_[i],
                row_block_.begin() + row_off_[i + 1], static_cast<int>(i));
    }
    for (vidx_t kk = 0; kk < a.ncols(); ++kk) {
      for (const vidx_t row : a.to_csc().col_rows(kk)) {
        ++alen_[static_cast<std::size_t>(kk) * dim +
                static_cast<std::size_t>(
                    row_block_[static_cast<std::size_t>(row)])];
      }
    }
    if (binary_merge) {
      for (const auto& range : merge::BinarySchedule::merged_ranges(dim_)) {
        if (range == std::pair{0, dim_}) continue;  // the chunk itself
        for (int k = range.first; k < range.second; ++k) {
          ranges_of_[static_cast<std::size_t>(k)].push_back(
              {range.first, static_cast<int>(counts_.ranges.size())});
        }
        counts_.ranges.push_back(range);
      }
    }
    charged_ = fixed_bytes();
    mem_.add(charged_);
  }

  const PhaseCounts& run(int phase, int phases);
  void sink(const PhaseSink& sink, int phase);
  DistMat take_product();

 private:
  struct RangeRef {
    int first;
    int index;
  };

  std::uint64_t fixed_bytes() const {
    return acc_.bytes() + row_block_.size() * sizeof(int) +
           alen_.size() * sizeof(vidx_t);
  }

  /// Charges the product's growth by the last phase once that phase is
  /// done: when the next one starts or the product is taken.
  void charge_product() {
    if (!grown_) return;
    grown_ = false;
    std::uint64_t held = 0;
    for (const Part& part : parts_) held += part.bytes();
    if (held > product_charged_) {
      product_mem_.add(held - product_charged_);
      product_charged_ = held;
    }
  }

  const DistMat& a_;
  const DistMat& b_;
  int dim_;
  StageAccumulator acc_;
  std::vector<vidx_t> row_off_;    ///< C's (and A's) row-block offsets
  std::vector<vidx_t> inner_off_;  ///< stage offsets of the inner index
  std::vector<int> row_block_;     ///< per row of A: its row block
  std::vector<vidx_t> alen_;       ///< [kk·dim + i]: A(:,kk)'s rows in block i
  std::vector<std::vector<RangeRef>> ranges_of_;  ///< per stage
  std::vector<vidx_t> col_rows_;   ///< one output column, sorted by row
  std::vector<val_t> col_vals_;
  std::optional<ColumnPrune> prune_;
  std::vector<Part> parts_;        ///< per grid column
  obs::MemScope mem_;
  std::uint64_t charged_ = 0;
  obs::MemScope product_mem_;
  std::uint64_t product_charged_ = 0;
  bool grown_ = false;  ///< a phase ran since the last product charge

  PhaseCounts counts_;
  /// Per grid column j, slice d, stage k and row block i, at
  /// ((j·nslices + d)·dim + k)·dim + i, so a B entry's row blocks are
  /// adjacent; B entries need no row block.
  std::vector<std::uint64_t> flops_;
  std::vector<std::uint64_t> c_nnz_;
  std::vector<std::uint64_t> b_nnz_;  ///< at (j·nslices + d)·dim + k
};

const PhaseCounts& SummaPass::Impl::run(int phase, int phases) {
  charge_product();
  const auto dim = static_cast<std::size_t>(dim_);
  const auto ns = static_cast<std::size_t>(counts_.nslices);
  const std::size_t nr = counts_.ranges.size();
  std::vector<std::uint64_t>& unions = counts_.unions;
  std::vector<std::uint64_t>& unpruned = counts_.unpruned;
  std::vector<std::uint64_t>& recovered = counts_.recovered;
  flops_.assign(dim * ns * dim * dim, 0);
  c_nnz_.assign(flops_.size(), 0);
  b_nnz_.assign(dim * ns * dim, 0);
  counts_.widths.assign(dim, 0);
  unions.assign(dim * dim * nr, 0);
  unpruned.assign(dim * dim, 0);
  recovered.assign(dim * dim, 0);

  const vidx_t* acp = a_.to_csc().colptr().data();
  const vidx_t* arows = a_.to_csc().rowids().data();
  const val_t* avals = a_.to_csc().vals().data();
  const vidx_t* bcp = b_.to_csc().colptr().data();
  const vidx_t* brows = b_.to_csc().rowids().data();
  const val_t* bvals = b_.to_csc().vals().data();
  std::vector<std::size_t> rank_of(dim);

  for (std::size_t j = 0; j < dim; ++j) {
    const auto [c0, c1] =
        phase_col_range(b_.block_cols(static_cast<int>(j)), phase, phases);
    const vidx_t width = c1 - c0;
    counts_.widths[j] = width;
    const vidx_t per = gpuk::slice_width(width, counts_.nslices);
    for (std::size_t i = 0; i < dim; ++i) {
      rank_of[i] = static_cast<std::size_t>(
          a_.grid().rank_of(static_cast<int>(i), static_cast<int>(j)));
    }
    Part& part = parts_[j];

    const vidx_t gc0 = b_.col_offset(static_cast<int>(j)) + c0;
    for (vidx_t c = 0; c < width; ++c) {
      const std::size_t jd = j * ns + static_cast<std::size_t>(c / per);
      std::uint64_t* const flops = flops_.data() + jd * dim * dim;
      std::uint64_t* const c_nnz = c_nnz_.data() + jd * dim * dim;
      std::uint64_t* const b_nnz = b_nnz_.data() + jd * dim;
      int k = 0;
      for (vidx_t p = bcp[gc0 + c]; p < bcp[gc0 + c + 1]; ++p) {
        const vidx_t kk = brows[p];
        const val_t bv = bvals[p];
        while (kk >= inner_off_[static_cast<std::size_t>(k) + 1]) ++k;
        const auto sk = static_cast<std::size_t>(k);
        ++b_nnz[sk];
        const vidx_t* len = alen_.data() + static_cast<std::size_t>(kk) * dim;
        for (std::size_t i = 0; i < dim; ++i) {
          flops[sk * dim + i] += static_cast<std::uint64_t>(len[i]);
        }
        const auto& ranges = ranges_of_[sk];
        for (vidx_t q = acp[kk]; q < acp[kk + 1]; ++q) {
          const vidx_t row = arows[q];
          const int prev = acc_.add(row, k, avals[q] * bv);
          if (prev == k) continue;
          const auto i =
              static_cast<std::size_t>(row_block_[static_cast<std::size_t>(row)]);
          ++c_nnz[sk * dim + i];
          for (const RangeRef& range : ranges) {
            if (prev < range.first) {
              ++unions[rank_of[i] * nr + static_cast<std::size_t>(range.index)];
            }
          }
        }
      }

      // The column's rows are sorted, so each row block's are one run.
      acc_.extract(col_rows_, col_vals_);
      if (prune_) prune_->run(col_vals_);
      std::size_t from = 0;
      for (std::size_t i = 0; i < dim; ++i) {
        const auto begin = col_rows_.begin();
        const auto to = static_cast<std::size_t>(
            std::lower_bound(begin + static_cast<std::ptrdiff_t>(from),
                             col_rows_.end(), row_off_[i + 1]) -
            begin);
        const std::size_t r = rank_of[i];
        unpruned[r] += to - from;
        if (prune_) {
          recovered[r] += prune_->append_kept(
              from, to - from, col_rows_.data() + from,
              col_vals_.data() + from, part.rows, part.vals);
        }
        from = to;
      }
      if (!prune_) {
        part.rows.insert(part.rows.end(), col_rows_.begin(), col_rows_.end());
        part.vals.insert(part.vals.end(), col_vals_.begin(), col_vals_.end());
      }
      part.colptr.push_back(static_cast<vidx_t>(part.rows.size()));
    }

    const std::uint64_t held = fixed_bytes() +
                               col_rows_.capacity() * sizeof(vidx_t) +
                               col_vals_.capacity() * sizeof(val_t) +
                               (prune_ ? prune_->bytes() : 0);
    if (held > charged_) {
      mem_.add(held - charged_);
      charged_ = held;
    }
  }

  // Lay the counts out per rank for the stage loop.
  counts_.slices.assign(dim * dim * dim * ns, {});
  for (std::size_t j = 0; j < dim; ++j) {
    const vidx_t per = gpuk::slice_width(counts_.widths[j], counts_.nslices);
    for (std::size_t d = 0; d < ns; ++d) {
      const vidx_t ncols = std::clamp<vidx_t>(
          counts_.widths[j] - static_cast<vidx_t>(d) * per, 0, per);
      for (std::size_t k = 0; k < dim; ++k) {
        const std::size_t at = ((j * ns + d) * dim + k) * dim;
        for (std::size_t i = 0; i < dim; ++i) {
          const auto r = static_cast<std::size_t>(
              a_.grid().rank_of(static_cast<int>(i), static_cast<int>(j)));
          gpuk::SliceCounts& s = counts_.slices[(r * dim + k) * ns + d];
          s.ncols = ncols;
          s.b_nnz = b_nnz_[(j * ns + d) * dim + k];
          s.flops = flops_[at + i];
          s.c_nnz = c_nnz_[at + i];
        }
      }
    }
  }
  grown_ = true;
  return counts_;
}

/// Hands a PhaseSink the phase's columns as rank chunks (block-local rows,
/// phase-local columns), then puts the chunks, which it may edit, back in
/// their place: grid column j's are the last widths[j] columns of
/// parts[j].
void SummaPass::Impl::sink(const PhaseSink& sink, int phase) {
  const std::span<const vidx_t> widths = counts_.widths;
  std::vector<CscD> chunks(static_cast<std::size_t>(a_.grid().nranks()));
  for (int j = 0; j < dim_; ++j) {
    const Part& part = parts_[static_cast<std::size_t>(j)];
    const vidx_t first = part.ncols() - widths[static_cast<std::size_t>(j)];
    for (int i = 0; i < dim_; ++i) {
      chunks[static_cast<std::size_t>(a_.grid().rank_of(i, j))] =
          sparse::csc_window<vidx_t, val_t>(
              part.colptr, part.rows, part.vals, row_off_[i], row_off_[i + 1],
              first, part.ncols());
    }
  }

  sink(phase, chunks);

  for (int j = 0; j < dim_; ++j) {
    Part& part = parts_[static_cast<std::size_t>(j)];
    const vidx_t width = widths[static_cast<std::size_t>(j)];
    part.colptr.resize(static_cast<std::size_t>(part.ncols() - width) + 1);
    part.rows.resize(static_cast<std::size_t>(part.colptr.back()));
    part.vals.resize(part.rows.size());
    std::vector<const CscD*> stack;
    for (int i = 0; i < dim_; ++i) {
      const CscD& chunk =
          chunks[static_cast<std::size_t>(a_.grid().rank_of(i, j))];
      if (chunk.nrows() != row_off_[i + 1] - row_off_[i] ||
          chunk.ncols() != width)
        throw std::invalid_argument("summa: a PhaseSink changed a chunk's shape");
      stack.push_back(&chunk);
    }
    sparse::csc_append_stacked<vidx_t, val_t>(
        stack, std::span(row_off_).first(static_cast<std::size_t>(dim_)),
        width, part.colptr, part.rows, part.vals);
  }
}

/// The parts in grid-column order, each freed once it is copied, so the
/// product is never held twice.
DistMat SummaPass::Impl::take_product() {
  charge_product();
  std::vector<CscD> pieces;
  for (Part& part : parts_) {
    pieces.emplace_back(a_.nrows(), part.ncols(), std::move(part.colptr),
                        std::move(part.rows), std::move(part.vals));
    part = Part{};
  }
  return DistMat(sparse::csc_hcat(std::move(pieces)), a_.grid());
}

SummaPass::SummaPass(const DistMat& a, const DistMat& b,
                     const sim::MachineConfig& machine,
                     const SummaOptions& opt) {
  // The pass counts device slices only when a GPU kind can run.
  const spgemm::LocalMultiplier mult{sim::CostModel(machine), opt.kernel};
  impl_ = std::make_unique<Impl>(
      a, b, mult.may_use_devices() ? mult.num_devices() : 0, opt.binary_merge,
      opt.prune);
}

SummaPass::~SummaPass() = default;

const PhaseCounts& SummaPass::run(int phase, int phases) {
  return impl_->run(phase, phases);
}

void SummaPass::sink(const PhaseSink& sink, int phase) {
  impl_->sink(sink, phase);
}

DistMat SummaPass::take_product() { return impl_->take_product(); }

std::span<const char> ColumnPrune::run(std::span<const val_t> vals) {
  const std::size_t n = vals.size();
  fate_.resize(n);
  std::size_t survivors = simd::threshold_flags(vals.data(), n,
                                                params_.cutoff, fate_.data());
  const auto recover =
      static_cast<std::size_t>(std::max(params_.recover_num, 0));
  if (survivors < recover) {
    cands_.clear();
    for (std::size_t p = 0; p < n; ++p) {
      if (fate_[p] == kDropped) {
        cands_.push_back({std::abs(vals[p]), static_cast<vidx_t>(p)});
      }
    }
    const std::size_t want = std::min(recover - survivors, cands_.size());
    keep_best(want);
    survivors += want;
  }
  const auto k = static_cast<std::size_t>(std::max(params_.select_k, 0));
  if (survivors > k) {
    cands_.clear();
    for (std::size_t p = 0; p < n; ++p) {
      if (fate_[p] == kKept) {
        cands_.push_back({vals[p], static_cast<vidx_t>(p)});
        fate_[p] = kUnselected;
      }
    }
    keep_best(k);
  }
  return fate_;
}

void ColumnPrune::keep_best(std::size_t want) {
  std::nth_element(cands_.begin(),
                   cands_.begin() + static_cast<std::ptrdiff_t>(want),
                   cands_.end(), [](const Candidate& x, const Candidate& y) {
                     if (x.key != y.key) return x.key > y.key;
                     return x.pos < y.pos;
                   });
  for (std::size_t q = 0; q < want; ++q) {
    fate_[static_cast<std::size_t>(cands_[q].pos)] = kKept;
  }
}

std::uint64_t ColumnPrune::append_kept(std::size_t first, std::size_t n,
                                       const vidx_t* rows, const val_t* vals,
                                       std::vector<vidx_t>& out_rows,
                                       std::vector<val_t>& out_vals) const {
  std::uint64_t recovered = 0;
  for (std::size_t q = 0; q < n; ++q) {
    const char fate = fate_[first + q];
    recovered += fate != kDropped;
    if (fate == kKept) {
      out_rows.push_back(rows[q]);
      out_vals.push_back(vals[q]);
    }
  }
  return recovered;
}

void charge_prune(sim::SimState& sim, const ProcGrid& grid,
                  const PruneParams& params, std::span<const vidx_t> widths,
                  std::span<const std::uint64_t> unpruned,
                  std::span<const std::uint64_t> recovered) {
  const sim::CostModel model(sim.machine());
  const int dim = grid.dim();
  const auto ncols = [&](int j) {
    return static_cast<std::uint64_t>(widths[static_cast<std::size_t>(j)]);
  };
  // The cutoff(+recovery) pass: the local sweep per rank, plus (when
  // recovery is on) the survivor-count reduction.
  std::uint64_t swept = 0;
  for (int j = 0; j < dim; ++j) {
    const std::vector<int> group = grid.col_ranks(j);
    for (const int r : group) {
      const std::uint64_t nnz = unpruned[static_cast<std::size_t>(r)];
      swept += nnz;
      sim.rank(r).cpu_run(Stage::kPrune, model.prune(nnz));
    }
    if (params.recover_num > 0) {
      sim::sim_allreduce(sim, group,
                         static_cast<bytes_t>(ncols(j) * sizeof(vidx_t)),
                         Stage::kPrune);
    }
  }
  // The top-k selection as HipMCL runs it: each global column is
  // scattered across the √P ranks of the grid column, so every rank
  // selects its local top-k, the candidates are exchanged within the grid
  // column, and a final selection runs on the combined set. That is
  // exact, because the global top-k is a subset of the union of the local
  // top-k sets.
  const int k = params.select_k;
  for (int j = 0; j < dim; ++j) {
    const std::vector<int> group = grid.col_ranks(j);
    std::uint64_t total_candidates = 0;
    for (const int r : group) {
      const std::uint64_t nnz = recovered[static_cast<std::size_t>(r)];
      total_candidates += std::min<std::uint64_t>(
          nnz, ncols(j) * static_cast<std::uint64_t>(k));
      sim.rank(r).cpu_run(Stage::kPrune, model.topk_select(nnz, ncols(j), k));
    }
    const bytes_t per_rank_bytes =
        total_candidates / std::max<std::uint64_t>(1, group.size()) *
        (sizeof(vidx_t) + sizeof(val_t));
    sim::sim_allgather(sim, group, per_rank_bytes, Stage::kPrune);
    for (const int r : group) {
      sim.rank(r).cpu_run(Stage::kPrune,
                          model.topk_select(total_candidates, ncols(j), k));
    }
  }
  obs::count("kernel.simd.prune_elems", swept);
}

std::pair<vidx_t, vidx_t> phase_col_range(vidx_t block_cols, int phase,
                                          int phases) {
  if (phases <= 0) throw std::invalid_argument("phase_col_range: phases <= 0");
  const vidx_t per = (block_cols + phases - 1) / phases;
  const vidx_t c0 = std::min<vidx_t>(static_cast<vidx_t>(phase) * per,
                                     block_cols);
  const vidx_t c1 = std::min<vidx_t>(c0 + per, block_cols);
  return {c0, c1};
}

namespace {

/// Rank (i, j)'s stage-k multiply as the stage loop sees it: A(i, k) and
/// the phase's columns of B(k, j), decompressed to CSC.
spgemm::MultiplyCounts multiply_counts(const DistMat& a, const PhaseCounts& c,
                                       int i, int j, int k) {
  const auto first = (static_cast<std::size_t>(a.grid().rank_of(i, j)) *
                          static_cast<std::size_t>(c.dim) +
                      static_cast<std::size_t>(k)) *
                     static_cast<std::size_t>(c.nslices);
  const std::span<const gpuk::SliceCounts> slices(
      c.slices.data() + first, static_cast<std::size_t>(c.nslices));
  spgemm::MultiplyCounts n;
  n.a_nrows = a.block_rows(i);
  n.a_bytes = CscD::bytes_for(a.block_cols(k), a.block_nnz(i, k));
  n.b_ncols = c.widths[static_cast<std::size_t>(j)];
  std::size_t used = 0;
  for (std::size_t d = 0; d < slices.size(); ++d) {
    n.b_nnz += slices[d].b_nnz;
    n.flops += slices[d].flops;
    n.c_nnz += slices[d].c_nnz;
    if (slices[d].ncols > 0) used = d + 1;
  }
  if (c.device_slices) n.slices = slices.first(used);
  return n;
}

/// Bytes of the phase's columns of B(k, j) as a CSC.
bytes_t b_chunk_bytes(const DistMat& a, const PhaseCounts& c, int k, int j) {
  return CscD::bytes_for(c.widths[static_cast<std::size_t>(j)],
                         multiply_counts(a, c, 0, j, k).b_nnz);
}

}  // namespace

SummaAccounting::SummaAccounting(const DistMat& a, sim::SimState& sim,
                                 const SummaOptions& opt)
    : a_(a), sim_(sim), opt_(opt), elapsed_before_(sim.elapsed()),
      rank_peak_(static_cast<std::size_t>(sim.nranks()), 0) {
  // Per-rank multipliers (each owns that rank's simulated devices), and
  // per-rank counters so stats reflect only this call.
  const sim::CostModel model(sim.machine());
  for (int r = 0; r < sim.nranks(); ++r) {
    mults_.emplace_back(model, opt.kernel);
    stages_before_.push_back(sim.rank(r).stage_times());
    idle_before_.emplace_back(sim.rank(r).cpu_idle(), sim.rank(r).gpu_idle());
  }
}

void SummaAccounting::charge(const PhaseCounts& counts,
                             const std::function<void()>& sink) {
  const DistMat& a = a_;
  sim::SimState& sim = sim_;
  const int dim = a.dim();
  const int nranks = sim.nranks();
  const sim::CostModel model(sim.machine());
  SummaStats& stats = stats_;

  // HipMCL is bulk-synchronous between major algorithmic steps: expansion
  // and each of its phases start together. The barrier absorbs skew from
  // the preceding stages (unattributed), and aligning each device clock to
  // its host keeps the GPUs' out-of-expansion quiet time from polluting
  // the pipelined-SUMMA idle accounting of Table V.
  sim.barrier();
  for (int r = 0; r < nranks; ++r) {
    sim.rank(r).gpu_skew_to(sim.rank(r).cpu_now());
  }

  // Fresh merge schedules each phase, replayed on the counted stage
  // products. Per-rank ledger tracks mirror each schedule's resident
  // elements as bytes: the simulation visits ranks sequentially, so a
  // shared label would conflate ranks, while per-rank labels let
  // prefix_high_water_max("merge.resident.") re-derive
  // merge_peak_elements_max independently.
  std::vector<merge::BinarySchedule> binary(
      opt_.binary_merge ? static_cast<std::size_t>(nranks) : 0);
  std::vector<merge::MultiwaySchedule> multiway(
      opt_.binary_merge ? 0 : static_cast<std::size_t>(nranks));
  if (obs::MemLedger* ml = obs::context().ledger) {
    constexpr std::uint64_t kBytesPerElem = sizeof(vidx_t) + sizeof(val_t);
    for (int r = 0; r < nranks; ++r) {
      obs::MemTracker tracker(ml, "merge.resident.r" + std::to_string(r),
                              kBytesPerElem);
      if (opt_.binary_merge) {
        binary[static_cast<std::size_t>(r)].set_mem_tracker(
            std::move(tracker));
      } else {
        multiway[static_cast<std::size_t>(r)].set_mem_tracker(
            std::move(tracker));
      }
    }
  }
  std::vector<vtime_t> result_ready(static_cast<std::size_t>(nranks), 0);

  // Deferred merge work, per rank: a merge triggered by stage k's push
  // executes only after stage k+1's device work has been issued, so the
  // CPU folds partial products while the GPU multiplies — the Fig 2
  // pipeline. `ready` is the virtual time the merge inputs exist.
  struct PendingMerge {
    bool armed = false;
    std::uint64_t elements = 0;
    int ways = 0;
    vtime_t ready = 0;
  };
  std::vector<PendingMerge> pending(static_cast<std::size_t>(nranks));
  auto flush_pending = [&](int r) {
    auto& p = pending[static_cast<std::size_t>(r)];
    if (!p.armed) return;
    auto& tl = sim.rank(r);
    tl.cpu_wait_until(p.ready);
    tl.cpu_run(Stage::kMerge, model.merge(p.elements, p.ways));
    p.armed = false;
  };

  for (int k = 0; k < dim; ++k) {
    // Every receiving rank decompresses its operand blocks to CSC; the
    // staging they would take is charged from the counts.
    std::uint64_t staging_bytes = 0;
    for (int i = 0; i < dim; ++i) {
      staging_bytes += CscD::bytes_for(a.block_cols(k), a.block_nnz(i, k));
    }
    for (int j = 0; j < dim; ++j) {
      staging_bytes += b_chunk_bytes(a, counts, k, j);
    }
    obs::MemScope staging_mem("summa.staging", staging_bytes);

    // Row broadcasts of A(i,k); column broadcasts of B(k,j)'s chunk.
    for (int i = 0; i < dim; ++i) {
      const auto group = a.grid().row_ranks(i);
      const bytes_t bytes = a.block_bytes(i, k);
      obs::record("summa.bcast_bytes", static_cast<double>(bytes));
      obs::MemScope payload_mem("summa.bcast_payload", bytes);
      sim::sim_bcast(sim, group, bytes, Stage::kSummaBcast);
    }
    for (int j = 0; j < dim; ++j) {
      const auto group = a.grid().col_ranks(j);
      const bytes_t bytes = b_chunk_bytes(a, counts, k, j);
      obs::record("summa.bcast_bytes", static_cast<double>(bytes));
      obs::MemScope payload_mem("summa.bcast_payload", bytes);
      sim::sim_bcast(sim, group, bytes, Stage::kSummaBcast);
    }

    // Local multiplies, charged from their counts.
    for (int i = 0; i < dim; ++i) {
      for (int j = 0; j < dim; ++j) {
        const int r = a.grid().rank_of(i, j);
        auto& tl = sim.rank(r);
        const spgemm::MultiplyCounts n = multiply_counts(a, counts, i, j, k);

        tl.cpu_run(Stage::kOther,
                   conversion_cost(model, static_cast<std::uint64_t>(
                                              a.block_cols(k) + n.b_ncols)));

        const spgemm::LocalSpgemmResult lr =
            mults_[static_cast<std::size_t>(r)].charge(n, opt_.cf_estimate);
        stats.total_flops += lr.flops;
        if (lr.gpu_fallback) ++stats.gpu_fallbacks;

        if (lr.device_cost.kernel > 0) {
          // GPU path: host blocks on the H2D transfer only.
          tl.cpu_run(Stage::kLocalSpGEMM, lr.device_cost.h2d);
          const vtime_t kernel_done = tl.gpu_run(
              Stage::kLocalSpGEMM, lr.device_cost.kernel, tl.cpu_now());
          const vtime_t out_ready = tl.gpu_run(
              Stage::kLocalSpGEMM, lr.device_cost.d2h, kernel_done);
          result_ready[static_cast<std::size_t>(r)] = out_ready;
          if (!opt_.pipelined) tl.cpu_wait_until(out_ready);
        } else {
          tl.cpu_run(Stage::kLocalSpGEMM, lr.cpu_time);
          result_ready[static_cast<std::size_t>(r)] = tl.cpu_now();
        }

        // Now that this stage's device work is issued, the CPU is free
        // to execute the merge the *previous* stage armed (its inputs
        // are ready: device work completes in stage order).
        flush_pending(r);

        if (opt_.binary_merge) {
          const auto outcome = binary[static_cast<std::size_t>(r)].push(
              n.c_nnz, [&](int, int first, int end) {
                return counts.merged_size(r, first, end);
              });
          if (outcome.merged) {
            auto& p = pending[static_cast<std::size_t>(r)];
            p.armed = true;
            p.elements = outcome.elements;
            p.ways = outcome.ways;
            p.ready = result_ready[static_cast<std::size_t>(r)];
          }
        } else {
          multiway[static_cast<std::size_t>(r)].push(n.c_nnz);
        }
      }
    }
  }

  // Finalize the merge schedules; this phase's columns are the pass's.
  for (int r = 0; r < nranks; ++r) {
    auto& tl = sim.rank(r);
    const auto ri = static_cast<std::size_t>(r);
    if (opt_.binary_merge) {
      flush_pending(r);  // any merge still armed from the last stage
      const auto outcome = binary[ri].finalize([&](int, int first, int end) {
        return counts.merged_size(r, first, end);
      });
      tl.cpu_wait_until(result_ready[ri]);
      if (outcome.merged) {
        tl.cpu_run(Stage::kMerge, model.merge(outcome.elements, outcome.ways));
      }
      rank_peak_[ri] =
          std::max(rank_peak_[ri], binary[ri].stats().peak_elements);
    } else {
      tl.cpu_wait_until(result_ready[ri]);
      const merge::MergeEvent e = multiway[ri].finalize(
          [&] { return counts.merged_size(r, 0, dim); });
      if (e.ways > 0) {
        tl.cpu_run(Stage::kMerge, model.merge(e.elements, e.ways));
      }
      rank_peak_[ri] =
          std::max(rank_peak_[ri], multiway[ri].stats().peak_elements);
    }
    tl.join();
  }
  // The unpruned product, from the pass's counts: summed over ranks and
  // phases this is exactly nnz(A·B), the actual the estimator audit
  // joins against Cohen's prediction.
  for (int r = 0; r < nranks; ++r) {
    const std::uint64_t nnz = counts.unpruned[static_cast<std::size_t>(r)];
    stats.unpruned_nnz += nnz;
    unpruned_bytes_ += CscD::bytes_for(
        counts.widths[static_cast<std::size_t>(a.grid().coords(r).second)],
        nnz);
  }

  if (opt_.prune || sink) {
    const vtime_t sink_start = sim.elapsed();
    if (opt_.prune) {
      charge_prune(sim, a.grid(), *opt_.prune, counts.widths, counts.unpruned,
                   counts.recovered);
    }
    if (sink) sink();
    stats.sink_time += sim.elapsed() - sink_start;
  }
}

SummaStats SummaAccounting::finish(const DistMat& c) {
  const int nranks = sim_.nranks();
  const sim::CostModel model(sim_.machine());
  SummaStats& stats = stats_;
  for (int i = 0; i < c.dim(); ++i) {
    for (int j = 0; j < c.dim(); ++j) {
      sim_.rank(c.grid().rank_of(i, j))
          .cpu_run(Stage::kOther, model.other(c.block_nnz(i, j)));
    }
  }

  // Stats: per-rank deltas.
  for (int r = 0; r < nranks; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const auto& now = sim_.rank(r).stage_times();
    const auto& was = stages_before_[ri];
    auto delta = [&](Stage s) {
      return now[static_cast<std::size_t>(s)] -
             was[static_cast<std::size_t>(s)];
    };
    stats.spgemm_time = std::max(stats.spgemm_time, delta(Stage::kLocalSpGEMM));
    stats.bcast_time = std::max(stats.bcast_time, delta(Stage::kSummaBcast));
    stats.merge_time = std::max(stats.merge_time, delta(Stage::kMerge));
    stats.other_time = std::max(stats.other_time, delta(Stage::kOther));
    stats.cpu_idle += sim_.rank(r).cpu_idle() - idle_before_[ri].first;
    stats.gpu_idle += sim_.rank(r).gpu_idle() - idle_before_[ri].second;
    stats.merge_peak_elements_sum += rank_peak_[ri];
    stats.merge_peak_elements_max =
        std::max(stats.merge_peak_elements_max, rank_peak_[ri]);
  }
  stats.cpu_idle /= static_cast<double>(nranks);
  stats.gpu_idle /= static_cast<double>(nranks);
  stats.elapsed = sim_.elapsed() - elapsed_before_ - stats.sink_time;

  // Per-call observability: the Table II per-operation intervals. The
  // per-rank interval detail is exported by the event log (sim/eventlog);
  // these summaries make each expansion's shape queryable from a report.
  if (obs::context().metrics) {
    obs::count("summa.calls");
    obs::count("summa.phases", static_cast<std::uint64_t>(opt_.phases));
    obs::count("summa.gpu_fallbacks",
               static_cast<std::uint64_t>(stats.gpu_fallbacks));
    // Per-call distributions (expansion times vary wildly across the
    // run's iterations; Table II's shape is about the heavy calls).
    obs::record("summa.spgemm_s", stats.spgemm_time);
    obs::record("summa.bcast_s", stats.bcast_time);
    obs::record("summa.merge_s", stats.merge_time);
    obs::record("summa.overall_s", stats.elapsed);
    obs::record("summa.cpu_idle_s", stats.cpu_idle);
    obs::record("summa.gpu_idle_s", stats.gpu_idle);
  }
  // Estimator-audit actual for the planner's per-rank-per-phase bytes
  // model (the nnz actual joins in core/hipmcl, which knows which
  // estimator produced the prediction).
  obs::mem_measure("memory.phase_bytes",
                   static_cast<double>(unpruned_bytes_) /
                       (static_cast<double>(nranks) *
                        static_cast<double>(opt_.phases)));
  return stats;
}

SummaResult summa_multiply(const DistMat& a, const DistMat& b,
                           sim::SimState& sim, const SummaOptions& opt,
                           const PhaseSink& sink) {
  if (a.ncols() != b.nrows())
    throw std::invalid_argument("summa: inner dimension mismatch");
  if (a.dim() != b.dim())
    throw std::invalid_argument("summa: grid dimension mismatch");
  if (sim.nranks() != a.grid().nranks())
    throw std::invalid_argument("summa: simulator rank count mismatch");
  if (opt.phases <= 0) throw std::invalid_argument("summa: phases <= 0");

  SummaPass pass(a, b, sim.machine(), opt);
  SummaAccounting account(a, sim, opt);
  for (int phase = 0; phase < opt.phases; ++phase) {
    const PhaseCounts& counts = pass.run(phase, opt.phases);
    if (sink) {
      account.charge(counts, [&] { pass.sink(sink, phase); });
    } else {
      account.charge(counts);
    }
  }
  SummaResult result{pass.take_product(), {}};
  result.stats = account.finish(result.c);
  return result;
}

}  // namespace mclx::dist
