// Binary merge — Algorithm 2 of the paper.
//
// Stage results arrive one at a time (as the GPU finishes each local
// multiply). A stack holds partial merges; after pushing stage i, the
// number of trailing merges equals the number of times 2 divides i, and
// each merge folds the top (nmerges+1) stack lists in one pass (the
// paper found successive two-way merges inferior — "instead we choose to
// merge all the lists in L by using a heap"). The pass is kway_merge's
// linear k-pointer fold, which adds in stage order; the virtual time
// still charges Algorithm 2's heap merge (CostModel::merge, lg(ways+1)
// per element).
//
// The schedule itself — which lists merge when, the resident element
// count, the merge events and the ledger mirror — is BinarySchedule,
// which sees list sizes only. BinaryMerger runs it on real lists; the
// SUMMA pipeline runs it on counted ones (dist/summa.cpp), so both
// charge the same events, peaks and ledger tracks.
//
// Grouping: up to five stages every merge folds a prefix of the stage
// list, so the result is the left fold S1 + S2 + … bit for bit, as with
// the multiway and immediate schemes. From six stages the tree groups
// later stages first (stage 6 merges S5 + S6 before joining the rest),
// so the sums agree only to rounding (docs/KERNELS.md, "Fold order").
//
// Versus multiway: a lg lg k factor more work, but (a) merges interleave
// with the remaining SUMMA stages so their cost hides behind the GPU, and
// (b) peak memory shrinks 20-25% because early merges compress duplicate
// coordinates before the final stage (Table III).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "merge/kway.hpp"
#include "merge/merge_stats.hpp"
#include "obs/mem.hpp"
#include "sparse/csc.hpp"

namespace mclx::merge {

/// Algorithm 2's bookkeeping over list sizes. A fold callback
/// `fold(ways, first, end)` merges the top `ways` lists, which hold the
/// 0-based stages [first, end), and returns the merged list's size.
class BinarySchedule {
 public:
  /// What merge work (if any) a push or finalize triggered, so the
  /// pipelined SUMMA can charge its virtual merge time.
  struct Outcome {
    bool merged = false;
    std::uint64_t elements = 0;  ///< inputs to the triggered merge
    int ways = 0;
  };

  /// Lists the merge after pushing 1-based stage `stage` folds: one more
  /// than the number of times 2 divides it, or 0 for no merge.
  static int ways_after(int stage) {
    int nmerges = 0;
    for (int j = stage; j % 2 == 0 && j != 0; j /= 2) ++nmerges;
    return nmerges == 0 ? 0 : nmerges + 1;
  }

  /// The stage ranges [first, end) that `stages` pushes and the final
  /// merge fold, in merge order.
  static std::vector<std::pair<int, int>> merged_ranges(int stages) {
    std::vector<int> firsts;  // first stage of each stacked list
    std::vector<std::pair<int, int>> out;
    const auto merge = [&](std::size_t ways, int end) {
      const std::size_t keep = firsts.size() - ways;
      out.emplace_back(firsts[keep], end);
      firsts.resize(keep + 1);
    };
    for (int s = 0; s < stages; ++s) {
      firsts.push_back(s);
      if (const int ways = ways_after(s + 1)) {
        merge(static_cast<std::size_t>(ways), s + 1);
      }
    }
    if (firsts.size() > 1) merge(firsts.size(), stages);
    return out;
  }

  /// Attach a ledger track: resident elements are mirrored as bytes
  /// (charge on push/merge output, release on compression/finalize), so
  /// the track's high-water independently re-derives
  /// stats().peak_elements. Default tracker is inert.
  void set_mem_tracker(obs::MemTracker tracker) {
    tracker_ = std::move(tracker);
  }

  /// Push the next stage's list of `nnz` elements.
  template <typename Fold>
  Outcome push(std::uint64_t nnz, Fold&& fold) {
    resident_ += nnz;
    tracker_.charge_elements(nnz);
    stack_.push_back({nnz, stage_});
    ++stage_;
    const int ways = ways_after(stage_);
    if (ways == 0) return {};
    return merge_top(ways, fold);
  }

  /// Merge whatever remains on the stack (the final, most expensive merge
  /// — the one the pipeline cannot hide) and start over.
  template <typename Fold>
  Outcome finalize(Fold&& fold) {
    Outcome outcome;
    if (stack_.size() > 1) {
      outcome = merge_top(static_cast<int>(stack_.size()), fold);
    }
    stack_.clear();
    tracker_.release_elements(resident_);
    resident_ = 0;
    stage_ = 0;
    return outcome;
  }

  const MergeStats& stats() const { return stats_; }
  std::uint64_t resident_elements() const { return resident_; }
  std::size_t stack_depth() const { return stack_.size(); }

 private:
  struct Entry {
    std::uint64_t nnz;
    int first_stage;
  };

  template <typename Fold>
  Outcome merge_top(int ways, Fold& fold) {
    MergeEvent e;
    e.ways = ways;
    const std::size_t first = stack_.size() - static_cast<std::size_t>(ways);
    for (std::size_t p = first; p < stack_.size(); ++p) {
      e.elements += stack_[p].nnz;
    }
    // Peak memory of this event is measured before compression: every
    // input list is resident while the merge runs.
    const std::uint64_t resident_at_event = resident_;
    const int first_stage = stack_[first].first_stage;
    e.output_elements = fold(ways, first_stage, stage_);
    stats_.record(e, resident_at_event);

    resident_ -= e.elements;
    resident_ += e.output_elements;
    tracker_.release_elements(e.elements);
    tracker_.charge_elements(e.output_elements);
    stack_.resize(first);
    stack_.push_back({e.output_elements, first_stage});
    return {true, e.elements, e.ways};
  }

  std::vector<Entry> stack_;
  std::uint64_t resident_ = 0;
  int stage_ = 0;
  MergeStats stats_;
  obs::MemTracker tracker_;
};

template <typename IT, typename VT>
class BinaryMerger {
 public:
  using PushOutcome = BinarySchedule::Outcome;

  void set_mem_tracker(obs::MemTracker tracker) {
    schedule_.set_mem_tracker(std::move(tracker));
  }

  /// Push stage result i (1-based stage index tracked internally).
  PushOutcome push(sparse::Csc<IT, VT> list) {
    const std::uint64_t nnz = list.nnz();
    lists_.push_back(std::move(list));
    return schedule_.push(nnz, fold_top());
  }

  /// Merge whatever remains and return the completed block with the
  /// final merge's outcome.
  std::pair<sparse::Csc<IT, VT>, PushOutcome> finalize() {
    const PushOutcome outcome = schedule_.finalize(fold_top());
    sparse::Csc<IT, VT> result;
    if (!lists_.empty()) {
      result = std::move(lists_.back());
      lists_.clear();
    }
    return {std::move(result), outcome};
  }

  const MergeStats& stats() const { return schedule_.stats(); }
  std::uint64_t resident_elements() const {
    return schedule_.resident_elements();
  }
  std::size_t stack_depth() const { return schedule_.stack_depth(); }

 private:
  auto fold_top() {
    return [this](int ways, int, int) -> std::uint64_t {
      const std::size_t first = lists_.size() - static_cast<std::size_t>(ways);
      std::vector<const sparse::Csc<IT, VT>*> tops;
      tops.reserve(static_cast<std::size_t>(ways));
      for (std::size_t p = first; p < lists_.size(); ++p) {
        tops.push_back(&lists_[p]);
      }
      sparse::Csc<IT, VT> merged = kway_merge<IT, VT>(tops);
      lists_.resize(first);
      lists_.push_back(std::move(merged));
      return lists_.back().nnz();
    };
  }

  std::vector<sparse::Csc<IT, VT>> lists_;
  BinarySchedule schedule_;
};

}  // namespace mclx::merge
