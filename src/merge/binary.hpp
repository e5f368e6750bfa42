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

#include <utility>
#include <vector>

#include "merge/kway.hpp"
#include "merge/merge_stats.hpp"
#include "obs/mem.hpp"
#include "sparse/csc.hpp"

namespace mclx::merge {

template <typename IT, typename VT>
class BinaryMerger {
 public:
  /// Attach a ledger track: resident elements are mirrored as bytes
  /// (charge on push/merge output, release on compression/finalize), so
  /// the track's high-water independently re-derives this merger's
  /// stats().peak_elements. Default tracker is inert.
  void set_mem_tracker(obs::MemTracker tracker) {
    tracker_ = std::move(tracker);
  }
  /// Result of one push: what merge work (if any) it triggered, so the
  /// pipelined SUMMA can charge the virtual merge time for this stage.
  struct PushOutcome {
    bool merged = false;
    std::uint64_t elements = 0;  ///< inputs to the triggered merge
    int ways = 0;
  };

  /// Push stage result i (1-based stage index tracked internally).
  PushOutcome push(sparse::Csc<IT, VT> list) {
    resident_ += list.nnz();
    tracker_.charge_elements(list.nnz());
    stack_.push_back(std::move(list));
    ++stage_;

    int nmerges = 0;
    for (int j = stage_; j % 2 == 0 && j != 0; j /= 2) ++nmerges;
    if (nmerges == 0) return {};

    return merge_top(nmerges + 1);
  }

  /// Merge whatever remains on the stack (the final, most expensive merge
  /// — the one the pipeline cannot hide). Returns the completed block and
  /// the outcome for cost charging.
  std::pair<sparse::Csc<IT, VT>, PushOutcome> finalize() {
    PushOutcome outcome;
    if (stack_.size() > 1) {
      outcome = merge_top(static_cast<int>(stack_.size()));
    }
    sparse::Csc<IT, VT> result;
    if (!stack_.empty()) {
      result = std::move(stack_.back());
      stack_.clear();
    }
    tracker_.release_elements(resident_);
    resident_ = 0;
    stage_ = 0;
    return {std::move(result), outcome};
  }

  const MergeStats& stats() const { return stats_; }
  std::uint64_t resident_elements() const { return resident_; }
  std::size_t stack_depth() const { return stack_.size(); }

 private:
  PushOutcome merge_top(int count) {
    MergeEvent e;
    e.ways = count;
    std::vector<const sparse::Csc<IT, VT>*> tops;
    tops.reserve(static_cast<std::size_t>(count));
    const std::size_t first = stack_.size() - static_cast<std::size_t>(count);
    for (std::size_t p = first; p < stack_.size(); ++p) {
      tops.push_back(&stack_[p]);
      e.elements += stack_[p].nnz();
    }
    // Peak memory of this event is measured before compression: every
    // input list is resident while the merge runs.
    const std::uint64_t resident_at_event = resident_;
    sparse::Csc<IT, VT> merged = kway_merge<IT, VT>(tops);
    e.output_elements = merged.nnz();
    stats_.record(e, resident_at_event);

    resident_ -= e.elements;
    resident_ += merged.nnz();
    tracker_.release_elements(e.elements);
    tracker_.charge_elements(merged.nnz());
    stack_.resize(first);
    stack_.push_back(std::move(merged));

    PushOutcome outcome;
    outcome.merged = true;
    outcome.elements = e.elements;
    outcome.ways = e.ways;
    return outcome;
  }

  std::vector<sparse::Csc<IT, VT>> stack_;
  std::uint64_t resident_ = 0;
  int stage_ = 0;
  MergeStats stats_;
  obs::MemTracker tracker_;
};

}  // namespace mclx::merge
