// Multiway merge: original HipMCL's scheme. All k stage results are kept
// until the SUMMA finishes, then merged in one k-way pass — O(kn lg k)
// time with the heap the paper describes, which is what the virtual time
// charges (CostModel::merge), but peak memory is the *sum of every
// intermediate result*, and nothing can overlap with the local
// multiplications (§IV). The host runs kway_merge's linear k-pointer
// fold, which adds the stages left to right.
#pragma once

#include <utility>
#include <vector>

#include "merge/kway.hpp"
#include "merge/merge_stats.hpp"
#include "obs/mem.hpp"
#include "sparse/csc.hpp"

namespace mclx::merge {

template <typename IT, typename VT>
class MultiwayMerger {
 public:
  /// Attach a ledger track mirroring resident elements as bytes (see
  /// BinaryMerger::set_mem_tracker). Default tracker is inert.
  void set_mem_tracker(obs::MemTracker tracker) {
    tracker_ = std::move(tracker);
  }

  /// Stage results accumulate; no work happens until finalize().
  void push(sparse::Csc<IT, VT> list) {
    resident_ += list.nnz();
    tracker_.charge_elements(list.nnz());
    lists_.push_back(std::move(list));
  }

  /// The single k-way merge. Consumes the stored lists. A single stored
  /// list needs no merge and records no event.
  sparse::Csc<IT, VT> finalize() {
    if (lists_.empty()) return {};
    if (lists_.size() == 1) {
      sparse::Csc<IT, VT> only = std::move(lists_.front());
      lists_.clear();
      tracker_.release_elements(resident_);
      resident_ = 0;
      return only;
    }
    MergeEvent e;
    e.ways = static_cast<int>(lists_.size());
    for (const auto& l : lists_) e.elements += l.nnz();
    sparse::Csc<IT, VT> merged = kway_merge(lists_);
    e.output_elements = merged.nnz();
    stats_.record(e, resident_);
    lists_.clear();
    tracker_.release_elements(resident_);
    resident_ = 0;
    return merged;
  }

  const MergeStats& stats() const { return stats_; }
  std::uint64_t resident_elements() const { return resident_; }

 private:
  std::vector<sparse::Csc<IT, VT>> lists_;
  std::uint64_t resident_ = 0;
  MergeStats stats_;
  obs::MemTracker tracker_;
};

}  // namespace mclx::merge
