// Multiway merge: original HipMCL's scheme. All k stage results are kept
// until the SUMMA finishes, then merged in one k-way pass — O(kn lg k)
// time with the heap the paper describes, which is what the virtual time
// charges (CostModel::merge), but peak memory is the *sum of every
// intermediate result*, and nothing can overlap with the local
// multiplications (§IV). The host runs kway_merge's linear k-pointer
// fold, which adds the stages left to right.
//
// As with the binary merge, the bookkeeping (MultiwaySchedule) sees list
// sizes only, so the SUMMA pipeline replays it on counted lists.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "merge/kway.hpp"
#include "merge/merge_stats.hpp"
#include "obs/mem.hpp"
#include "sparse/csc.hpp"

namespace mclx::merge {

/// The multiway scheme's bookkeeping over list sizes: every push stays
/// resident, and finalize records one event when more than one list
/// needs merging; `fold()` merges them and returns the merged size.
class MultiwaySchedule {
 public:
  /// Attach a ledger track mirroring resident elements as bytes (see
  /// BinarySchedule::set_mem_tracker). Default tracker is inert.
  void set_mem_tracker(obs::MemTracker tracker) {
    tracker_ = std::move(tracker);
  }

  void push(std::uint64_t nnz) {
    resident_ += nnz;
    tracker_.charge_elements(nnz);
    ++lists_;
  }

  /// The single k-way merge; a single list needs none and records no
  /// event. Returns the event (ways 0 when none) and starts over.
  template <typename Fold>
  MergeEvent finalize(Fold&& fold) {
    MergeEvent e;
    if (lists_ > 1) {
      e.ways = lists_;
      e.elements = resident_;
      e.output_elements = fold();
      stats_.record(e, resident_);
    }
    tracker_.release_elements(resident_);
    resident_ = 0;
    lists_ = 0;
    return e;
  }

  const MergeStats& stats() const { return stats_; }
  std::uint64_t resident_elements() const { return resident_; }

 private:
  int lists_ = 0;
  std::uint64_t resident_ = 0;
  MergeStats stats_;
  obs::MemTracker tracker_;
};

template <typename IT, typename VT>
class MultiwayMerger {
 public:
  void set_mem_tracker(obs::MemTracker tracker) {
    schedule_.set_mem_tracker(std::move(tracker));
  }

  /// Stage results accumulate; no work happens until finalize().
  void push(sparse::Csc<IT, VT> list) {
    schedule_.push(list.nnz());
    lists_.push_back(std::move(list));
  }

  /// The single k-way merge. Consumes the stored lists.
  sparse::Csc<IT, VT> finalize() {
    sparse::Csc<IT, VT> out;
    if (lists_.size() == 1) out = std::move(lists_.front());
    schedule_.finalize([&] {
      out = kway_merge(lists_);
      return static_cast<std::uint64_t>(out.nnz());
    });
    lists_.clear();
    return out;
  }

  const MergeStats& stats() const { return schedule_.stats(); }
  std::uint64_t resident_elements() const {
    return schedule_.resident_elements();
  }

 private:
  std::vector<sparse::Csc<IT, VT>> lists_;
  MultiwaySchedule schedule_;
};

}  // namespace mclx::merge
