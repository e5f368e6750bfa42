#include "merge/merge_stats.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace mclx::merge {

void MergeStats::record(const MergeEvent& e, std::uint64_t resident) {
  elements_processed += e.elements;
  peak_elements = std::max(peak_elements, resident);
  ++merge_events;
  events.push_back(e);
  if (obs::context().metrics) {
    obs::count("merge.events");
    obs::count("merge.elements", e.elements);
    // Distributions: Table III's memory argument lives in the tail
    // (p95/p99 widths and peaks), which min/max/mean alone hide.
    obs::record("merge.ways", static_cast<double>(e.ways));
    obs::record("merge.peak_elements", static_cast<double>(resident));
  }
}

double MergeStats::weighted_ops() const {
  double total = 0;
  for (const auto& e : events) {
    total += static_cast<double>(e.elements) *
             std::log2(static_cast<double>(e.ways) + 1.0);
  }
  return total;
}

std::uint64_t peak_bytes(const MergeStats& stats, std::size_t bytes_per_elem) {
  return stats.peak_elements * static_cast<std::uint64_t>(bytes_per_elem);
}

}  // namespace mclx::merge
