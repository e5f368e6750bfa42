// Run-metrics registry: named counters and value metrics that any
// layer can report into through the thread's obs::Context
// (obs/context.hpp): recording is off by default (a null check keeps
// instrumented hot paths cheap); install a registry around the region of
// interest and every layer's obs::count()/obs::record() calls land in it.
// Not thread-safe: only driver threads record (the pool's lane rule).
//
// Metric names are dot-scoped by layer ("spgemm.kernel.nsparse",
// "planner.phases", "merge.events", ...); the full catalogue, with units
// and the cost-model symbols they measure, lives in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/context.hpp"
#include "obs/histogram.hpp"

namespace mclx::obs {

class MetricsRegistry {
 public:
  /// Bump counter `name` by `delta` (creates it at zero first).
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Feed `value` into value metric `name`: a log-bucketed histogram
  /// carrying count/sum/min/max/stddev and percentiles.
  void record(std::string_view name, double value);

  /// Fold a privately accumulated histogram into histogram `name`
  /// (see Histogram::merge).
  void merge_histogram(std::string_view name, const Histogram& h);

  /// Counter value; 0 for a counter never bumped.
  std::uint64_t counter(std::string_view name) const;

  /// Histogram, or nullptr if nothing was recorded under `name`.
  const Histogram* histogram(std::string_view name) const;

  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  /// Every metric name in the registry — counters and histograms —
  /// sorted and deduplicated. The stable iteration surface exporters
  /// build on (obs/expo.cpp).
  std::vector<std::string> names() const;

  /// Visit every metric in sorted-name order, one callback per kind.
  /// Counters first, then histograms — each group internally
  /// name-sorted — so output built from it is deterministic for a given
  /// registry content.
  void for_each(
      const std::function<void(std::string_view, std::uint64_t)>& counter_fn,
      const std::function<void(std::string_view, const Histogram&)>&
          histogram_fn) const;

  void clear();
  bool empty() const { return counters_.empty() && histograms_.empty(); }

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Report helpers used at instrumentation sites: no-ops when no registry
/// is installed.
inline void count(std::string_view name, std::uint64_t delta = 1) {
  if (MetricsRegistry* m = context().metrics) m->add(name, delta);
}
inline void record(std::string_view name, double value) {
  if (MetricsRegistry* m = context().metrics) m->record(name, value);
}

}  // namespace mclx::obs
