#include "obs/metrics.hpp"

#include <algorithm>

namespace mclx::obs {

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::record(std::string_view name, double value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  it->second.record(value);
}

void MetricsRegistry::merge_histogram(std::string_view name,
                                      const Histogram& h) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  it->second.merge(h);
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const Histogram* MetricsRegistry::histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(counters_.size() + histograms_.size());
  for (const auto& [name, value] : counters_) out.push_back(name);
  for (const auto& [name, value] : histograms_) out.push_back(name);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void MetricsRegistry::for_each(
    const std::function<void(std::string_view, std::uint64_t)>& counter_fn,
    const std::function<void(std::string_view, const Histogram&)>&
        histogram_fn) const {
  // The maps are already name-sorted; the kind order is part of the
  // contract (see the header).
  if (counter_fn) {
    for (const auto& [name, value] : counters_) counter_fn(name, value);
  }
  if (histogram_fn) {
    for (const auto& [name, hist] : histograms_) histogram_fn(name, hist);
  }
}

void MetricsRegistry::clear() {
  counters_.clear();
  histograms_.clear();
}

}  // namespace mclx::obs
