#include "core/report.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "util/table.hpp"

namespace mclx::core {

ClusterReport cluster_report(const sparse::Triples<vidx_t, val_t>& edges,
                             const std::vector<vidx_t>& labels) {
  if (edges.nrows() != edges.ncols())
    throw std::invalid_argument("cluster_report: graph must be square");
  if (labels.size() != static_cast<std::size_t>(edges.nrows()))
    throw std::invalid_argument("cluster_report: label count mismatch");

  std::unordered_map<vidx_t, ClusterStats> stats;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    auto& s = stats[labels[v]];
    s.id = labels[v];
    ++s.size;
  }

  // Deduplicate unordered pairs (tolerate one- or two-directional input).
  std::map<std::pair<vidx_t, vidx_t>, val_t> pairs;
  for (const auto& e : edges) {
    if (e.row == e.col) continue;
    const auto key = e.row < e.col ? std::make_pair(e.row, e.col)
                                   : std::make_pair(e.col, e.row);
    auto [it, inserted] = pairs.emplace(key, e.val);
    if (!inserted && e.val > it->second) it->second = e.val;
  }
  for (const auto& [pair, w] : pairs) {
    const vidx_t lu = labels[static_cast<std::size_t>(pair.first)];
    const vidx_t lv = labels[static_cast<std::size_t>(pair.second)];
    if (lu == lv) {
      auto& s = stats[lu];
      ++s.internal_edges;
      s.internal_weight += w;
    } else {
      for (const vidx_t l : {lu, lv}) {
        auto& s = stats[l];
        ++s.external_edges;
        s.external_weight += w;
      }
    }
  }

  ClusterReport report;
  double weighted_cohesion = 0;
  std::uint64_t total_size = 0;
  for (auto& [id, s] : stats) {
    const double possible =
        static_cast<double>(s.size) * static_cast<double>(s.size - 1) / 2.0;
    s.internal_density =
        possible > 0 ? static_cast<double>(s.internal_edges) / possible : 0;
    const double mass = s.internal_weight + s.external_weight;
    s.cohesion = mass > 0 ? s.internal_weight / mass : 1.0;
    weighted_cohesion += s.cohesion * static_cast<double>(s.size);
    total_size += static_cast<std::uint64_t>(s.size);
    report.clusters.push_back(s);
  }
  std::sort(report.clusters.begin(), report.clusters.end(),
            [](const ClusterStats& a, const ClusterStats& b) {
              if (a.size != b.size) return a.size > b.size;
              return a.id < b.id;
            });
  report.mean_cohesion =
      total_size > 0 ? weighted_cohesion / static_cast<double>(total_size)
                     : 0;
  return report;
}

std::string format_report(const ClusterReport& report, int top) {
  util::Table t("Cluster report (top " +
                std::to_string(std::min<std::size_t>(
                    static_cast<std::size_t>(top), report.clusters.size())) +
                " of " + std::to_string(report.clusters.size()) + ")");
  t.header({"cluster", "size", "int. edges", "ext. edges", "density",
            "cohesion"});
  int shown = 0;
  for (const auto& c : report.clusters) {
    if (shown++ >= top) break;
    t.row({util::Table::fmt_int(c.id), util::Table::fmt_int(c.size),
           util::Table::fmt_int(static_cast<long long>(c.internal_edges)),
           util::Table::fmt_int(static_cast<long long>(c.external_edges)),
           util::Table::fmt(c.internal_density, 2),
           util::Table::fmt(c.cohesion, 2)});
  }
  t.note("size-weighted mean cohesion: " +
         util::Table::fmt(report.mean_cohesion, 3));
  return t.to_string();
}

}  // namespace mclx::core
