// Per-cluster reporting: the summary a biologist reads after clustering —
// cluster sizes, internal cohesion (mean intra-cluster weight, internal
// density) vs external attachment.
#pragma once

#include <string>
#include <vector>

#include "sparse/triples.hpp"
#include "util/types.hpp"

namespace mclx::core {

struct ClusterStats {
  vidx_t id = 0;
  vidx_t size = 0;
  std::uint64_t internal_edges = 0;  ///< undirected intra-cluster pairs
  std::uint64_t external_edges = 0;  ///< undirected pairs leaving the cluster
  double internal_weight = 0;        ///< Σ intra weights (per pair)
  double external_weight = 0;
  /// internal_edges / C(size, 2); 0 for singletons.
  double internal_density = 0;
  /// internal_weight / (internal_weight + external_weight); 1 = isolated.
  double cohesion = 0;
};

struct ClusterReport {
  std::vector<ClusterStats> clusters;  ///< sorted by size, largest first
  double mean_cohesion = 0;            ///< size-weighted
};

/// Per-cluster statistics of `labels` on the (symmetric or directed)
/// weighted graph `edges`.
ClusterReport cluster_report(const sparse::Triples<vidx_t, val_t>& edges,
                             const std::vector<vidx_t>& labels);

/// Multi-line printable digest of the top clusters.
std::string format_report(const ClusterReport& report, int top = 10);

}  // namespace mclx::core
