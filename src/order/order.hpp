// Locality orderings for the MCL pipeline (ROADMAP item 1's second
// half, after arXiv:2507.21253): permute the graph so the rows an
// output column's products collide on sit close together, shrinking the
// hash accumulator's working set. Three strategies, all deterministic:
//
//   degree   sort vertices by (degree, id) — cheap, groups hubs
//   rcm      reverse Cuthill–McKee BFS — minimizes pattern bandwidth
//   cluster  connected components first (smallest-member order, the
//            dist/cc.cpp labeling), BFS within each — the cluster-wise
//            layout: a converged-ish family becomes one contiguous,
//            cache-resident index range
//
// The pipeline default is read from the MCLX_REORDER environment
// variable (the CI leg-4 switch): none/off/0/unset disable, on/1 pick
// rcm, or name a strategy directly.
#pragma once

#include <optional>
#include <string_view>

#include "order/permutation.hpp"
#include "sparse/csc.hpp"
#include "util/types.hpp"

namespace mclx::order {

enum class OrderKind {
  kNone,     ///< identity — reorder-off
  kDegree,   ///< (degree, id) sort
  kRcm,      ///< reverse Cuthill–McKee bandwidth reduction
  kCluster,  ///< component-contiguous BFS ordering
  kDefault,  ///< resolve from the MCLX_REORDER environment variable
};

std::string_view order_name(OrderKind k);

/// Parses a strategy name (case-sensitive, the forms MCLX_REORDER and
/// hipmcl_cli --order accept): "none"/"off"/"0" → kNone, "on"/"1" →
/// kRcm, "degree"/"rcm"/"cluster" → themselves. nullopt on anything
/// else.
std::optional<OrderKind> parse_order_kind(std::string_view name);

/// kDefault → the MCLX_REORDER environment variable (unset or
/// unparsable → kNone); anything else passes through.
OrderKind resolve_order_kind(OrderKind k);

/// Computes the ordering of `pattern` (a square symmetric-structure
/// adjacency; MCL inputs are made symmetric upstream). kNone and
/// kDefault are caller-resolved states, not strategies: they throw.
/// Deterministic: same pattern, same permutation, any thread count.
Permutation compute_order(OrderKind k, const sparse::Csc<vidx_t, val_t>& pattern);

}  // namespace mclx::order
