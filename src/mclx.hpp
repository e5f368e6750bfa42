// MCLX public umbrella header.
//
// Downstream users who just want "cluster this network on a simulated
// machine" need only:
//
//   #include "mclx.hpp"
//   auto machine = mclx::sim::summit_like(16);
//   mclx::sim::SimState sim(machine);
//   auto result = mclx::core::run_hipmcl(graph, {},
//                                        mclx::core::HipMclConfig::optimized(),
//                                        sim);
//
// Finer-grained pieces (kernels, SUMMA, estimators, generators) are
// reachable through the individual headers re-exported here.
#pragma once

#include "core/chaos.hpp"
#include "core/checkpoint.hpp"
#include "core/hipmcl.hpp"
#include "core/inflate.hpp"
#include "core/interpret.hpp"
#include "core/prune.hpp"
#include "core/quality.hpp"
#include "core/report.hpp"
#include "dist/cc.hpp"
#include "dist/distmat.hpp"
#include "dist/grid.hpp"
#include "dist/summa.hpp"
#include "dist/summa3d.hpp"
#include "estimate/cohen.hpp"
#include "estimate/planner.hpp"
#include "gen/datasets.hpp"
#include "gen/er.hpp"
#include "gen/planted.hpp"
#include "gen/rmat.hpp"
#include "io/matrix_market.hpp"
#include "merge/binary.hpp"
#include "merge/immediate.hpp"
#include "merge/multiway.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/context.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/flight_recorder.hpp"
#include "obs/run_report.hpp"
#include "obs/trace_analysis.hpp"
#include "sim/collectives.hpp"
#include "sim/eventlog.hpp"
#include "sim/costmodel.hpp"
#include "sim/machine.hpp"
#include "sim/timeline.hpp"
#include "sparse/convert.hpp"
#include "sparse/csc.hpp"
#include "sparse/dcsc.hpp"
#include "sparse/ops.hpp"
#include "sparse/permute.hpp"
#include "sparse/triples.hpp"
#include "spgemm/hash.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/spa.hpp"
#include "spgemm/symbolic.hpp"
#include "svc/manifest.hpp"
#include "svc/scheduler.hpp"
#include "util/parallel.hpp"
#include "util/types.hpp"
