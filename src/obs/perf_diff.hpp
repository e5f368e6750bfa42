// Perf diff: field-by-field comparison of two perf reports (the nested
// BENCH_regression.json, or any JSON document flattened to dotted
// paths), with per-field direction and tolerance rules. This is the
// enforcement half of the observability story: bench_regression *emits*
// a deterministic trajectory, diff_reports turns a pair of them into a
// verdict table and a pass/fail bit the CI perf gate can act on.
//
// Policy (see direction rules in perf_diff.cpp):
//  * `real_wall_s` is machine noise — ignored by default;
//  * time/idle/memory/error fields are directional: lower is an
//    improvement, higher a regression;
//  * quality fields (f1, modularity) are directional the other way;
//  * everything else (iterations, nnz, counts, names) is deterministic
//    for a given tree — any change beyond tolerance is a regression.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/table.hpp"

namespace mclx::obs {

/// One scalar leaf of a flattened JSON document.
struct FlatValue {
  enum class Kind { kNumber, kBool, kString, kNull };
  Kind kind = Kind::kNumber;
  double number = 0;       ///< numeric view (kNumber/kBool)
  std::string text;        ///< raw token (numbers) or value (strings)
};

/// Dotted-path -> leaf; arrays flatten with numeric components
/// ("iters.0.chaos").
using FlatDoc = std::map<std::string, FlatValue>;

/// Parse arbitrary (small) JSON and flatten it. Throws
/// std::runtime_error, naming the offset and the fault, on malformed input
/// and on objects and arrays nested deeper than 64 levels.
FlatDoc flatten_json(std::string_view text);
FlatDoc flatten_json_file(const std::string& path);

enum class Verdict {
  kEqual,            ///< exactly equal
  kWithinTolerance,  ///< numeric change within rel_tol
  kImproved,         ///< directional field moved the good way
  kRegressed,        ///< moved the bad way, changed (neutral), or type flip
  kMissing,          ///< in baseline only, strict mode (fails)
  kRemoved,          ///< in baseline only: removed field, skipped (default)
  kAdded,            ///< in candidate only: new field, skipped
  kIgnored,          ///< excluded by policy (real_wall_s, --ignore)
};
std::string_view verdict_name(Verdict v);

struct FieldDiff {
  std::string path;
  Verdict verdict = Verdict::kEqual;
  std::string baseline;   ///< rendering of the baseline value ("-" if absent)
  std::string candidate;  ///< rendering of the candidate value
  double rel_delta = 0;   ///< |c-b| / max(|b|,|c|) for numeric fields
};

struct DiffOptions {
  /// Relative tolerance for numeric fields. The deterministic fields
  /// are exactly reproducible on one machine; the small default only
  /// absorbs cross-compiler floating-point representation noise.
  double rel_tol = 1e-9;
  bool ignore_real_wall = true;
  /// Baseline-only fields fail the gate (Verdict::kMissing) instead of
  /// being reported as removed-and-skipped. Off by default so a schema
  /// bump that drops fields diffs cleanly against an older baseline —
  /// the value-level comparison of every shared field still gates.
  bool strict_missing = false;
  /// Additional ignored path prefixes.
  std::vector<std::string> ignored_prefixes;
};

struct DiffResult {
  std::vector<FieldDiff> fields;  ///< path order (union of both docs)
  std::size_t count(Verdict v) const;
  /// Gate verdict: no regressions and nothing missing (kMissing only
  /// arises under DiffOptions::strict_missing; the default maps
  /// baseline-only fields to the non-failing kRemoved).
  bool ok() const {
    return count(Verdict::kRegressed) == 0 && count(Verdict::kMissing) == 0;
  }
};

DiffResult diff_reports(const FlatDoc& baseline, const FlatDoc& candidate,
                        const DiffOptions& opt = {});

/// Verdict table: all changed/failed fields (every field when `all`).
util::Table verdict_table(const DiffResult& d, bool all = false);

/// One-line tally ("N fields: E equal, ... — OK/REGRESSED").
std::string summarize(const DiffResult& d);

/// Machine-readable diff for CI annotation (mclx_perfdiff --json):
/// {"ok", "counts": {<verdict>: n, ...}, "fields": [{"path", "verdict",
/// "baseline", "candidate", "rel_delta"}, ...]}. `all` includes the
/// equal/within-tol/ignored fields; the default emits only the
/// interesting ones (same filter as verdict_table).
void write_diff_json(std::ostream& os, const DiffResult& d, bool all = false);

}  // namespace mclx::obs
