// RunReport: the machine-readable perf trajectory of one HipMCL run as
// JSON Lines — one flat record per line, schema-stable so files written
// by different PRs stay comparable. Record types:
//
//   run_meta     — one per file: schema version, workload, configuration
//   iteration    — one per MCL iteration: the quantities behind Fig 1's
//                  breakdown, Tab 2's overlap, Tab 3's merge memory and
//                  Fig 6's estimator error, in virtual seconds / counts
//   counter      — one per MetricsRegistry counter (name, value)
//   histogram    — one per MetricsRegistry value metric
//                  (count/sum/min/max/stddev/p50/p95/p99)
//   run_summary  — one per file: whole-run stage budget and outcome
//
// Field names, units and the cost-model symbols each metric measures are
// documented in docs/OBSERVABILITY.md; the schemas are introspectable
// here (iteration_schema() etc.) so tests can pin them.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/hipmcl.hpp"
#include "obs/metrics.hpp"

namespace mclx::obs {

/// Version 2: observation records gained `stddev`, the `histogram`
/// record type was added (both PR 3); version 1 was the initial layout.
/// Version 3 added run_meta `threads`; version 4 added run_meta
/// `vm_hwm_bytes` and iteration `measured_unpruned_nnz`. Version 5 tags
/// run_meta with `job_id` so per-job streams from the service layer
/// (docs/SERVICE.md) stay attributable after aggregation ("" for
/// standalone runs). Version 6 folds `observation` records into
/// `histogram`, which gains `stddev`: one record per value metric.
/// Version 7 drops iteration `exact_unpruned_nnz`, which only repeated
/// `measured_unpruned_nnz`.
inline constexpr std::uint64_t kReportSchemaVersion = 7;

/// Stage index -> report field name for the six Fig 1 stages
/// ("t_local_spgemm_s" … "t_other_s"); the single source of truth shared
/// by the iteration/run_summary records and bench_regression's
/// `virtual` block.
const std::array<std::string_view, sim::kNumStages>& stage_field_names();

/// Scalar JSONL field value. Only flat scalars: schema stability is the
/// point, and nested objects would invite per-PR drift.
using Value = std::variant<bool, std::uint64_t, double, std::string>;

enum class FieldType : std::size_t {
  kBool = 0,
  kUInt = 1,
  kDouble = 2,
  kString = 3,
};

inline FieldType type_of(const Value& v) {
  return static_cast<FieldType>(v.index());
}
std::string_view field_type_name(FieldType t);

/// One JSONL record: a type tag plus ordered (name, value) fields.
struct Record {
  std::string type;
  std::vector<std::pair<std::string, Value>> fields;

  void add(std::string_view name, Value value) {
    fields.emplace_back(std::string(name), std::move(value));
  }
  /// First field named `name`, or nullptr.
  const Value* find(std::string_view name) const;
};

/// Declarative schema entry for one record field.
struct FieldSpec {
  std::string_view name;
  FieldType type;
};

/// The pinned schemas (field order matters: files are diffable).
const std::vector<FieldSpec>& run_meta_schema();
const std::vector<FieldSpec>& iteration_schema();
const std::vector<FieldSpec>& run_summary_schema();
const std::vector<FieldSpec>& counter_schema();
const std::vector<FieldSpec>& histogram_schema();

/// True when `r.fields` matches `schema` exactly (names, order, types);
/// on mismatch and non-null `why`, a human-readable reason is stored.
bool matches_schema(const Record& r, const std::vector<FieldSpec>& schema,
                    std::string* why = nullptr);

class RunReport {
 public:
  void add(Record record) { records_.push_back(std::move(record)); }
  const std::vector<Record>& records() const { return records_; }

  /// Records of one type, in file order.
  std::vector<const Record*> records_of(std::string_view type) const;

  /// JSON Lines, one record per line, "type" always the first key.
  void write_jsonl(std::ostream& os) const;
  void write_jsonl_file(const std::string& path) const;

  /// Parse a JSONL stream produced by write_jsonl (flat records with
  /// scalar values). Throws std::runtime_error on malformed input.
  static RunReport read_jsonl(std::istream& is);
  static RunReport read_jsonl_file(const std::string& path);

 private:
  std::vector<Record> records_;
};

/// Workload / configuration description for the run_meta record.
struct RunInfo {
  std::string workload;   ///< dataset or input-file description
  std::string job_id;     ///< service job id ("" for standalone runs)
  std::string config;     ///< original | no-overlap | optimized | ...
  std::string estimator;  ///< exact | probabilistic | adaptive
  std::uint64_t nodes = 0;
  std::uint64_t nranks = 0;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t threads = 1;  ///< per-rank pool width (par::threads())
};

/// Record-level factories, shared by make_run_report and the service
/// layer's streaming writer (svc::Scheduler emits run_meta immediately,
/// then one iteration record per completed iteration while the job is
/// still running, then metrics + run_summary at the end — same records,
/// same schemas, just incrementally flushed).
Record make_run_meta_record(const RunInfo& info);
Record make_iteration_record(const core::IterationReport& it);
Record make_run_summary_record(const core::MclResult& result);
/// Counter and histogram records for every metric in the registry,
/// appended in catalogue order.
void append_metrics_records(RunReport& report, const MetricsRegistry& metrics);
/// One JSONL line for a single record ("type" first, trailing newline) —
/// the streaming writer's unit of output.
void write_record_jsonl(std::ostream& os, const Record& r);

/// Build the full report for a finished run: run_meta, one iteration
/// record per MclResult iteration, the registry's counters/histograms
/// (when given), and the run_summary.
RunReport make_run_report(const core::MclResult& result, const RunInfo& info,
                          const MetricsRegistry* metrics = nullptr);

/// Counter/histogram records only, no run attached — for harnesses
/// that aggregate several runs into one registry.
RunReport make_metrics_report(const MetricsRegistry& metrics);

/// JSON string escaping ('"', '\\', control chars) — shared with the
/// bench writers that emit nested JSON by hand.
std::string json_escaped(std::string_view s);

/// Decodes a JSON string whose body starts at s[i], just past the opening
/// quote, into `out`, and moves i past the closing quote. Reads every
/// escape json_escaped writes and the other short ones (\/ \b \f), and
/// \u escapes up to 0xFF only. Returns nullptr, or the fault's message
/// with i just past the fault; `ended` is the message when the input
/// ends first. Shared by the run-report reader and flatten_json.
const char* json_unescape(std::string_view s, std::size_t& i,
                          std::string& out, const char* ended);

/// Round-trippable JSON number for a double (non-finite values are
/// written as 0: JSON has no NaN/Inf and the reports must stay loadable).
std::string json_number(double v);

}  // namespace mclx::obs
