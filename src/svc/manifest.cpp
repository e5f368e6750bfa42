#include "svc/manifest.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "gen/datasets.hpp"
#include "io/matrix_market.hpp"

namespace mclx::svc {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("svc manifest: " + what);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string resolve(const std::string& path, const std::string& dir) {
  if (dir.empty() || path.empty() || path.front() == '/') return path;
  return dir + "/" + path;
}

// Numeric parse failures name the key and the expected type, so the
// error a manifest author sees ("expected integer for key 'nodes', got
// 'two'") points at the field to fix, not just the offending token.
int parse_int(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  int v = 0;
  bool ok = true;
  try {
    v = std::stoi(value, &used);
  } catch (const std::exception&) {
    ok = false;  // not a number, or out of int range
  }
  if (!ok || used != value.size()) {
    fail("expected integer for key '" + key + "', got '" + value + "'");
  }
  return v;
}

double parse_double(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double v = 0;
  bool ok = true;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    ok = false;  // not a number, or out of double range
  }
  if (!ok || used != value.size()) {
    fail("expected number for key '" + key + "', got '" + value + "'");
  }
  return v;
}

core::HipMclConfig config_by_name(const std::string& name) {
  if (name == "original") return core::HipMclConfig::original();
  if (name == "no-overlap") return core::HipMclConfig::optimized_no_overlap();
  if (name == "optimized") return core::HipMclConfig::optimized();
  fail("unknown config: '" + name + "'");
}

core::EstimatorKind estimator_by_name(const std::string& name) {
  if (name == "exact") return core::EstimatorKind::kExactSymbolic;
  if (name == "probabilistic") return core::EstimatorKind::kProbabilistic;
  if (name == "adaptive") return core::EstimatorKind::kAdaptive;
  fail("unknown estimator: '" + name + "'");
}

}  // namespace

bool parse_manifest_line(const std::string& line, JobSpec& out,
                         const std::string& artifact_dir) {
  // Strip the comment tail, then tokenize.
  const std::size_t hash = line.find('#');
  std::istringstream tokens(hash == std::string::npos ? line
                                                      : line.substr(0, hash));
  JobSpec spec;
  std::string workload;
  double scale = 1.0;
  std::uint64_t dataset_seed = 42;
  std::string config_name = "optimized";
  std::string estimator;
  std::string token;
  bool any = false;
  while (tokens >> token) {
    any = true;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail("expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "id") {
      spec.id = value;
    } else if (key == "workload") {
      workload = value;
    } else if (key == "scale") {
      scale = parse_double(key, value);
      if (!(scale > 0) || !std::isfinite(scale)) {
        fail("scale must be a positive finite number, got '" + value + "'");
      }
    } else if (key == "seed") {
      dataset_seed = static_cast<std::uint64_t>(parse_int(key, value));
    } else if (key == "nodes") {
      spec.nodes = parse_int(key, value);
    } else if (key == "priority") {
      spec.priority = parse_int(key, value);
    } else if (key == "config") {
      config_name = value;
    } else if (key == "estimator") {
      estimator = value;
    } else if (key == "inflation") {
      spec.params.inflation = parse_double(key, value);
    } else if (key == "select-k") {
      spec.params.prune.select_k = parse_int(key, value);
    } else if (key == "cutoff") {
      spec.params.prune.cutoff = parse_double(key, value);
    } else if (key == "recover") {
      spec.params.prune.recover_num = parse_int(key, value);
    } else if (key == "max-iters") {
      spec.params.max_iters = parse_int(key, value);
    } else if (key == "report") {
      spec.report_path = resolve(value, artifact_dir);
    } else if (key == "checkpoint") {
      spec.checkpoint_path = resolve(value, artifact_dir);
    } else if (key == "checkpoint-every") {
      spec.checkpoint_every = parse_int(key, value);
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (!any) return false;  // blank or comment-only line

  spec.config = config_by_name(config_name);
  spec.config_name = config_name;
  spec.cpu_only_machine = config_name == "original";
  if (!estimator.empty()) spec.config.estimator = estimator_by_name(estimator);

  if (workload.empty()) fail("job without workload=");
  spec.workload = workload;
  if (ends_with(workload, ".mtx")) {
    spec.graph = io::read_matrix_market_file(resolve(workload, artifact_dir));
  } else {
    spec.graph = gen::make_dataset(workload, scale, dataset_seed).graph.edges;
  }

  out = std::move(spec);
  return true;
}

std::vector<JobSpec> load_manifest(const std::string& path,
                                   const std::string& artifact_dir) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("svc manifest: cannot read " + path);
  std::vector<JobSpec> jobs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    JobSpec spec;
    try {
      if (parse_manifest_line(line, spec, artifact_dir)) {
        jobs.push_back(std::move(spec));
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string(e.what()) + " (line " +
                                  std::to_string(lineno) + " of " + path +
                                  ")");
    }
  }
  return jobs;
}

}  // namespace mclx::svc
