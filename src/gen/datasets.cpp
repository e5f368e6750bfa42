#include "gen/datasets.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace mclx::gen {

namespace {

PlantedParams recipe_for(const std::string& name, double size_scale,
                         std::uint64_t seed, std::string& analog) {
  PlantedParams p;
  p.seed = seed;
  // Mean family ~20 with p_in 0.5 gives columns that densify quickly under
  // expansion (cf grows across early iterations, as in the paper's runs).
  if (name == "tiny") {
    analog = "unit-test scale";
    p.n = 300;
    p.mean_family = 12;
    p.out_degree = 1.0;
  } else if (name == "archaea-mini") {
    analog = "archaea (1.6M proteins / 205M connections)";
    p.n = 4000;
    p.mean_family = 18;
    p.p_in = 0.45;
    p.out_degree = 2.0;
  } else if (name == "eukarya-mini") {
    analog = "eukarya (3.2M proteins / 360M connections)";
    p.n = 6000;
    p.mean_family = 20;
    p.p_in = 0.45;
    p.out_degree = 2.5;
  } else if (name == "isom-mini") {
    analog = "isom100-3 / isom100-1 (8.7M–35M proteins, dense)";
    p.n = 10000;
    p.mean_family = 26;
    p.p_in = 0.55;  // denser families: the high-cf network
    p.out_degree = 3.0;
  } else if (name == "metaclust-mini") {
    analog = "metaclust50 (383M proteins / 37B connections, sparse)";
    p.n = 20000;
    p.mean_family = 7;    // many small families
    p.max_family = 80;    // shorter tail than the isolate-genome graphs
    p.p_in = 0.35;
    p.out_degree = 1.0;   // much sparser => lower cf than isom
  } else {
    throw std::invalid_argument("unknown dataset: " + name);
  }
  // The floor of 50 vertices is for small positive scales; NaN, ±Inf,
  // zero, negative scales and sizes past vidx_t have no graph.
  const double n = static_cast<double>(p.n) * size_scale;
  if (!(size_scale > 0) || !(n < std::numeric_limits<vidx_t>::max())) {
    std::ostringstream msg;
    msg << "make_dataset: scale must be positive and size '" << name
        << "' below " << std::numeric_limits<vidx_t>::max()
        << " vertices, got " << size_scale;
    throw std::invalid_argument(msg.str());
  }
  p.n = std::max<vidx_t>(50, static_cast<vidx_t>(std::llround(n)));
  return p;
}

}  // namespace

Dataset make_dataset(const std::string& name, double size_scale,
                     std::uint64_t seed) {
  Dataset d;
  d.name = name;
  const PlantedParams p = recipe_for(name, size_scale, seed, d.paper_analog);
  d.graph = planted_partition(p);
  return d;
}

std::vector<std::string> medium_dataset_names() {
  return {"archaea-mini", "eukarya-mini", "isom-mini"};
}

std::vector<std::string> all_dataset_names() {
  return {"archaea-mini", "eukarya-mini", "isom-mini", "metaclust-mini"};
}

}  // namespace mclx::gen
