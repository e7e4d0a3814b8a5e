#include "core/factory.hpp"

#include <stdexcept>
#include <string>

#include "core/baselines.hpp"
#include "core/basic.hpp"
#include "core/drealloc.hpp"
#include "core/greedy.hpp"
#include "core/optimal.hpp"
#include "core/rand_realloc.hpp"
#include "core/randomized.hpp"
#include "util/str.hpp"

namespace partree::core {

namespace {

struct Spec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
};

Spec parse_spec(std::string_view text) {
  Spec spec;
  const auto colon = text.find(':');
  spec.name = std::string(util::trim(text.substr(0, colon)));
  if (colon != std::string_view::npos) {
    for (const auto& kv : util::split(text.substr(colon + 1), ',')) {
      const auto fields = util::split(kv, '=');
      if (fields.size() != 2) {
        throw std::invalid_argument("malformed allocator parameter '" + kv +
                                    "' in spec '" + std::string(text) + "'");
      }
      spec.params.emplace_back(std::string(util::trim(fields[0])),
                               std::string(util::trim(fields[1])));
    }
  }
  return spec;
}

std::string find_param(const Spec& spec, const std::string& key) {
  for (const auto& [k, v] : spec.params) {
    if (k == key) return v;
  }
  throw std::invalid_argument("allocator spec '" + spec.name +
                              "' requires parameter '" + key + "'");
}

std::uint64_t parse_count(const Spec& spec, const std::string& key) {
  const std::string raw = find_param(spec, key);
  const auto value = util::parse_u64(raw);
  if (!value) {
    throw std::invalid_argument("parameter '" + key + "' of '" + spec.name +
                                "' must be an unsigned integer, got '" + raw +
                                "'");
  }
  return *value;
}

}  // namespace

AllocatorPtr make_allocator(std::string_view text, tree::Topology topo,
                            std::uint64_t seed) {
  const Spec spec = parse_spec(text);
  if (spec.name == "optimal") {
    return std::make_unique<OptimalReallocAllocator>(topo);
  }
  if (spec.name == "greedy") {
    return std::make_unique<GreedyAllocator>();
  }
  if (spec.name == "basic") {
    return std::make_unique<BasicAllocator>(topo);
  }
  if (spec.name == "basic-bestfit") {
    return std::make_unique<BasicAllocator>(topo, tree::CopyFit::kBestFit);
  }
  if (spec.name == "dmix") {
    const std::string d = find_param(spec, "d");
    if (d == "inf") {
      return std::make_unique<DReallocAllocator>(topo, ReallocParam::inf());
    }
    return std::make_unique<DReallocAllocator>(
        topo, ReallocParam::finite(parse_count(spec, "d")));
  }
  if (spec.name == "random") {
    return std::make_unique<RandomizedAllocator>(topo, seed);
  }
  if (spec.name == "randmix") {
    return std::make_unique<RandomizedReallocAllocator>(
        topo, parse_count(spec, "d"), seed);
  }
  if (spec.name == "dchoice") {
    const std::uint64_t k = parse_count(spec, "k");
    if (k == 0) {
      throw std::invalid_argument("parameter 'k' of 'dchoice' must be >= 1");
    }
    return std::make_unique<DChoicesAllocator>(topo, k, seed);
  }
  if (spec.name == "leftmost") {
    return std::make_unique<LeftmostAllocator>(topo);
  }
  if (spec.name == "roundrobin") {
    return std::make_unique<RoundRobinAllocator>(topo);
  }
  throw std::invalid_argument("unknown allocator spec: '" +
                              std::string(text) + "'");
}

std::vector<std::string> known_allocator_specs() {
  return {"optimal",     "greedy",     "basic",       "basic-bestfit",
          "dmix:d=0",    "dmix:d=1",   "dmix:d=2",    "dmix:d=inf",
          "random",      "randmix:d=2", "dchoice:k=2", "leftmost",
          "roundrobin"};
}

}  // namespace partree::core
