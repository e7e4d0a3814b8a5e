// String-spec allocator factory for CLIs, benches and experiment configs.
//
// Spec grammar: `name` or `name:key=value[,key=value...]`, e.g.
//   "optimal"          A_C, the optimal 0-reallocation algorithm (A_M
//                      at d = 0 under its own name)
//   "greedy"           A_G (LoadTree::min_load_node)
//   "basic"            A_B
//   "dmix:d=2"         A_M with reallocation parameter d = 2
//   "dmix:d=inf"       A_M that never reallocates (== greedy regime)
//   "random"           Section 5.1 oblivious randomized algorithm
//   "randmix:d=2"      randomization + d-reallocation (the paper's
//                      future-work combination)
//   "dchoice:k=2"      power-of-k-choices baseline
//   "leftmost"         naive leftmost baseline
//   "roundrobin"       cycling baseline
#pragma once

#include <string_view>
#include <vector>

#include "core/allocator.hpp"
#include "tree/topology.hpp"

namespace partree::core {

/// Builds an allocator from a spec string. Throws std::invalid_argument on
/// unknown names or malformed parameters. `seed` feeds randomized
/// algorithms (ignored by deterministic ones).
[[nodiscard]] AllocatorPtr make_allocator(std::string_view spec,
                                          tree::Topology topo,
                                          std::uint64_t seed = 1);

/// All spec names that make_allocator accepts (with example parameters);
/// useful for CLI help and exhaustive property tests.
[[nodiscard]] std::vector<std::string> known_allocator_specs();

}  // namespace partree::core
