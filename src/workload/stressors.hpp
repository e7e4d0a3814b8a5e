// Deterministic stress sequences that provoke fragmentation.
#pragma once

#include <cstdint>

#include "core/sequence.hpp"
#include "tree/topology.hpp"

namespace partree::workload {

/// Fill the machine with size-`size` tasks, drain completely, repeat.
/// Exercises allocator bookkeeping; optimal load stays 1.
[[nodiscard]] core::TaskSequence fill_drain(tree::Topology topo,
                                            std::uint64_t size,
                                            std::uint64_t rounds);

/// The staircase nemesis: phase i fills the residual capacity with
/// size-2^i tasks, then departs every second task of the phase, leaving a
/// comb of holes the next (doubled) size cannot reuse in place. Against
/// no-reallocation algorithms this drives load toward Theta(log N) while
/// the optimal load stays 1 -- a fixed-sequence cousin of the adaptive
/// Theorem 4.3 adversary (which remains the stronger construction).
[[nodiscard]] core::TaskSequence staircase(tree::Topology topo,
                                           std::uint64_t phases);

/// The staircase of E12 on an arity-A machine (A = 2^k, N a power of A):
/// for log_A N phases, phase i fills the residual capacity with size-A^i
/// tasks, then departs all but rank 0 of every A of them, so L* stays 1.
/// It is not staircase with an arity argument: staircase keeps the odd
/// ranks, and E12's published table pins these survivors.
[[nodiscard]] core::TaskSequence arity_staircase(tree::Topology topo,
                                                 std::uint64_t arity);

/// Alternating-size churn: repeatedly arrive a batch of mixed sizes and
/// depart the first half, keeping the machine about half full while
/// continuously changing shape.
[[nodiscard]] core::TaskSequence churn(tree::Topology topo,
                                       std::uint64_t rounds);

}  // namespace partree::workload
