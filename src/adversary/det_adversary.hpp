// The adaptive adversary of Theorem 4.3.
//
// Against ANY deterministic d-reallocation algorithm it builds, online, a
// sequence of optimal load L* = 1 forcing load >= ceil((min{d, log N}+1)/2).
// Construction (p = min{d, log N} phases):
//
//   phase 0:  N tasks of size 1 arrive.
//   phase i (1 <= i < p):
//     for every size-2^i submachine T_i with children T^L, T^R:
//       Q(child) = 2^i * l(child) - L(child)   (l = max PE load inside,
//                                               L = active size inside)
//       depart every active task inside the child with the SMALLER Q
//       (ties: the left child departs), in ascending id order.
//     with S = remaining active size, floor((N - S)/2^i) tasks of size 2^i
//     arrive.
//
// Because it must observe the algorithm's placements, the adversary is an
// EventSource driven by Engine::run_interactive; pass a `recorded` sequence
// to materialise the fixed sequence whose existence the theorem asserts.
#pragma once

#include <deque>
#include <vector>

#include "core/event_source.hpp"
#include "tree/topology.hpp"

namespace partree::adversary {

class DetAdversary : public core::EventSource {
 public:
  /// `p` is the number of phases, normally min{d, log2 N}; must satisfy
  /// 0 <= p <= log2 N. The forced final load is at least ceil((p+1)/2).
  DetAdversary(tree::Topology topo, std::uint64_t p);

  /// Convenience: phases for a d-reallocation algorithm (p = min{d,logN},
  /// or logN when the algorithm never reallocates).
  [[nodiscard]] static DetAdversary for_d(tree::Topology topo, std::uint64_t d,
                                          bool d_infinite = false);

  [[nodiscard]] std::optional<core::Event> next(
      const core::MachineState& state) override;

  /// The load every deterministic algorithm is forced to:
  /// ceil((p+1)/2).
  [[nodiscard]] std::uint64_t forced_load() const noexcept;

  /// Event index (exclusive) at which each phase ends, filled as the
  /// adversary runs; phase_ends()[i] is the boundary after phase i. Useful
  /// for potential-trace analyses (Lemma 3).
  [[nodiscard]] const std::vector<std::size_t>& phase_ends() const noexcept {
    return phase_ends_;
  }

 private:
  void enqueue_phase0();
  void enqueue_departures(const core::MachineState& state);
  void enqueue_arrivals(const core::MachineState& state);

  tree::Topology topo_;
  std::uint64_t p_;
  std::uint64_t phase_ = 0;  // current phase being emitted
  enum class Stage { kPhase0, kDepartures, kArrivals, kDone } stage_ =
      Stage::kPhase0;
  std::deque<core::Event> pending_;
  core::TaskId next_id_ = 0;
  std::size_t emitted_ = 0;
  std::vector<std::size_t> phase_ends_;
};

}  // namespace partree::adversary
