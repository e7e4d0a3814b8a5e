// Stochastic multi-user workloads.
//
// The paper's motivating environment: users arrive at unpredictable times,
// request unpredictable submachine sizes, and stay for unpredictable
// durations. Generators work in continuous virtual time internally (Poisson
// arrivals, exponential or Pareto residence times) and emit the resulting
// time-ordered arrival/departure event list; the model's "time" is the
// event index, so timestamps are dropped after ordering.
#pragma once

#include <cstdint>

#include "core/sequence.hpp"
#include "tree/topology.hpp"
#include "util/rng.hpp"
#include "workload/sizes.hpp"

namespace partree::workload {

/// Open-loop arrivals: Poisson process of rate `arrival_rate`, i.i.d.
/// durations; expected active size is arrival_rate * mean_duration *
/// E[size].
struct OpenLoopParams {
  std::uint64_t n_tasks = 1000;
  double arrival_rate = 1.0;
  double mean_duration = 8.0;
  /// 0 selects exponential durations; > 1 selects Pareto with this shape
  /// (heavy tail; mean matched to mean_duration).
  double pareto_shape = 0.0;
  SizeSpec size = SizeSpec::fixed_size(1);
};

[[nodiscard]] core::TaskSequence open_loop(tree::Topology topo,
                                           const OpenLoopParams& params,
                                           util::Rng& rng);

/// Closed-loop load targeting: keeps the cumulative active size near
/// `utilization * N` by choosing, at each step, an arrival when below
/// target and a departure (uniform among active tasks) when above.
struct ClosedLoopParams {
  std::uint64_t n_events = 2000;
  double utilization = 0.75;  ///< target fraction of N occupied
  SizeSpec size = SizeSpec::fixed_size(1);
  /// Warmup arrivals before the control loop engages.
  std::uint64_t warmup_tasks = 0;
};

[[nodiscard]] core::TaskSequence closed_loop(tree::Topology topo,
                                             const ClosedLoopParams& params,
                                             util::Rng& rng);

/// The closed loop of E12 and examples/mesh_partitioning on an arity-A
/// machine (A = 2^k, N a power of A): each size is A^j with j uniform on
/// [0, log_A N]; it arrives while the active size is below
/// `utilization * N` and otherwise departs a uniform active task. It is
/// not closed_loop with an arity argument, because E12's published table
/// pins its draws: it arrives strictly below the target with no floor of
/// 1, and drains from the back of its active list, where closed_loop
/// arrives at or below the target and drains in random order.
[[nodiscard]] core::TaskSequence arity_closed_loop(tree::Topology topo,
                                                   std::uint64_t arity,
                                                   std::uint64_t n_events,
                                                   double utilization,
                                                   util::Rng& rng);

/// Bursty on/off arrivals: alternating busy bursts (Poisson at burst_rate)
/// and idle gaps during which only departures occur.
struct BurstyParams {
  std::uint64_t n_tasks = 1000;
  double burst_rate = 4.0;
  double idle_rate = 0.25;
  double mean_burst_len = 16.0;  ///< expected tasks per burst
  double mean_duration = 8.0;
  SizeSpec size = SizeSpec::fixed_size(1);
};

[[nodiscard]] core::TaskSequence bursty(tree::Topology topo,
                                        const BurstyParams& params,
                                        util::Rng& rng);

/// Diurnal pattern: the arrival rate follows a sinusoidal day/night
/// cycle, modeling the multi-user machine rooms the paper's introduction
/// describes (busy days, quiet nights).
struct DiurnalParams {
  std::uint64_t n_tasks = 2000;
  double day_rate = 4.0;    ///< peak arrival rate at "noon"
  double night_rate = 0.5;  ///< trough arrival rate at "midnight"
  double period = 200.0;    ///< virtual-time length of one day
  double mean_duration = 8.0;
  SizeSpec size = SizeSpec::fixed_size(1);
};

[[nodiscard]] core::TaskSequence diurnal(tree::Topology topo,
                                         const DiurnalParams& params,
                                         util::Rng& rng);

}  // namespace partree::workload
