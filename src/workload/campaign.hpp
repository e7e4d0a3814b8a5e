// Named workload presets ("campaigns") used by benches and examples.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/sequence.hpp"
#include "tree/topology.hpp"
#include "util/rng.hpp"

namespace partree::workload {

/// Builds a named preset scaled to the machine:
///   "steady-mix"   closed-loop 75% utilization, uniform-log sizes
///   "small-tasks"  closed-loop 75% utilization, size 1..4
///   "heavy-tail"   open-loop Poisson, Pareto durations, Zipf sizes
///   "bursty"       on/off bursts, geometric sizes
///   "diurnal"      sinusoidal day/night arrival rate
///   "fill-drain"   deterministic fill/drain of size-1 tasks
///   "staircase"    deterministic fragmentation nemesis
///   "churn"        deterministic mixed-size churn
/// `scale` multiplies the event budget (1 = a few thousand events).
/// Throws std::invalid_argument for an unknown name or a scale
/// check_campaign_scale rejects.
[[nodiscard]] core::TaskSequence make_campaign(std::string_view name,
                                               tree::Topology topo,
                                               util::Rng& rng,
                                               double scale = 1.0);

/// All names make_campaign accepts.
[[nodiscard]] std::vector<std::string> campaign_names();

/// Throws std::invalid_argument unless `name` is in campaign_names().
void check_campaign_name(std::string_view name);

/// Throws std::invalid_argument unless `scale` is finite and positive and
/// every campaign's scaled event budget fits in 64 bits.
void check_campaign_scale(double scale);

}  // namespace partree::workload
