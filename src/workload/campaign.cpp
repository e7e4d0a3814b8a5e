#include "workload/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"
#include "workload/stressors.hpp"
#include "workload/synthetic.hpp"

namespace partree::workload {

namespace {

/// The largest unscaled event budget of any campaign (steady-mix and
/// small-tasks).
constexpr double kMaxBaseBudget = 4000.0;

}  // namespace

core::TaskSequence make_campaign(std::string_view name, tree::Topology topo,
                                 util::Rng& rng, double scale) {
  check_campaign_name(name);
  check_campaign_scale(scale);
  const auto scaled = [scale](std::uint64_t base) {
    const double value = scale * static_cast<double>(base);
    return value < 1.0 ? std::uint64_t{1}
                       : static_cast<std::uint64_t>(value);
  };
  const std::uint32_t h = topo.height();
  const std::uint32_t mid_log = h / 2;

  if (name == "steady-mix") {
    ClosedLoopParams params;
    params.n_events = scaled(4000);
    params.utilization = 0.75;
    params.size = SizeSpec::uniform_log(0, h);
    return closed_loop(topo, params, rng);
  }
  if (name == "small-tasks") {
    ClosedLoopParams params;
    params.n_events = scaled(4000);
    params.utilization = 0.75;
    params.size = SizeSpec::uniform_log(0, std::min<std::uint32_t>(2, h));
    return closed_loop(topo, params, rng);
  }
  if (name == "heavy-tail") {
    OpenLoopParams params;
    params.n_tasks = scaled(2000);
    params.arrival_rate = 2.0;
    params.mean_duration =
        static_cast<double>(topo.n_leaves()) / 8.0;
    params.pareto_shape = 1.8;
    params.size = SizeSpec::zipf_log(1.2, h);
    return open_loop(topo, params, rng);
  }
  if (name == "bursty") {
    BurstyParams params;
    params.n_tasks = scaled(2000);
    params.burst_rate = 8.0;
    params.idle_rate = 0.2;
    params.mean_burst_len = 32.0;
    params.mean_duration = static_cast<double>(topo.n_leaves()) / 16.0;
    params.size = SizeSpec::geometric(0.5, mid_log);
    return bursty(topo, params, rng);
  }
  if (name == "diurnal") {
    DiurnalParams params;
    params.n_tasks = scaled(2000);
    params.day_rate = 6.0;
    params.night_rate = 0.5;
    params.period = static_cast<double>(topo.n_leaves()) / 2.0;
    params.mean_duration = static_cast<double>(topo.n_leaves()) / 12.0;
    params.size = SizeSpec::geometric(0.5, mid_log);
    return diurnal(topo, params, rng);
  }
  if (name == "fill-drain") {
    return fill_drain(topo, 1, scaled(8));
  }
  if (name == "staircase") {
    return staircase(topo, h);
  }
  PARTREE_ASSERT(name == "churn", "campaign_names() lists an unbuilt name");
  return churn(topo, scaled(64));
}

std::vector<std::string> campaign_names() {
  return {"steady-mix", "small-tasks", "heavy-tail", "bursty",
          "diurnal",    "fill-drain",  "staircase",  "churn"};
}

void check_campaign_name(std::string_view name) {
  const std::vector<std::string> names = campaign_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    throw std::invalid_argument("unknown campaign: '" + std::string(name) +
                                "'");
  }
}

void check_campaign_scale(double scale) {
  // 2^64 is the first double a std::uint64_t cannot hold.
  constexpr double kMaxScale = 0x1p64 / kMaxBaseBudget;
  if (!std::isfinite(scale) || scale <= 0.0 || scale >= kMaxScale) {
    std::ostringstream message;
    message << "campaign scale must be positive and below " << kMaxScale
            << " (the event budget must fit in 64 bits), got " << scale;
    throw std::invalid_argument(message.str());
  }
}

}  // namespace partree::workload
