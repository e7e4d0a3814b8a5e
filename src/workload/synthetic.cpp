#include "workload/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace partree::workload {

namespace {

/// Pending departure in virtual time.
struct Departure {
  double time;
  core::TaskId id;
  friend bool operator>(const Departure& a, const Departure& b) {
    return a.time > b.time;
  }
};

using DepartureQueue =
    std::priority_queue<Departure, std::vector<Departure>, std::greater<>>;

double draw_duration(util::Rng& rng, double mean, double pareto_shape) {
  if (pareto_shape > 1.0) {
    // Pareto with given shape, scale chosen so the mean matches.
    const double x_min = mean * (pareto_shape - 1.0) / pareto_shape;
    return rng.pareto(pareto_shape, x_min);
  }
  return rng.exponential(mean);
}

/// Drains all departures scheduled before `now` into the sequence.
void drain_until(DepartureQueue& queue, double now,
                 core::TaskSequence& seq) {
  while (!queue.empty() && queue.top().time <= now) {
    seq.depart(queue.top().id);
    queue.pop();
  }
}

}  // namespace

core::TaskSequence open_loop(tree::Topology topo,
                             const OpenLoopParams& params, util::Rng& rng) {
  PARTREE_ASSERT(params.arrival_rate > 0.0, "arrival rate must be positive");
  PARTREE_ASSERT(params.mean_duration > 0.0, "mean duration must be positive");

  core::TaskSequence seq;
  DepartureQueue departures;
  double now = 0.0;
  for (std::uint64_t k = 0; k < params.n_tasks; ++k) {
    now += rng.exponential(1.0 / params.arrival_rate);
    drain_until(departures, now, seq);
    const std::uint64_t size = params.size.sample(rng, topo.n_leaves());
    const core::TaskId id = seq.arrive(size);
    const double duration =
        draw_duration(rng, params.mean_duration, params.pareto_shape);
    departures.push({now + duration, id});
  }
  // Let every remaining task depart so sequences are closed.
  while (!departures.empty()) {
    seq.depart(departures.top().id);
    departures.pop();
  }
  return seq;
}

core::TaskSequence closed_loop(tree::Topology topo,
                               const ClosedLoopParams& params,
                               util::Rng& rng) {
  PARTREE_ASSERT(params.utilization > 0.0 && params.utilization <= 1.0,
                 "utilization must be in (0, 1]");
  // Truncation can yield target == 0 (utilization 0.2 on 4 leaves),
  // which would make the "hold the load" loop oscillate between empty
  // and one task instead of holding anything. A closed loop with
  // positive utilization always keeps at least one task active.
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(params.utilization *
                                    static_cast<double>(topo.n_leaves())));

  core::TaskSequence seq;
  std::vector<std::pair<core::TaskId, std::uint64_t>> active;  // id, size
  std::uint64_t active_size = 0;

  auto do_arrival = [&] {
    const std::uint64_t size = params.size.sample(rng, topo.n_leaves());
    const core::TaskId id = seq.arrive(size);
    active.emplace_back(id, size);
    active_size += size;
  };
  auto do_departure = [&] {
    PARTREE_ASSERT(!active.empty(), "closed_loop: departure from empty set");
    const std::uint64_t pick = rng.below(active.size());
    const auto [id, size] = active[pick];
    active[pick] = active.back();
    active.pop_back();
    active_size -= size;
    seq.depart(id);
  };

  for (std::uint64_t k = 0; k < params.warmup_tasks; ++k) do_arrival();
  for (std::uint64_t e = 0; e < params.n_events; ++e) {
    // Arrive at or below target, depart strictly above it: once the
    // target is reached the active size never drops below it, so the
    // sequence holds the load instead of draining back to empty.
    if (active.empty() || active_size <= target) {
      do_arrival();
    } else {
      do_departure();
    }
  }
  while (!active.empty()) do_departure();
  return seq;
}

core::TaskSequence arity_closed_loop(tree::Topology topo,
                                     std::uint64_t arity,
                                     std::uint64_t n_events,
                                     double utilization, util::Rng& rng) {
  PARTREE_ASSERT(utilization > 0.0 && utilization <= 1.0,
                 "utilization must be in (0, 1]");
  const std::uint32_t levels = log_arity(topo.n_leaves(), arity);
  const auto target = static_cast<std::uint64_t>(
      utilization * static_cast<double>(topo.n_leaves()));

  core::TaskSequence seq;
  std::vector<std::pair<core::TaskId, std::uint64_t>> active;  // id, size
  std::uint64_t active_size = 0;
  for (std::uint64_t e = 0; e < n_events; ++e) {
    if (active.empty() || active_size < target) {
      const std::uint64_t size = util::ipow(
          arity, static_cast<std::uint32_t>(rng.below(levels + 1)));
      active.emplace_back(seq.arrive(size), size);
      active_size += size;
    } else {
      const std::uint64_t pick = rng.below(active.size());
      const auto [id, size] = active[pick];
      active[pick] = active.back();
      active.pop_back();
      active_size -= size;
      seq.depart(id);
    }
  }
  for (auto it = active.rbegin(); it != active.rend(); ++it) {
    seq.depart(it->first);
  }
  return seq;
}

core::TaskSequence bursty(tree::Topology topo, const BurstyParams& params,
                          util::Rng& rng) {
  PARTREE_ASSERT(params.burst_rate > 0.0 && params.idle_rate > 0.0,
                 "bursty rates must be positive");
  PARTREE_ASSERT(params.mean_burst_len >= 1.0, "bursts need >= 1 task");

  core::TaskSequence seq;
  DepartureQueue departures;
  double now = 0.0;
  std::uint64_t produced = 0;
  bool in_burst = true;
  std::uint64_t burst_left =
      std::max<std::uint64_t>(1, rng.poisson(params.mean_burst_len));

  while (produced < params.n_tasks) {
    const double rate = in_burst ? params.burst_rate : params.idle_rate;
    now += rng.exponential(1.0 / rate);
    drain_until(departures, now, seq);
    if (in_burst) {
      const std::uint64_t size = params.size.sample(rng, topo.n_leaves());
      const core::TaskId id = seq.arrive(size);
      departures.push(
          {now + rng.exponential(params.mean_duration), id});
      ++produced;
      if (--burst_left == 0) in_burst = false;
    } else {
      // One idle tick passed; start the next burst.
      in_burst = true;
      burst_left =
          std::max<std::uint64_t>(1, rng.poisson(params.mean_burst_len));
    }
  }
  while (!departures.empty()) {
    seq.depart(departures.top().id);
    departures.pop();
  }
  return seq;
}

core::TaskSequence diurnal(tree::Topology topo, const DiurnalParams& params,
                           util::Rng& rng) {
  PARTREE_ASSERT(params.day_rate > 0.0 && params.night_rate > 0.0,
                 "diurnal rates must be positive");
  PARTREE_ASSERT(params.day_rate >= params.night_rate,
                 "day rate below night rate");
  PARTREE_ASSERT(params.period > 0.0, "period must be positive");

  core::TaskSequence seq;
  DepartureQueue departures;
  double now = 0.0;
  // Thinning (Lewis-Shedler): draw at the peak rate, accept with
  // rate(t)/day_rate, where rate(t) oscillates between night and day.
  const double mean_rate = (params.day_rate + params.night_rate) / 2.0;
  const double amplitude = (params.day_rate - params.night_rate) / 2.0;
  std::uint64_t produced = 0;
  while (produced < params.n_tasks) {
    now += rng.exponential(1.0 / params.day_rate);
    drain_until(departures, now, seq);
    const double rate =
        mean_rate +
        amplitude * std::sin(2.0 * 3.141592653589793 * now / params.period);
    if (!rng.bernoulli(rate / params.day_rate)) continue;
    const std::uint64_t size = params.size.sample(rng, topo.n_leaves());
    const core::TaskId id = seq.arrive(size);
    departures.push({now + rng.exponential(params.mean_duration), id});
    ++produced;
  }
  while (!departures.empty()) {
    seq.depart(departures.top().id);
    departures.pop();
  }
  return seq;
}

}  // namespace partree::workload
