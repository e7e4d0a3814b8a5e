#include "sim/detsim.hpp"

#include <algorithm>
#include <optional>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree::sim {
namespace {

/// One replay: fresh allocator from (spec, seed) so fault-free and faulted
/// runs make identical decisions, digests always on.
[[nodiscard]] SimResult replay_once(const tree::Topology& topo,
                                    const core::TaskSequence& seq,
                                    const DetSimOptions& options,
                                    FaultInjector* injector) {
  EngineOptions eopts;
  eopts.debug_checks = options.debug_checks;
  eopts.record_digests = true;
  eopts.faults = injector;
  Engine engine(topo, eopts);
  const core::AllocatorPtr alloc =
      core::make_allocator(options.allocator, topo, options.seed);
  return engine.run(seq, *alloc);
}

/// Why `run` is not a replay of `baseline`: the first epoch whose digests
/// disagree, a different epoch count, or a different placement digest, as
/// a detail string; "" when they agree.
[[nodiscard]] std::string replay_mismatch(const SimResult& baseline,
                                          const SimResult& run) {
  const std::vector<EpochDigest>& base_epochs = baseline.epoch_digests;
  const std::vector<EpochDigest>& run_epochs = run.epoch_digests;
  const std::size_t n = std::min(base_epochs.size(), run_epochs.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (base_epochs[i] != run_epochs[i]) {
      return "epoch digest mismatch at event " +
             std::to_string(run_epochs[i].event) + ": baseline " +
             util::digest_hex(base_epochs[i].digest) + " vs " +
             util::digest_hex(run_epochs[i].digest);
    }
  }
  if (base_epochs.size() != run_epochs.size()) {
    return "epoch count mismatch: baseline " +
           std::to_string(base_epochs.size()) + " vs " +
           std::to_string(run_epochs.size());
  }
  if (baseline.placement_digest != run.placement_digest) {
    return "placement digest mismatch: baseline " +
           util::digest_hex(baseline.placement_digest) + " vs " +
           util::digest_hex(run.placement_digest);
  }
  return {};
}

/// Copies the faulted/verification replay's digests into the report.
void record_run(DetSimReport& report, const SimResult& run) {
  report.run_digest = run.final_digest;
  report.run_placement_digest = run.placement_digest;
  report.run_epochs = run.epoch_digests;
}

}  // namespace

std::string_view outcome_name(DetSimOutcome outcome) noexcept {
  switch (outcome) {
    case DetSimOutcome::kFaultFree: return "fault_free";
    case DetSimOutcome::kRecovered: return "recovered";
    case DetSimOutcome::kCancelled: return "cancelled";
    case DetSimOutcome::kSkipped: return "skipped";
    case DetSimOutcome::kCaught: return "caught";
    case DetSimOutcome::kDivergence: return "divergence";
  }
  return "unknown";
}

core::TaskSequence detsim_sequence(const tree::Topology& topo,
                                   std::uint64_t seed,
                                   std::uint64_t n_events) {
  util::Rng rng(seed);
  workload::ClosedLoopParams params;
  // Draws happen in a fixed order regardless of n_events so explicit
  // lengths replay the same utilization/size shape as the 0 default.
  const std::uint64_t drawn = 200 + rng.below(800);
  params.n_events = n_events != 0 ? n_events : drawn;
  params.utilization = 0.3 + 0.65 * rng.uniform01();
  switch (rng.below(3)) {
    case 0:
      params.size = workload::SizeSpec::uniform_log(0, topo.height());
      break;
    case 1:
      params.size = workload::SizeSpec::geometric(0.5, topo.height());
      break;
    default:
      params.size = workload::SizeSpec::zipf_log(1.1, topo.height());
      break;
  }
  return workload::closed_loop(topo, params, rng);
}

std::uint64_t detsim_event_count(const DetSimOptions& options) {
  const tree::Topology topo(options.n_pes);
  return detsim_sequence(topo, options.seed, options.n_events).size();
}

SimResult run_baseline(const DetSimOptions& options) {
  const tree::Topology topo(options.n_pes);
  const core::TaskSequence seq =
      detsim_sequence(topo, options.seed, options.n_events);
  return replay_once(topo, seq, options, nullptr);
}

DetSimReport run_detsim(const DetSimOptions& options) {
  PARTREE_ASSERT(options.debug_checks || !options.faults.has_corruption(),
                 "corruption plans require DetSimOptions::debug_checks");
  const tree::Topology topo(options.n_pes);
  const core::TaskSequence seq =
      detsim_sequence(topo, options.seed, options.n_events);

  DetSimReport report;
  report.events = seq.size();

  const SimResult baseline = replay_once(topo, seq, options, nullptr);
  report.baseline_digest = baseline.final_digest;
  report.baseline_placement_digest = baseline.placement_digest;
  report.baseline_epochs = baseline.epoch_digests;

  if (options.faults.empty()) {
    report.outcome = DetSimOutcome::kFaultFree;
    record_run(report, baseline);
    return report;
  }

  // One faulted replay. A violation ends it: the net doing its job after
  // an applied corruption, a bug without one. A cancel throws out of it at
  // its step; recovery then means nothing process-global kept the
  // abandoned run's state: a fresh replay must reproduce the baseline.
  // Otherwise the faulted replay itself must match the baseline at every
  // reallocation epoch (the state re-converged at each, not just at the
  // end) and in where every event left its task.
  FaultInjector injector(options.faults);
  bool cancelled = false;
  SimResult run;
  try {
    run = replay_once(topo, seq, options, &injector);
  } catch (const InvariantViolation& e) {
    report.faults_applied = injector.injected();
    report.outcome = injector.corruption_applied() ? DetSimOutcome::kCaught
                                                   : DetSimOutcome::kDivergence;
    report.detail = e.what();
    return report;
  } catch (const FaultInjectedError&) {
    cancelled = true;
    run = replay_once(topo, seq, options, nullptr);
  }
  record_run(report, run);
  report.faults_applied = injector.injected();
  const std::string mismatch = replay_mismatch(baseline, run);
  if (injector.corruption_applied()) {
    report.outcome = DetSimOutcome::kDivergence;
    report.detail = "corruption applied but the debug_checks net missed it";
  } else if (!mismatch.empty()) {
    report.outcome = DetSimOutcome::kDivergence;
    report.detail = cancelled ? "post-cancel retry diverged: " + mismatch
                              : mismatch;
  } else if (cancelled) {
    report.outcome = DetSimOutcome::kCancelled;
  } else {
    report.outcome = injector.injected() > 0 ? DetSimOutcome::kRecovered
                                             : DetSimOutcome::kSkipped;
  }
  return report;
}

DetSimOptions shrink_failing(
    DetSimOptions failing,
    const std::function<bool(const DetSimOptions&)>& still_fails) {
  PARTREE_ASSERT(still_fails(failing),
                 "shrink_failing requires a failing configuration");

  // Pass 1: drop whole faults while the failure persists.
  bool dropped = true;
  while (dropped && failing.faults.size() > 1) {
    dropped = false;
    const std::vector<Fault>& faults = failing.faults.faults();
    for (std::size_t i = 0; i < faults.size(); ++i) {
      std::vector<Fault> fewer;
      for (std::size_t j = 0; j < faults.size(); ++j) {
        if (j != i) fewer.push_back(faults[j]);
      }
      DetSimOptions candidate = failing;
      candidate.faults = FaultPlan(std::move(fewer));
      if (still_fails(candidate)) {
        failing = std::move(candidate);
        dropped = true;
        break;
      }
    }
  }

  // Pass 2: lower each surviving step -- halve while that still fails,
  // then bounded decrement to polish. Plans stay strictly increasing
  // because steps only move down and a candidate that collides is
  // rejected before probing.
  const std::size_t n_faults = failing.faults.size();
  for (std::size_t i = 0; i < n_faults; ++i) {
    const auto with_step = [&](std::uint64_t step)
        -> std::optional<DetSimOptions> {
      std::vector<Fault> faults = failing.faults.faults();
      faults[i].step = step;
      for (std::size_t j = 1; j < faults.size(); ++j) {
        if (faults[j - 1].step >= faults[j].step) return std::nullopt;
      }
      DetSimOptions candidate = failing;
      candidate.faults = FaultPlan(std::move(faults));
      return candidate;
    };
    while (failing.faults.faults()[i].step > 1) {
      const std::uint64_t half = failing.faults.faults()[i].step / 2;
      const std::optional<DetSimOptions> candidate = with_step(half);
      if (!candidate || !still_fails(*candidate)) break;
      failing = *candidate;
    }
    for (int polish = 0; polish < 64; ++polish) {
      const std::uint64_t step = failing.faults.faults()[i].step;
      if (step <= 1) break;
      const std::optional<DetSimOptions> candidate = with_step(step - 1);
      if (!candidate || !still_fails(*candidate)) break;
      failing = *candidate;
    }
  }
  return failing;
}

ReproSpec to_repro(const DetSimOptions& options, const DetSimReport& report) {
  ReproSpec spec;
  spec.n_pes = options.n_pes;
  spec.allocator = options.allocator;
  spec.seed = options.seed;
  spec.n_events = options.n_events;
  spec.faults = options.faults;
  switch (report.outcome) {
    case DetSimOutcome::kDivergence: spec.expect = "divergence"; break;
    case DetSimOutcome::kCaught: spec.expect = "caught"; break;
    default: spec.expect = "recovered"; break;
  }
  spec.baseline_placement_digest = report.baseline_placement_digest;
  return spec;
}

DetSimOptions from_repro(const ReproSpec& spec) {
  DetSimOptions options;
  options.n_pes = spec.n_pes;
  options.allocator = spec.allocator;
  options.seed = spec.seed;
  options.n_events = spec.n_events;
  options.faults = spec.faults;
  return options;
}

}  // namespace partree::sim
