// The online partition service: a long-lived front-end for the paper's
// actual setting, where users ARRIVE at a time-shared partitionable
// machine and request submachines, instead of replaying a pre-built
// TaskSequence in batch.
//
// Many client threads call submit_arrival(size) / submit_departure(id);
// requests are admitted -- in a single global admission order -- into a
// bounded MPSC queue. One dedicated apply thread drains the queue in
// admission order into EPOCH BATCHES (closed when the batch-size cap is
// hit or the queue runs empty; flush()/drain() force the point) and
// applies each request to the owned MachineState with core::apply_event
// -- the same step Engine::run takes per event (core/step.hpp). The
// paper's dN reallocation trigger lives where it always lives -- inside
// the allocator's maybe_reallocate -- so its epoch accounting runs
// seamlessly ACROSS batches, and a serial Engine::run replay of the
// recorded admission sequence reproduces the exact same state evolution
// by construction (equal final digests; the Serve differential tests
// check this under TSan).
//
// Completion order: a batch's futures complete only after the whole
// batch has applied, NEWEST FIRST. A client with several requests in
// flight waits on its oldest future, so it is woken once per batch and
// finds its newer results in that batch already ready. A batch's counts
// reach stats() only after all its futures are complete, so once
// flush()/drain() return (they wait on those counts) every future they
// cover is ready.
//
// A full queue exerts backpressure: it parks the submitter until space
// frees, or until stop() refuses it with ServiceError::kStopped.
// stop() is graceful: every admitted request is still applied and its
// future completed before the apply thread exits, and the final state
// digest (the canonical MachineState digest) and the placement digest
// (core::fold_placement over every applied request) are published in
// the stats for differential verification.
//
// Observability: every count the service keeps is a ServiceStats field
// (requests, batches and the largest batch, rounds, moves), and
// queue_depth() reads the queue's length. Request latency is measured
// from outside, by the caller's clock (serve_loadgen, perfbench).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "core/allocator.hpp"
#include "core/machine_state.hpp"
#include "core/sequence.hpp"
#include "tree/topology.hpp"
#include "util/digest.hpp"

namespace partree::serve {

/// Typed submission failures. Requests that were never admitted (the
/// service stopped) throw from submit_*;
/// per-request application failures (e.g. departing an unknown task)
/// surface in-band through the request's future -- a Placement with
/// `ok == false` (Placement::throw_if_failed rethrows as a typed
/// ServiceError on the consumer's own thread) -- so one bad request
/// never poisons its neighbours. In-band rather than set_exception on
/// purpose: an exception_ptr's last reference can be dropped by the
/// apply thread while the submitter examines the exception object, a
/// cross-thread handoff that cannot be shown race-free (libstdc++'s
/// exception refcounting is uninstrumented under TSan).
enum class ServiceErrorCode : std::uint8_t {
  kStopped = 0,  ///< submitted after stop() (or while blocked when it hit)
  kBadRequest,   ///< invalid size / unknown or already-departed task
};

[[nodiscard]] std::string_view service_error_name(
    ServiceErrorCode code) noexcept;

class ServiceError : public std::runtime_error {
 public:
  ServiceError(ServiceErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] ServiceErrorCode code() const noexcept { return code_; }

 private:
  ServiceErrorCode code_;
};

struct ServiceOptions {
  /// Bounded request-queue capacity (a full queue parks submitters). The
  /// queue and the apply thread's batch each reserve this many requests
  /// up front.
  std::size_t queue_capacity = 1024;
  /// Epoch-batch cap: the apply thread drains at most this many requests
  /// per batch (it also closes a batch early when the queue runs empty).
  std::size_t batch_size = 64;
};

/// Completed-request payload carried by the future: where the task lives
/// (lived, for departures), the machine max load right after this request
/// was applied, and the epoch batch that applied it.
struct Placement {
  core::TaskId id = core::kInvalidTask;
  std::uint64_t size = 0;
  tree::NodeId node = tree::kInvalidNode;
  /// MachineState::max_load() immediately after this request applied.
  std::uint64_t max_load = 0;
  /// 0-based index of the epoch batch that applied this request.
  std::uint64_t batch = 0;
  /// false when the request could not be applied (departure of an
  /// unknown or inactive task); `error` then says why and the
  /// state-changing fields above are meaningless.
  bool ok = true;
  ServiceErrorCode error = ServiceErrorCode::kBadRequest;

  /// Rethrows a failed apply as the typed ServiceError it would have
  /// been; no-op when ok.
  void throw_if_failed() const {
    if (!ok) {
      throw ServiceError(error, "request for task " + std::to_string(id) +
                                    " failed to apply: " +
                                    std::string(service_error_name(error)));
    }
  }
};

/// An admitted arrival: the task id is assigned at admission (so clients
/// can name the task before it is placed), the future completes at apply.
struct ArrivalTicket {
  core::TaskId id = core::kInvalidTask;
  std::future<Placement> placed;
};

/// Point-in-time service accounting; final_digest/optimal_load are
/// meaningful once stop() has returned.
struct ServiceStats {
  std::uint64_t admitted = 0;  ///< requests accepted into the queue
  std::uint64_t applied = 0;   ///< futures completed with a Placement
  std::uint64_t failed = 0;    ///< futures completed with a ServiceError
  std::uint64_t rejected = 0;  ///< submissions refused (kStopped)
  std::uint64_t batches = 0;   ///< epoch batches applied
  std::uint64_t max_batch = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t max_load = 0;  ///< running max of post-apply machine load
  std::uint64_t reallocation_count = 0;
  std::uint64_t migration_count = 0;
  std::uint64_t migrated_size = 0;
  /// ceil(peak active size / N) at stop (the paper's L*).
  std::uint64_t optimal_load = 0;
  /// Canonical MachineState digest at stop; compare against the
  /// Engine::run final_digest of the recorded sequence.
  std::uint64_t final_digest = 0;
  /// core::fold_placement over every applied request, in apply order, at
  /// stop; compare against the Engine::run placement_digest of the
  /// recorded sequence (EngineOptions::record_digests). A drained
  /// final_digest cannot tell placements apart; this one can.
  std::uint64_t placement_digest = 0;
};

class PartitionService {
 public:
  /// Takes ownership of the allocator (reset() is called, mirroring
  /// Engine::run) and starts the apply thread immediately.
  PartitionService(tree::Topology topo, core::AllocatorPtr allocator,
                   ServiceOptions options = {});
  /// stop()s if the caller has not; all admitted requests are answered.
  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Admits an arrival of `size` PEs (power of two, 1..N; anything else
  /// throws kBadRequest without touching the queue). Returns the
  /// admission-order task id plus the future that completes when the
  /// request is applied. Parks while the queue is full; throws kStopped
  /// once stop() has run.
  [[nodiscard]] ArrivalTicket submit_arrival(std::uint64_t size);

  /// Admits a departure of a previously admitted task. When the task is
  /// not active at apply time (never arrived or already departed) the
  /// future completes with Placement::ok == false / kBadRequest.
  [[nodiscard]] std::future<Placement> submit_departure(core::TaskId id);

  /// Blocks until every request admitted BEFORE this call has applied
  /// (forcing the current partial batch out). No-op after stop().
  void flush();

  /// Blocks until the queue is empty and every admitted request has
  /// applied. Unlike flush(), requests admitted concurrently with the
  /// wait are covered too (it re-checks until admitted == applied).
  void drain();

  /// Graceful shutdown: refuses new submissions (parked submitters throw
  /// kStopped), lets the apply thread answer everything already
  /// admitted, joins it, and publishes the final state digest in
  /// stats(). Idempotent and safe to call from several threads at once:
  /// the first caller joins the apply thread, the others wait for it.
  void stop();

  [[nodiscard]] ServiceStats stats() const;

  [[nodiscard]] const tree::Topology& topology() const noexcept {
    return topo_;
  }
  [[nodiscard]] std::size_t queue_depth() const;

  /// The admitted-and-applied sequence, in admission order, for
  /// differential replay through Engine::run (O(1 event) memory per
  /// applied request). Only call after stop(): the apply thread owns the
  /// sequence while it runs.
  [[nodiscard]] const core::TaskSequence& recorded() const;

  /// TEST-ONLY: parks the apply thread after its current batch so tests
  /// can fill the bounded queue deterministically (backpressure paths)
  /// or count batches; resume() releases it. Never pause around flush()
  /// or drain() on the same thread -- they would wait forever.
  void pause_applying();
  void resume_applying();

 private:
  struct Request {
    core::EventKind kind = core::EventKind::kArrival;
    core::Task task;
    std::promise<Placement> promise;
    Placement placement;  ///< filled at apply, delivered at batch end
  };

  struct Admitted {
    core::TaskId id = core::kInvalidTask;
    std::future<Placement> applied;
  };

  static constexpr core::TaskId kInvalidRequestId = core::kInvalidTask;

  [[nodiscard]] Admitted admit(core::EventKind kind, core::TaskId id,
                               std::uint64_t size);
  void apply_loop();
  [[nodiscard]] ServiceStats apply_batch(std::vector<Request>& batch,
                                         std::uint64_t batch_index);
  void apply_one(Request& req, std::uint64_t batch_index,
                 ServiceStats& delta);

  tree::Topology topo_;
  core::AllocatorPtr allocator_;
  ServiceOptions options_;

  // Apply-thread-only state (read by others strictly after the join in
  // stop()).
  core::MachineState state_;
  core::TaskSequence recorded_;
  util::Fnv placement_;  ///< ServiceStats::placement_digest, published at stop

  mutable std::mutex mutex_;
  std::condition_variable cv_space_;    ///< submitters: queue has room
  std::condition_variable cv_work_;     ///< apply thread: work or stop
  std::condition_variable cv_applied_;  ///< flush()/drain(), later stop()s
  std::vector<Request> queue_;  ///< admission order; reserved once
  ServiceStats stats_;
  core::TaskId next_id_ = 0;
  bool accepting_ = true;
  bool stopping_ = false;
  bool stopped_ = false;
  bool paused_ = false;

  std::thread apply_thread_;
};

}  // namespace partree::serve
