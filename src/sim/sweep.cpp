#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/factory.hpp"
#include "obs/metrics.hpp"
#include "obs/timing.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "util/assert.hpp"
#include "util/digest.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "workload/campaign.hpp"

namespace partree::sim {
namespace {

// v2 folds every measured cell field into the shard digest; a v1 file
// reads as an unknown schema, so resume starts fresh.
constexpr std::string_view kCkptSchema = "partree-sweep-ckpt-v2";
constexpr std::uint64_t kRetryBackoffCapMs = 2000;

[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.push_back(sep);
    out += parts[i];
  }
  return out;
}

[[nodiscard]] std::string join_u64(const std::vector<std::uint64_t>& parts,
                                   char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.push_back(sep);
    out += std::to_string(parts[i]);
  }
  return out;
}

[[nodiscard]] std::vector<std::string> split_names(std::string_view key,
                                                   std::string_view value) {
  std::vector<std::string> out;
  for (const std::string& part : util::split(value, ',')) {
    const std::string_view name = util::trim(part);
    if (name.empty()) {
      throw std::invalid_argument("sweep grid: empty entry in '" +
                                  std::string(key) + "' list");
    }
    out.emplace_back(name);
  }
  return out;
}

[[nodiscard]] std::vector<std::uint64_t> split_u64s(std::string_view key,
                                                    std::string_view value) {
  std::vector<std::uint64_t> out;
  for (const std::string& part : util::split(value, ',')) {
    const std::optional<std::uint64_t> parsed =
        util::parse_u64(util::trim(part));
    if (!parsed) {
      throw std::invalid_argument("sweep grid: bad number '" + part +
                                  "' in '" + std::string(key) + "' list");
    }
    out.push_back(*parsed);
  }
  return out;
}

[[nodiscard]] std::uint64_t parse_u64_or_throw(std::string_view key,
                                               std::string_view value) {
  const std::optional<std::uint64_t> parsed = util::parse_u64(value);
  if (!parsed) {
    throw std::invalid_argument("sweep grid: bad value '" +
                                std::string(value) + "' for '" +
                                std::string(key) + "'");
  }
  return *parsed;
}

/// Sweep-shaped analogues of experiments E3 and E7: the E3 trade-off
/// d-axis and the Figure-1 deterministic campaigns.
[[nodiscard]] std::optional<SweepGrid> preset_grid(std::string_view name) {
  if (name == "e3") {
    SweepGrid grid;
    grid.campaigns = {"steady-mix"};
    grid.allocators = {"dmix:d=0", "dmix:d=1", "dmix:d=2", "dmix:d=4",
                       "dmix:d=inf"};
    grid.n_pes = {64, 256};
    grid.seed_base = 1;
    grid.n_seeds = 3;
    grid.scale = 0.1;
    grid.shard_cells = 5;
    return grid;
  }
  if (name == "e7") {
    SweepGrid grid;
    grid.campaigns = {"fill-drain", "staircase", "churn"};
    grid.allocators = {"greedy", "basic"};
    grid.n_pes = {64, 256};
    grid.seed_base = 1;
    grid.n_seeds = 2;
    grid.scale = 0.1;
    grid.shard_cells = 4;
    return grid;
  }
  return std::nullopt;
}

/// One cell replay with digests recorded. A scheduled cancel fault aborts
/// the whole shard attempt (thrown through the pool's cancellation path);
/// an alloc_fail fault is delegated to the engine as a transient failure
/// at the cell's first event.
[[nodiscard]] SweepCellResult run_cell(const SweepGrid& grid,
                                       const SweepCell& cell,
                                       const Fault* fault,
                                       std::atomic<std::uint64_t>& injected) {
  if (fault != nullptr && fault->kind == FaultKind::kCancel) {
    // Counted by run_sweep when the throw surfaces at the join point; the
    // shard attempt it aborts is discarded wholesale.
    throw FaultInjectedError(*fault);
  }

  const tree::Topology topo(cell.n_pes);
  util::Rng rng(cell.seed);
  const core::TaskSequence seq =
      workload::make_campaign(cell.campaign, topo, rng, grid.scale);

  EngineOptions eopts;
  eopts.record_digests = true;
  std::optional<FaultInjector> engine_injector;
  if (fault != nullptr && fault->kind == FaultKind::kAllocFail) {
    engine_injector.emplace(
        FaultPlan({Fault{0, FaultKind::kAllocFail}}));
    eopts.faults = &*engine_injector;
  }

  Engine engine(topo, eopts);
  const core::AllocatorPtr alloc =
      core::make_allocator(cell.allocator, topo, cell.seed);
  const SimResult res = engine.run(seq, *alloc);

  if (engine_injector) {
    injected.fetch_add(engine_injector->injected(),
                       std::memory_order_relaxed);
  }

  SweepCellResult out;
  out.cell = cell;
  out.events = res.events;
  out.max_load = res.max_load;
  out.optimal_load = res.optimal_load;
  out.reallocations = res.reallocation_count;
  out.migrations = res.migration_count;
  out.migrated_size = res.migrated_size;
  out.final_digest = res.final_digest;
  return out;
}

/// One cell's identity: its index and every field it measured. The shard
/// digest and the sweep's combined digest both fold cells through here.
void fold_cell(util::Fnv& fnv, const SweepCellResult& cell) {
  fnv.mix(cell.cell.index)
      .mix(cell.events)
      .mix(cell.max_load)
      .mix(cell.optimal_load)
      .mix(cell.reallocations)
      .mix(cell.migrations)
      .mix(cell.migrated_size)
      .mix(cell.final_digest);
}

[[nodiscard]] util::json::Value cell_to_json(const SweepCellResult& cell) {
  util::json::Object obj;
  obj.emplace("index", cell.cell.index);
  obj.emplace("campaign", cell.cell.campaign);
  obj.emplace("alloc", cell.cell.allocator);
  obj.emplace("n_pes", cell.cell.n_pes);
  obj.emplace("seed", cell.cell.seed);
  obj.emplace("events", cell.events);
  obj.emplace("max_load", cell.max_load);
  obj.emplace("optimal_load", cell.optimal_load);
  obj.emplace("reallocations", cell.reallocations);
  obj.emplace("migrations", cell.migrations);
  obj.emplace("migrated_size", cell.migrated_size);
  obj.emplace("final_digest", util::digest_hex(cell.final_digest));
  return util::json::Value(std::move(obj));
}

[[nodiscard]] SweepCellResult cell_from_json(const util::json::Value& v) {
  SweepCellResult cell;
  cell.cell.index = v.at("index").as_u64();
  cell.cell.campaign = v.at("campaign").as_string();
  cell.cell.allocator = v.at("alloc").as_string();
  cell.cell.n_pes = v.at("n_pes").as_u64();
  cell.cell.seed = v.at("seed").as_u64();
  cell.events = v.at("events").as_u64();
  cell.max_load = v.at("max_load").as_u64();
  cell.optimal_load = v.at("optimal_load").as_u64();
  cell.reallocations = v.at("reallocations").as_u64();
  cell.migrations = v.at("migrations").as_u64();
  cell.migrated_size = v.at("migrated_size").as_u64();
  cell.final_digest = util::parse_digest_hex(v.at("final_digest").as_string());
  return cell;
}

}  // namespace

SweepGrid SweepGrid::parse(std::string_view text) {
  const std::string_view trimmed = util::trim(text);
  if (trimmed.empty()) {
    throw std::invalid_argument("sweep grid: empty spec");
  }
  if (trimmed.find('=') == std::string_view::npos) {
    if (const std::optional<SweepGrid> preset = preset_grid(trimmed)) {
      return *preset;
    }
    throw std::invalid_argument("sweep grid: unknown preset '" +
                                std::string(trimmed) + "'");
  }

  SweepGrid grid;
  for (const std::string& pair : util::split(trimmed, ';')) {
    const std::string_view entry = util::trim(pair);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("sweep grid: expected key=value, got '" +
                                  std::string(entry) + "'");
    }
    const std::string_view key = util::trim(entry.substr(0, eq));
    const std::string_view value = util::trim(entry.substr(eq + 1));
    if (key == "campaigns") {
      grid.campaigns = split_names(key, value);
    } else if (key == "allocs") {
      grid.allocators = split_names(key, value);
    } else if (key == "pes") {
      grid.n_pes = split_u64s(key, value);
    } else if (key == "seed-base") {
      grid.seed_base = parse_u64_or_throw(key, value);
    } else if (key == "n-seeds") {
      grid.n_seeds = parse_u64_or_throw(key, value);
    } else if (key == "scale") {
      const std::optional<double> scale = util::parse_double(value);
      if (!scale || !(*scale > 0.0)) {
        throw std::invalid_argument("sweep grid: bad value '" +
                                    std::string(value) + "' for 'scale'");
      }
      grid.scale = *scale;
    } else if (key == "shard") {
      grid.shard_cells = parse_u64_or_throw(key, value);
    } else {
      throw std::invalid_argument("sweep grid: unknown key '" +
                                  std::string(key) + "'");
    }
  }
  if (grid.campaigns.empty() || grid.allocators.empty() ||
      grid.n_pes.empty()) {
    throw std::invalid_argument(
        "sweep grid: campaigns, allocs, and pes must be non-empty");
  }
  if (grid.n_seeds == 0) {
    throw std::invalid_argument("sweep grid: n-seeds must be >= 1");
  }
  if (grid.shard_cells == 0) {
    throw std::invalid_argument("sweep grid: shard must be >= 1");
  }
  return grid;
}

std::string SweepGrid::to_string() const {
  std::string out = "campaigns=" + join(campaigns, ',');
  out += ";allocs=" + join(allocators, ',');
  out += ";pes=" + join_u64(n_pes, ',');
  out += ";seed-base=" + std::to_string(seed_base);
  out += ";n-seeds=" + std::to_string(n_seeds);
  out += ";scale=" + util::format_double(scale, 6);
  out += ";shard=" + std::to_string(shard_cells);
  return out;
}

std::uint64_t SweepGrid::cell_count() const noexcept {
  return static_cast<std::uint64_t>(campaigns.size()) *
         static_cast<std::uint64_t>(allocators.size()) *
         static_cast<std::uint64_t>(n_pes.size()) * n_seeds;
}

std::uint64_t SweepGrid::shard_count() const noexcept {
  if (shard_cells == 0) return 0;
  return (cell_count() + shard_cells - 1) / shard_cells;
}

SweepCell SweepGrid::cell(std::uint64_t index) const {
  PARTREE_ASSERT(index < cell_count(), "sweep cell index out of range");
  SweepCell cell;
  cell.index = index;
  cell.seed = seed_base + index % n_seeds;
  index /= n_seeds;
  cell.n_pes = n_pes[index % n_pes.size()];
  index /= n_pes.size();
  cell.allocator = allocators[index % allocators.size()];
  index /= allocators.size();
  cell.campaign = campaigns[index];
  return cell;
}

std::pair<std::uint64_t, std::uint64_t> SweepGrid::shard_range(
    std::uint64_t shard) const {
  PARTREE_ASSERT(shard < shard_count(), "sweep shard index out of range");
  const std::uint64_t first = shard * shard_cells;
  const std::uint64_t last =
      std::min(cell_count(), first + shard_cells);
  return {first, last};
}

std::uint64_t SweepShard::digest() const noexcept {
  util::Fnv fnv;
  for (const SweepCellResult& cell : cells) fold_cell(fnv, cell);
  return fnv.value();
}

namespace {

/// Runs one shard's cells through the engine (digests on, cells fanned
/// out over the worker pool) and returns them in cell-index order. When
/// `faults` is non-null, cancel faults scheduled at this shard's cell
/// indices throw FaultInjectedError (failing the attempt) and alloc_fail
/// faults are delegated to the cell's engine run.
[[nodiscard]] SweepShard run_shard(const SweepGrid& grid, std::uint64_t shard,
                                   std::size_t n_threads,
                                   const FaultPlan* faults = nullptr) {
  const auto [first, last] = grid.shard_range(shard);
  SweepShard out;
  out.index = shard;
  out.cells.resize(static_cast<std::size_t>(last - first));
  std::atomic<std::uint64_t> injected{0};
  const std::uint64_t start_ns = obs::detail::monotonic_ns();
  parallel_for(
      static_cast<std::size_t>(last - first),
      [&](std::size_t i) {
        const SweepCell cell = grid.cell(first + i);
        const Fault* fault =
            faults != nullptr ? faults->at(cell.index) : nullptr;
        out.cells[i] = run_cell(grid, cell, fault, injected);
      },
      n_threads);
  out.faults_injected = injected.load(std::memory_order_relaxed);
  const std::uint64_t wall_ns = obs::detail::monotonic_ns() - start_ns;
  out.wall_seconds = static_cast<double>(wall_ns) / 1e9;
  // The wall time is measured anyway for the checkpoint, so the duration
  // histogram gets it for free -- no duration-metrics switch needed; the
  // per-shard wall_seconds each checkpoint carries is the same number,
  // aggregated here into the run-level distribution.
  obs::record_duration(obs::DurationMetric::kSweepShardNs, wall_ns);
  obs::record_value(obs::ValueMetric::kSweepShardCells, out.cells.size());
  obs::emit_instant(obs::Instant::kSweepShard, shard);
  return out;
}

[[nodiscard]] util::json::Value shard_to_json(const SweepShard& shard) {
  util::json::Array cells;
  for (const SweepCellResult& cell : shard.cells) {
    cells.push_back(cell_to_json(cell));
  }
  util::json::Object obj;
  obj.emplace("shard", shard.index);
  obj.emplace("attempts", shard.attempts);
  obj.emplace("faults_injected", shard.faults_injected);
  obj.emplace("wall_seconds", shard.wall_seconds);
  obj.emplace("digest", util::digest_hex(shard.digest()));
  obj.emplace("cells", std::move(cells));
  return util::json::Value(std::move(obj));
}

[[nodiscard]] SweepShard shard_from_json(const util::json::Value& v) {
  SweepShard shard;
  shard.index = v.at("shard").as_u64();
  shard.attempts = v.at("attempts").as_u64();
  shard.faults_injected = v.at("faults_injected").as_u64();
  shard.wall_seconds = v.at("wall_seconds").as_double();
  for (const util::json::Value& cell : v.at("cells").as_array()) {
    shard.cells.push_back(cell_from_json(cell));
  }
  const std::uint64_t recorded =
      util::parse_digest_hex(v.at("digest").as_string());
  if (recorded != shard.digest()) {
    throw std::runtime_error(
        "sweep checkpoint: shard " + std::to_string(shard.index) +
        " digest " + util::digest_hex(recorded) +
        " does not match its cells (" + util::digest_hex(shard.digest()) +
        "); the file is corrupt");
  }
  return shard;
}

/// Throws std::invalid_argument naming the first part of `grid` or
/// `faults` that a sweep cannot run. Every shard would fail it alike, so
/// it fails the sweep before anything resumes, runs or checkpoints.
void validate_sweep(const SweepGrid& grid, const FaultPlan& faults) {
  const std::vector<std::string> known = workload::campaign_names();
  for (const std::string& campaign : grid.campaigns) {
    if (std::find(known.begin(), known.end(), campaign) == known.end()) {
      throw std::invalid_argument("sweep grid: unknown campaign '" +
                                  campaign + "'");
    }
  }
  for (const std::uint64_t n_pes : grid.n_pes) {
    if (!util::is_pow2(n_pes)) {
      throw std::invalid_argument("sweep grid: pes=" + std::to_string(n_pes) +
                                  " is not a power of two");
    }
    const tree::Topology topo(n_pes);
    for (const std::string& spec : grid.allocators) {
      (void)core::make_allocator(spec, topo);
    }
  }
  for (const Fault& fault : faults.faults()) {
    if (fault.kind != FaultKind::kCancel &&
        fault.kind != FaultKind::kAllocFail) {
      throw std::invalid_argument("sweep fault plans support alloc_fail and "
                                  "cancel only, not " + fault.to_string());
    }
    if (fault.step >= grid.cell_count()) {
      throw std::invalid_argument(
          "sweep fault " + fault.to_string() + " names no cell (the grid has " +
          std::to_string(grid.cell_count()) + " cells)");
    }
  }
}

/// Loads the shards of `options.checkpoint_path` that are safe to reuse
/// for `grid`: wrong-grid or unreadable checkpoints yield an empty map, a
/// digest-verification failure (sampled per options.verify_sample)
/// discards everything; each decision appends a note.
[[nodiscard]] std::map<std::uint64_t, SweepShard> load_resumable_shards(
    const SweepGrid& grid, const SweepOptions& options,
    std::vector<std::string>& notes) {
  std::map<std::uint64_t, SweepShard> out;
  if (!options.resume || options.checkpoint_path.empty()) return out;

  const std::optional<std::string> text =
      util::read_file(options.checkpoint_path);
  if (!text) {
    notes.push_back("resume: no checkpoint at " + options.checkpoint_path +
                    "; starting fresh");
    return out;
  }
  SweepCheckpoint ckpt;
  try {
    ckpt = read_checkpoint(*text);
  } catch (const std::exception& e) {
    notes.push_back(std::string("resume: checkpoint unreadable (") +
                    e.what() + "); starting fresh");
    return out;
  }
  if (ckpt.grid_text != grid.to_string()) {
    notes.push_back("resume: checkpoint was written for a different grid (" +
                    ckpt.grid_text + "); ignoring it");
    return out;
  }
  for (SweepShard& shard : ckpt.shards) {
    if (shard.index >= grid.shard_count()) {
      notes.push_back("resume: dropping out-of-range shard " +
                      std::to_string(shard.index));
      continue;
    }
    const auto [first, last] = grid.shard_range(shard.index);
    if (shard.cells.size() != static_cast<std::size_t>(last - first)) {
      notes.push_back("resume: dropping incomplete shard " +
                      std::to_string(shard.index));
      continue;
    }
    out.emplace(shard.index, std::move(shard));
  }
  if (out.empty()) return out;

  // Digest verification: re-run an evenly spaced sample of the completed
  // shards. A mismatch means the checkpoint predates a behavior change in
  // this binary -- merging it with fresh shards would silently mix two
  // different experiments, so the whole checkpoint is discarded instead.
  const std::uint64_t sample =
      std::min<std::uint64_t>(options.verify_sample, out.size());
  if (sample > 0) {
    std::vector<std::uint64_t> indices;
    indices.reserve(out.size());
    for (const auto& [index, shard] : out) indices.push_back(index);
    for (std::uint64_t k = 0; k < sample; ++k) {
      const std::uint64_t pick =
          indices[static_cast<std::size_t>(k * indices.size() / sample)];
      const SweepShard fresh = run_shard(grid, pick, options.n_threads);
      const SweepShard& recorded = out.at(pick);
      if (fresh.digest() != recorded.digest()) {
        notes.push_back(
            "resume: checkpoint is STALE vs this binary (shard " +
            std::to_string(pick) + " recomputes to " +
            util::digest_hex(fresh.digest()) + ", checkpoint has " +
            util::digest_hex(recorded.digest()) +
            "); rerunning the full grid from scratch");
        out.clear();
        return out;
      }
    }
    notes.push_back("resume: verified " + std::to_string(sample) + " of " +
                    std::to_string(indices.size()) +
                    " completed shards by digest");
  }
  return out;
}

/// Assembles the merged report from a full or partial shard set (shards
/// keyed by index).
[[nodiscard]] SweepReport merge_shards(
    const SweepGrid& grid, const std::map<std::uint64_t, SweepShard>& shards) {
  SweepReport report;
  report.grid = grid;
  util::Fnv fnv;
  for (const auto& [index, shard] : shards) {
    report.shards.push_back(shard);
    report.faults_injected += shard.faults_injected;
    for (const SweepCellResult& cell : shard.cells) {
      ++report.cells;
      report.total_reallocations += cell.reallocations;
      report.total_migrations += cell.migrations;
      report.total_migrated_size += cell.migrated_size;
      if (cell.optimal_load > 0) {
        const double ratio = static_cast<double>(cell.max_load) /
                             static_cast<double>(cell.optimal_load);
        if (ratio > report.worst_ratio) report.worst_ratio = ratio;
      }
      fold_cell(fnv, cell);
    }
  }
  report.combined_digest = fnv.value();
  report.complete = shards.size() == grid.shard_count();
  return report;
}

}  // namespace

std::string write_checkpoint(const SweepGrid& grid,
                             const std::vector<SweepShard>& shards) {
  std::map<std::uint64_t, const SweepShard*> sorted;
  for (const SweepShard& shard : shards) sorted[shard.index] = &shard;
  util::json::Array arr;
  for (const auto& [index, shard] : sorted) {
    arr.push_back(shard_to_json(*shard));
  }
  util::json::Object root;
  root.emplace("schema", std::string(kCkptSchema));
  root.emplace("grid", grid.to_string());
  root.emplace("shards", std::move(arr));
  return util::json::Value(std::move(root)).dump() + "\n";
}

SweepCheckpoint read_checkpoint(std::string_view text) {
  const util::json::Value root = util::json::parse(text);
  const std::string& schema = root.at("schema").as_string();
  if (schema != kCkptSchema) {
    throw std::runtime_error("sweep checkpoint: unknown schema '" + schema +
                             "'");
  }
  SweepCheckpoint ckpt;
  ckpt.grid_text = root.at("grid").as_string();
  std::map<std::uint64_t, SweepShard> by_index;
  for (const util::json::Value& entry : root.at("shards").as_array()) {
    SweepShard shard = shard_from_json(entry);
    if (by_index.contains(shard.index)) {
      throw std::runtime_error("sweep checkpoint: duplicate shard " +
                               std::to_string(shard.index));
    }
    by_index.emplace(shard.index, std::move(shard));
  }
  for (auto& [index, shard] : by_index) {
    ckpt.shards.push_back(std::move(shard));
  }
  return ckpt;
}

SweepReport run_sweep(const SweepGrid& grid, const SweepOptions& options) {
  validate_sweep(grid, options.faults);

  std::vector<std::string> notes;
  std::map<std::uint64_t, SweepShard> done =
      load_resumable_shards(grid, options, notes);
  const std::uint64_t resumed = done.size();

  std::uint64_t retries = 0;
  std::uint64_t cancels = 0;
  std::uint64_t run_count = 0;

  for (std::uint64_t s = 0; s < grid.shard_count(); ++s) {
    if (done.contains(s)) continue;
    std::uint64_t attempt = 0;
    for (;;) {
      ++attempt;
      try {
        // Test faults fire on the first attempt only, so the retry path
        // is exercised deterministically and then converges.
        const FaultPlan* plan =
            attempt == 1 && !options.faults.empty() ? &options.faults
                                                    : nullptr;
        SweepShard shard = run_shard(grid, s, options.n_threads, plan);
        shard.attempts = attempt;
        done.emplace(s, std::move(shard));
        break;
      } catch (const std::exception& e) {
        if (dynamic_cast<const FaultInjectedError*>(&e) != nullptr) {
          ++cancels;
        }
        if (attempt > options.max_retries) {
          throw std::runtime_error(
              "sweep: shard " + std::to_string(s) + " failed after " +
              std::to_string(attempt) + " attempts: " + e.what());
        }
        ++retries;
        notes.push_back("shard " + std::to_string(s) + " attempt " +
                        std::to_string(attempt) + " failed (" + e.what() +
                        "); retrying");
        const std::uint64_t backoff =
            std::min(options.retry_backoff_ms << (attempt - 1),
                     kRetryBackoffCapMs);
        if (backoff > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        }
      }
    }
    ++run_count;

    if (!options.checkpoint_path.empty()) {
      std::vector<SweepShard> all;
      all.reserve(done.size());
      for (const auto& [index, shard] : done) all.push_back(shard);
      if (!util::write_file_atomic(options.checkpoint_path,
                                   write_checkpoint(grid, all))) {
        notes.push_back("WARNING: could not write checkpoint " +
                        options.checkpoint_path);
      }
    }
    if (options.on_shard_done && !options.on_shard_done(done.at(s))) break;
  }

  SweepReport report = merge_shards(grid, done);
  report.shards_run = run_count;
  report.shards_resumed = resumed;
  report.retries = retries;
  report.faults_injected += cancels;
  report.notes = std::move(notes);
  return report;
}

}  // namespace partree::sim
