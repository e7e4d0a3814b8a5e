#include "sim/faults.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <sstream>

#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/digest.hpp"
#include "util/math.hpp"
#include "util/str.hpp"

namespace partree::sim {
namespace {

// The recoverable kinds first: random_fault_plan draws from the leading
// kNumRecoverableKinds entries when corruption is excluded.
constexpr FaultKind kInjectableKinds[] = {
    FaultKind::kAllocFail,       FaultKind::kCancel,
    FaultKind::kCorruptLoadTree, FaultKind::kCorruptActiveMap,
    FaultKind::kCorruptCopySet,
};
constexpr std::size_t kNumRecoverableKinds = 2;

constexpr std::string_view kReproSchema = "partree-detsim-repro-v2";
/// A repro file's keys, in the order write_repro writes them.
constexpr std::string_view kReproKeys[] = {
    "schema", "n_pes",  "allocator", "seed", "n_events",
    "faults", "expect", "baseline_placement_digest"};

[[nodiscard]] std::optional<FaultKind> kind_from_name(std::string_view name) {
  for (const FaultKind kind : kInjectableKinds) {
    if (fault_kind_name(kind) == name) return kind;
  }
  return std::nullopt;
}

[[nodiscard]] Fault parse_fault(std::string_view token) {
  const std::size_t at = token.rfind('@');
  if (at == std::string_view::npos) {
    throw std::invalid_argument("fault token missing '@step': " +
                                std::string(token));
  }
  const std::optional<FaultKind> kind = kind_from_name(token.substr(0, at));
  if (!kind) {
    throw std::invalid_argument("unknown fault kind: " +
                                std::string(token.substr(0, at)));
  }
  const std::string_view digits = token.substr(at + 1);
  std::uint64_t step = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), step);
  if (ec != std::errc() || ptr != digits.data() + digits.size() ||
      digits.empty()) {
    throw std::invalid_argument("malformed fault step: " +
                                std::string(token));
  }
  return Fault{step, *kind};
}

}  // namespace

std::string_view fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kAllocFail: return "alloc_fail";
    case FaultKind::kCancel: return "cancel";
    case FaultKind::kCorruptLoadTree: return "corrupt:load_tree";
    case FaultKind::kCorruptActiveMap: return "corrupt:active_map";
    case FaultKind::kCorruptCopySet: return "corrupt:copy_set";
    case FaultKind::kCount: break;
  }
  return "unknown";
}

bool fault_is_corruption(FaultKind kind) noexcept {
  return kind == FaultKind::kCorruptLoadTree ||
         kind == FaultKind::kCorruptActiveMap ||
         kind == FaultKind::kCorruptCopySet;
}

std::string Fault::to_string() const {
  return std::string(fault_kind_name(kind)) + "@" + std::to_string(step);
}

FaultPlan::FaultPlan(std::vector<Fault> faults) : faults_(std::move(faults)) {
  std::sort(faults_.begin(), faults_.end(),
            [](const Fault& a, const Fault& b) { return a.step < b.step; });
  for (std::size_t i = 1; i < faults_.size(); ++i) {
    PARTREE_ASSERT(faults_[i - 1].step < faults_[i].step,
                   "fault plan schedules two faults at the same step");
  }
}

FaultPlan FaultPlan::parse(std::string_view text) {
  if (!text.empty() && text.back() == ',') {
    throw std::invalid_argument("trailing comma in fault plan: " +
                                std::string(text));
  }
  std::vector<Fault> faults;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view token = text.substr(begin, end - begin);
    if (token.empty()) {
      throw std::invalid_argument("empty fault token in plan: " +
                                  std::string(text));
    }
    faults.push_back(parse_fault(token));
    begin = end + 1;
  }
  for (std::size_t i = 1; i < faults.size(); ++i) {
    if (faults[i - 1].step >= faults[i].step) {
      throw std::invalid_argument(
          "fault plan steps must be strictly increasing: " +
          std::string(text));
    }
  }
  return FaultPlan(std::move(faults));
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const Fault& fault : faults_) {
    if (!out.empty()) out += ',';
    out += fault.to_string();
  }
  return out;
}

bool FaultPlan::has_corruption() const noexcept {
  return std::any_of(faults_.begin(), faults_.end(), [](const Fault& f) {
    return fault_is_corruption(f.kind);
  });
}

const Fault* FaultPlan::at(std::uint64_t step) const noexcept {
  const auto it = std::lower_bound(
      faults_.begin(), faults_.end(), step,
      [](const Fault& f, std::uint64_t s) { return f.step < s; });
  return it != faults_.end() && it->step == step ? &*it : nullptr;
}

FaultPlan random_fault_plan(util::Rng& rng, std::uint64_t n_events,
                            bool include_corruption) {
  PARTREE_ASSERT(n_events >= 2, "fault plan needs a run of >= 2 events");
  util::Rng draw = rng.split();
  // Step 0 is excluded: a fault before any state exists exercises nothing
  // (corruptions would all be inapplicable on the empty machine).
  const std::uint64_t step = 1 + draw.below(n_events - 1);
  const std::size_t n_kinds = include_corruption
                                  ? std::size(kInjectableKinds)
                                  : kNumRecoverableKinds;
  return FaultPlan({Fault{step, kInjectableKinds[draw.below(n_kinds)]}});
}

void FaultInjector::begin_run() {
  cursor_ = 0;
  applied_.clear();
  skipped_ = 0;
}

const Fault* FaultInjector::on_step(std::uint64_t step) {
  const std::vector<Fault>& faults = plan_.faults();
  while (cursor_ < faults.size() && faults[cursor_].step < step) {
    ++cursor_;  // steps the engine never reached (source ended early)
  }
  if (cursor_ < faults.size() && faults[cursor_].step == step) {
    return &faults[cursor_++];
  }
  return nullptr;
}

void FaultInjector::record_applied(const Fault& fault, bool applied) {
  if (applied) {
    applied_.push_back(fault);
  } else {
    ++skipped_;
  }
}

bool FaultInjector::corruption_applied() const noexcept {
  return std::any_of(applied_.begin(), applied_.end(), [](const Fault& f) {
    return fault_is_corruption(f.kind);
  });
}

std::string FaultInjector::context() const {
  return applied_.empty() ? std::string() : applied_.back().to_string();
}

std::string write_repro(const ReproSpec& spec) {
  std::ostringstream out;
  util::CsvWriter csv(out);
  csv.row_of("schema", kReproSchema);
  csv.row_of("n_pes", spec.n_pes);
  csv.row_of("allocator", spec.allocator);
  csv.row_of("seed", util::digest_hex(spec.seed));
  csv.row_of("n_events", spec.n_events);
  csv.row_of("faults", spec.faults.to_string());
  csv.row_of("expect", spec.expect);
  csv.row_of("baseline_placement_digest",
             util::digest_hex(spec.baseline_placement_digest));
  return out.str();
}

ReproSpec read_repro(std::string_view text) {
  std::istringstream in{std::string(text)};
  const std::vector<util::CsvRow> rows = util::read_csv_lines(in);
  const auto at = [](std::size_t line, const std::string& problem) {
    return std::runtime_error("repro file line " + std::to_string(line) +
                              ": " + problem);
  };
  if (rows.empty() ||
      rows[0].fields !=
          std::vector<std::string>{"schema", std::string(kReproSchema)}) {
    throw at(rows.empty() ? 1 : rows[0].line,
             "expected the schema row \"schema," + std::string(kReproSchema) +
                 "\"");
  }
  std::map<std::string_view, const util::CsvRow*> by_key;
  for (const util::CsvRow& row : rows) {
    if (row.fields.size() != 2) {
      throw at(row.line, "expected 2 fields (key,value), got " +
                             std::to_string(row.fields.size()));
    }
    const std::string& key = row.fields[0];
    if (std::find(std::begin(kReproKeys), std::end(kReproKeys), key) ==
        std::end(kReproKeys)) {
      throw at(row.line, "unknown key \"" + key + "\"");
    }
    if (const auto [first, fresh] = by_key.emplace(key, &row); !fresh) {
      throw at(row.line, "duplicate key \"" + key + "\" (first on line " +
                             std::to_string(first->second->line) + ")");
    }
  }

  // Each key's value, and the error for a bad one, naming field and line.
  const auto row_of = [&](std::string_view key) -> const util::CsvRow& {
    const auto it = by_key.find(key);
    if (it == by_key.end()) {
      throw at(rows.back().line,
               "the file ends with no " + std::string(key) + " row");
    }
    return *it->second;
  };
  const auto value = [&](std::string_view key) -> const std::string& {
    return row_of(key).fields[1];
  };
  const auto bad = [&](std::string_view key, const std::string& problem) {
    return std::runtime_error("repro file " + std::string(key) + " field \"" +
                              value(key) + "\" on line " +
                              std::to_string(row_of(key).line) + ": " +
                              problem);
  };
  const auto u64 = [&](std::string_view key) {
    const std::optional<std::uint64_t> parsed = util::parse_u64(value(key));
    if (!parsed) throw bad(key, "expected an unsigned integer");
    return *parsed;
  };
  const auto hex = [&](std::string_view key) {
    try {
      return util::parse_digest_hex(value(key));
    } catch (const std::runtime_error&) {
      throw bad(key, "expected 0x and 1 to 16 hex digits");
    }
  };

  ReproSpec spec;
  spec.n_pes = u64("n_pes");
  if (!util::is_pow2(spec.n_pes)) throw bad("n_pes", "not a power of two");
  if (spec.n_pes > util::kMaxMachineSize) {
    throw bad("n_pes",
              "must be at most " + std::to_string(util::kMaxMachineSize));
  }
  spec.allocator = value("allocator");
  spec.seed = hex("seed");
  spec.n_events = u64("n_events");
  try {
    spec.faults = FaultPlan::parse(value("faults"));
  } catch (const std::invalid_argument& e) {
    throw bad("faults", e.what());
  }
  spec.expect = value("expect");
  if (spec.expect != "divergence" && spec.expect != "caught" &&
      spec.expect != "recovered") {
    throw bad("expect", "expected divergence, caught or recovered");
  }
  spec.baseline_placement_digest = hex("baseline_placement_digest");
  return spec;
}

}  // namespace partree::sim
