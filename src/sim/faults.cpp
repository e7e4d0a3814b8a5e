#include "sim/faults.hpp"

#include <algorithm>
#include <charconv>

#include "util/assert.hpp"
#include "util/digest.hpp"
#include "util/json.hpp"
#include "util/math.hpp"

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
  util::json::Object root;
  root.emplace("schema", "partree-detsim-repro-v1");
  root.emplace("n_pes", spec.n_pes);
  root.emplace("allocator", spec.allocator);
  // Seeds are full 64-bit values; util::json numbers are doubles (exact
  // only to 2^53), so the seed travels as hex like the digest.
  root.emplace("seed", util::digest_hex(spec.seed));
  root.emplace("faults", spec.faults.to_string());
  root.emplace("expect", spec.expect);
  root.emplace("baseline_digest", util::digest_hex(spec.baseline_digest));
  return util::json::Value(std::move(root)).dump() + "\n";
}

ReproSpec read_repro(std::string_view text) {
  const util::json::Value root = util::json::parse(text);
  if (root.at("schema").as_string() != "partree-detsim-repro-v1") {
    throw std::runtime_error("repro file has unknown schema: " +
                             root.at("schema").as_string());
  }
  ReproSpec spec;
  spec.n_pes = root.at("n_pes").as_u64();
  if (!util::is_pow2(spec.n_pes)) {
    throw std::runtime_error("repro file n_pes " + std::to_string(spec.n_pes) +
                             " is not a power of two");
  }
  spec.allocator = root.at("allocator").as_string();
  spec.seed = util::parse_digest_hex(root.at("seed").as_string());
  try {
    spec.faults = FaultPlan::parse(root.at("faults").as_string());
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("repro file faults field: ") +
                             e.what());
  }
  spec.expect = root.at("expect").as_string();
  if (spec.expect != "divergence" && spec.expect != "caught" &&
      spec.expect != "recovered") {
    throw std::runtime_error("repro file expect field \"" + spec.expect +
                             "\": expected divergence, caught or recovered");
  }
  spec.baseline_digest =
      util::parse_digest_hex(root.at("baseline_digest").as_string());
  return spec;
}

}  // namespace partree::sim
