#include "util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/str.hpp"

namespace partree::util {

Cli& Cli::declare(std::string name, Spec spec) {
  const auto [it, inserted] =
      specs_.emplace(std::move(name), std::move(spec));
  // emplace on a duplicate silently kept the stale help/default before;
  // a redeclared name is always a programming error in the binary.
  PARTREE_ASSERT(inserted,
                 ("Cli name redeclared: --" + it->first).c_str());
  return *this;
}

namespace {

/// True iff `text` is one value of `kind`, or of one entry of a list kind.
bool matches_one(Cli::Kind kind, std::string_view text) {
  switch (kind) {
    case Cli::Kind::kAny:
      return true;
    case Cli::Kind::kU64:
    case Cli::Kind::kU64List:
      return parse_u64(text).has_value();
    case Cli::Kind::kPositive: {
      const auto parsed = parse_u64(text);
      return parsed && *parsed >= 1;
    }
    case Cli::Kind::kDouble: {
      const auto parsed = parse_double(text);
      return parsed && std::isfinite(*parsed);
    }
    case Cli::Kind::kPow2:
    case Cli::Kind::kPow2List: {
      const auto parsed = parse_u64(text);
      return parsed && is_pow2(*parsed);
    }
  }
  return false;
}

/// True iff `raw` is a value of `kind`, read as the typed getters read it.
bool matches(Cli::Kind kind, std::string_view raw) {
  if (kind != Cli::Kind::kU64List && kind != Cli::Kind::kPow2List) {
    return matches_one(kind, raw);
  }
  const auto fields = split(raw, ',');
  return std::all_of(fields.begin(), fields.end(), [&](const std::string& f) {
    return matches_one(kind, trim(f));
  });
}

/// The first entry of a kPow2 or kPow2List value `raw` above
/// kMaxMachineSize, if any; `raw` already matches its kind.
std::optional<std::string> above_max_machine_size(Cli::Kind kind,
                                                  std::string_view raw) {
  if (kind != Cli::Kind::kPow2 && kind != Cli::Kind::kPow2List) {
    return std::nullopt;
  }
  for (const std::string& field : split(raw, ',')) {
    const std::string_view entry = trim(field);
    if (*parse_u64(entry) > kMaxMachineSize) return std::string(entry);
  }
  return std::nullopt;
}

const char* expectation(Cli::Kind kind) {
  switch (kind) {
    case Cli::Kind::kAny:
      break;
    case Cli::Kind::kU64:
      return "an unsigned integer";
    case Cli::Kind::kPositive:
      return "an unsigned integer >= 1";
    case Cli::Kind::kDouble:
      return "a finite number";
    case Cli::Kind::kU64List:
      return "a comma-separated list of unsigned integers";
    case Cli::Kind::kPow2:
      return "a power of two >= 1";
    case Cli::Kind::kPow2List:
      return "a comma-separated list of powers of two >= 1";
  }
  return "any value";
}

}  // namespace

Cli& Cli::option(std::string name, std::string help,
                 std::optional<std::string> default_value, Kind kind) {
  return declare(std::move(name), Spec{std::move(help),
                                       std::move(default_value), false, kind});
}

Cli& Cli::flag(std::string name, std::string help) {
  return declare(std::move(name), Spec{std::move(help), std::nullopt, true});
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stderr);
      return false;
    }
    if (!starts_with(arg, "--")) {
      std::fprintf(stderr, "unexpected positional argument: %s\n%s",
                   std::string(arg).c_str(), usage(argv[0]).c_str());
      return false;
    }
    arg.remove_prefix(2);
    std::string name;
    std::optional<std::string> inline_value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      inline_value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
    }
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
      std::fprintf(stderr, "unknown option: --%s\n%s", name.c_str(),
                   usage(argv[0]).c_str());
      return false;
    }
    if (it->second.is_flag) {
      if (inline_value) {
        std::fprintf(stderr, "flag --%s does not take a value\n",
                     name.c_str());
        return false;
      }
      flag_hits_.push_back(name);
      continue;
    }
    if (inline_value) {
      values_[name] = *inline_value;
    } else if (i + 1 < argc) {
      values_[name] = argv[++i];
    } else {
      std::fprintf(stderr, "option --%s requires a value\n%s", name.c_str(),
                   usage(argv[0]).c_str());
      return false;
    }
  }
  for (const auto& [name, spec] : specs_) {
    if (spec.kind == Kind::kAny || !has(name)) continue;
    const std::string raw = get(name);
    if (!matches(spec.kind, raw)) {
      std::fprintf(stderr, "option --%s expects %s, got '%s'\n%s",
                   name.c_str(), expectation(spec.kind), raw.c_str(),
                   usage(argv[0]).c_str());
      return false;
    }
    if (const auto big = above_max_machine_size(spec.kind, raw)) {
      std::fprintf(stderr, "option --%s must be at most %llu, got %s\n%s",
                   name.c_str(),
                   static_cast<unsigned long long>(kMaxMachineSize),
                   big->c_str(), usage(argv[0]).c_str());
      return false;
    }
  }
  return true;
}

bool Cli::has(std::string_view name) const {
  if (values_.find(name) != values_.end()) return true;
  const auto it = specs_.find(name);
  return it != specs_.end() && it->second.default_value.has_value();
}

std::string Cli::get(std::string_view name) const {
  if (const auto it = values_.find(name); it != values_.end()) {
    return it->second;
  }
  const auto spec = specs_.find(name);
  PARTREE_ASSERT(spec != specs_.end(), "Cli::get of undeclared option");
  PARTREE_ASSERT(spec->second.default_value.has_value(),
                 "option has no value and no default");
  return *spec->second.default_value;
}

std::uint64_t Cli::get_u64(std::string_view name) const {
  const std::string raw = get(name);
  const auto parsed = parse_u64(raw);
  if (!parsed) {
    throw std::invalid_argument("option --" + std::string(name) +
                                " expects an unsigned integer, got '" + raw +
                                "'");
  }
  return *parsed;
}

double Cli::get_double(std::string_view name) const {
  const std::string raw = get(name);
  const auto parsed = parse_double(raw);
  if (!parsed || !std::isfinite(*parsed)) {
    throw std::invalid_argument("option --" + std::string(name) +
                                " expects a finite number, got '" + raw + "'");
  }
  return *parsed;
}

bool Cli::get_flag(std::string_view name) const {
  return std::find(flag_hits_.begin(), flag_hits_.end(), name) !=
         flag_hits_.end();
}

std::vector<std::uint64_t> Cli::get_u64_list(std::string_view name) const {
  std::vector<std::uint64_t> values;
  for (const auto& field : split(get(name), ',')) {
    const auto parsed = parse_u64(trim(field));
    if (!parsed) {
      throw std::invalid_argument("option --" + std::string(name) +
                                  " expects a comma-separated integer list");
    }
    values.push_back(*parsed);
  }
  return values;
}

bool check_option(std::string_view name, const std::function<void()>& check) {
  try {
    check();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "option --%.*s: %s\n", static_cast<int>(name.size()),
                 name.data(), e.what());
    return false;
  }
  return true;
}

std::string Cli::usage(std::string_view program) const {
  std::ostringstream out;
  out << "usage: " << program << " [options]\n";
  for (const auto& [name, spec] : specs_) {
    out << "  --" << name;
    if (!spec.is_flag) out << " <value>";
    out << "\n      " << spec.help;
    if (spec.default_value) out << " (default: " << *spec.default_value << ')';
    out << '\n';
  }
  return out.str();
}

}  // namespace partree::util
