// Tiny argv parser for the bench/example binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--flag` forms, with
// typed accessors and an auto-generated usage string. Unknown options are a
// hard error so typos in scripts do not silently run defaults.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace partree::util {

/// The largest machine size a kPow2 or kPow2List value, or a detsim repro
/// file, may name: N = 2^20, the largest machine any test or benchmark
/// builds. Far larger sizes exhaust memory in the tree arrays instead of
/// failing cleanly.
inline constexpr std::uint64_t kMaxMachineSize = std::uint64_t{1} << 20;

class Cli {
 public:
  /// The values an option accepts. parse() checks every given and default
  /// value against its option's kind, so a malformed number or a bad
  /// machine size is a usage error instead of an exception, an assertion
  /// deep in the library or an allocation that exhausts memory.
  enum class Kind : std::uint8_t {
    kAny,       ///< any string; the typed getters check it when read
    kU64,       ///< an unsigned integer, as get_u64 reads it
    kPositive,  ///< an unsigned integer >= 1, e.g. a trial count
    kDouble,    ///< a finite number, as get_double reads it
    kU64List,   ///< a comma-separated list of unsigned integers
    kPow2,      ///< a power of two in [1, 2^20], e.g. a machine size
    kPow2List,  ///< a comma-separated list of powers of two in [1, 2^20]
  };

  /// Declares an option with a help string, optional default and value
  /// kind. Redeclaring a name (as option or flag) is an assertion failure.
  Cli& option(std::string name, std::string help,
              std::optional<std::string> default_value = std::nullopt,
              Kind kind = Kind::kAny);
  /// Declares a boolean flag (present => true). Same redeclaration rule.
  Cli& flag(std::string name, std::string help);

  /// Parses argv and checks each option's value against its kind.
  /// Returns false (after printing usage) on error or --help.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::string get(std::string_view name) const;
  [[nodiscard]] std::uint64_t get_u64(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  [[nodiscard]] bool get_flag(std::string_view name) const;

  /// Parses a comma-separated list of u64 (e.g. "--sizes 1,2,4").
  [[nodiscard]] std::vector<std::uint64_t> get_u64_list(
      std::string_view name) const;

  [[nodiscard]] std::string usage(std::string_view program) const;

 private:
  struct Spec {
    std::string help;
    std::optional<std::string> default_value;
    bool is_flag = false;
    Kind kind = Kind::kAny;
  };

  Cli& declare(std::string name, Spec spec);

  std::map<std::string, Spec, std::less<>> specs_;
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> flag_hits_;
};

/// Runs `check`, which hands option `name`'s value to the library that
/// judges it (an allocator spec, a campaign name or scale, a fault plan).
/// A std::invalid_argument from `check` is a usage error: it prints
/// "option --<name>: <reason>" and returns false.
[[nodiscard]] bool check_option(std::string_view name,
                                const std::function<void()>& check);

}  // namespace partree::util
