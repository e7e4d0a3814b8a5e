// Minimal JSON for the detsim repro files.
//
// A small value type plus a strict recursive-descent parser and a stable
// pretty-printer. Deliberately tiny: objects are std::map (keys serialize
// sorted, so equal documents produce byte-identical files), numbers are
// double (counters fit exactly up to 2^53), and parse errors throw
// std::runtime_error with an offset -- callers like detsim_runner
// --replay turn that into a clean nonzero exit instead of an abort.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace partree::util::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(std::uint64_t u) : data_(static_cast<double>(u)) {}
  Value(std::int64_t i) : data_(static_cast<double>(i)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(std::string_view s) : data_(std::string(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(data_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(data_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(data_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(data_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<Array>(data_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<Object>(data_);
  }

  /// Typed accessors; throw std::runtime_error on a kind mismatch so
  /// schema violations in input files surface as catchable errors.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] Object& as_object();

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Like find, but throws std::runtime_error naming the missing key.
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Serializes with 2-space indentation and sorted keys; terminated by a
  /// newline at top level via dump_file-style usage (caller appends).
  [[nodiscard]] std::string dump() const;

  friend bool operator==(const Value&, const Value&) = default;

 private:
  void dump_to(std::string& out, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      data_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). Throws std::runtime_error with a byte offset on error.
[[nodiscard]] Value parse(std::string_view text);

/// Escapes a string per JSON rules (quotes included). Control characters
/// use short escapes or \u00xx; non-ASCII input is treated as UTF-8 and
/// emitted as \uXXXX escapes (surrogate pairs beyond the BMP), so the
/// output is pure ASCII. Invalid UTF-8 bytes become U+FFFD. Valid UTF-8
/// therefore round-trips byte-identically through parse(quote(s)).
[[nodiscard]] std::string quote(std::string_view s);

}  // namespace partree::util::json
