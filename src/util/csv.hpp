// Minimal CSV writing/reading for traces, repro files and benchmark output.
//
// Quoting follows RFC 4180: fields containing comma, quote, or newline are
// quoted and embedded quotes doubled. That is enough for those files; we
// deliberately do not support multi-line fields on read.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace partree::util {

/// Streaming CSV writer over any std::ostream.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  /// Writes one row; fields are escaped as needed.
  void row(const std::vector<std::string>& fields);

  /// Convenience: variadic row of stringifiable values.
  template <typename... Ts>
  void row_of(const Ts&... values) {
    std::vector<std::string> fields;
    fields.reserve(sizeof...(values));
    (fields.push_back(stringify(values)), ...);
    row(fields);
  }

  [[nodiscard]] static std::string escape(std::string_view field);

 private:
  static std::string stringify(const std::string& s) { return s; }
  static std::string stringify(const char* s) { return s; }
  static std::string stringify(std::string_view s) { return std::string(s); }
  static std::string stringify(double v);
  template <typename T>
  static std::string stringify(T v) {
    return std::to_string(v);
  }

  std::ostream& out_;
};

/// Parses one CSV line into fields (handles RFC 4180 quoting, single line).
[[nodiscard]] std::vector<std::string> parse_csv_line(std::string_view line);

/// One parsed row together with the 1-based line it came from. Blank lines
/// are skipped but still advance the line count, so `line` is the real
/// position in the file -- use it for error messages.
struct CsvRow {
  std::size_t line = 0;
  std::vector<std::string> fields;
};

/// Reads every row from a stream, skipping blank lines.
[[nodiscard]] std::vector<CsvRow> read_csv_lines(std::istream& in);

}  // namespace partree::util
