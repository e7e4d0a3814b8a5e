#include "util/csv.hpp"

#include <istream>
#include <ostream>

#include "util/assert.hpp"
#include "util/str.hpp"

namespace partree::util {

std::string CsvWriter::escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string quoted;
  quoted.reserve(field.size() + 2);
  quoted.push_back('"');
  for (char c : field) {
    if (c == '"') quoted.push_back('"');
    quoted.push_back(c);
  }
  quoted.push_back('"');
  return quoted;
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
}

std::string CsvWriter::stringify(double v) { return format_double(v, 6); }

std::vector<std::string> parse_csv_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // tolerate CRLF line endings
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

std::vector<CsvRow> read_csv_lines(std::istream& in) {
  std::vector<CsvRow> rows;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (trim(line).empty()) continue;
    rows.push_back(CsvRow{lineno, parse_csv_line(line)});
  }
  return rows;
}

}  // namespace partree::util
