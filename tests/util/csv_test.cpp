#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace partree::util {
namespace {

TEST(CsvTest, EscapePlainField) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
  EXPECT_EQ(CsvWriter::escape(""), "");
}

TEST(CsvTest, EscapeComma) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
}

TEST(CsvTest, EscapeQuote) {
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, WriteRow) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.row({"a", "b,c", "d"});
  EXPECT_EQ(out.str(), "a,\"b,c\",d\n");
}

TEST(CsvTest, RowOfMixedTypes) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.row_of("name", 42, 1.5);
  EXPECT_EQ(out.str(), "name,42,1.5\n");
}

TEST(CsvTest, ParseSimpleLine) {
  const auto fields = parse_csv_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b");
}

TEST(CsvTest, ParseQuotedFields) {
  const auto fields = parse_csv_line("\"a,b\",\"say \"\"hi\"\"\",plain");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "say \"hi\"");
  EXPECT_EQ(fields[2], "plain");
}

TEST(CsvTest, ParseEmptyFields) {
  const auto fields = parse_csv_line("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(CsvTest, ParseToleratesCarriageReturn) {
  const auto fields = parse_csv_line("a,b\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "b");
}

TEST(CsvTest, RoundTrip) {
  std::ostringstream out;
  CsvWriter writer(out);
  const std::vector<std::string> original{"x,y", "with \"quotes\"", "plain"};
  writer.row(original);
  std::string line = out.str();
  line.pop_back();  // drop trailing newline
  EXPECT_EQ(parse_csv_line(line), original);
}

TEST(CsvTest, ReadCsvSkipsBlankLines) {
  std::istringstream in("a,b\n\nc,d\n   \n");
  const auto rows = read_csv_lines(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].fields[0], "a");
  EXPECT_EQ(rows[1].fields[1], "d");
}

TEST(CsvTest, ReadCsvLinesReportsOneBasedFileLines) {
  std::istringstream in("a,b\nc,d\n");
  const auto rows = read_csv_lines(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].line, 1u);
  EXPECT_EQ(rows[1].line, 2u);
  EXPECT_EQ(rows[0].fields, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1].fields, (std::vector<std::string>{"c", "d"}));
}

// Blank lines produce no row but still advance the reported file line, so
// error messages built from CsvRow::line match what an editor shows.
TEST(CsvTest, ReadCsvLinesCountsSkippedBlankLines) {
  std::istringstream in("a,b\n\n   \nc,d\n");
  const auto rows = read_csv_lines(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].line, 1u);
  EXPECT_EQ(rows[1].line, 4u);
}

// Durability edges: files that survived a crash, an scp from Windows, or a
// truncating editor must still parse the same.

// CRLF line endings outside quotes: the \r belongs to the terminator, not
// the last field.
TEST(CsvTest, ReadCsvToleratesCrlfLineEndings) {
  std::istringstream in("a,b\r\nc,d\r\n");
  const auto rows = read_csv_lines(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].fields, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1].fields, (std::vector<std::string>{"c", "d"}));
}

// A \r INSIDE a quoted field is data, not a terminator, and must survive
// even when the line itself also ends in CRLF.
TEST(CsvTest, ParsePreservesCarriageReturnInsideQuotes) {
  const auto fields = parse_csv_line("\"a\rb\",c\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "a\rb");
  EXPECT_EQ(fields[1], "c");
}

// A final line with no trailing newline (classic crash/truncation shape)
// still yields its row.
TEST(CsvTest, ReadCsvHandlesMissingFinalNewline) {
  std::istringstream in("a,b\nc,d");
  const auto rows = read_csv_lines(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].fields, (std::vector<std::string>{"c", "d"}));
}

// Writer quotes \r-bearing fields, so a write -> read round-trip through
// the real reader preserves the byte.
TEST(CsvTest, CarriageReturnRoundTripsThroughWriterAndReader) {
  std::ostringstream out;
  CsvWriter writer(out);
  const std::vector<std::string> original{"a\rb", "plain", "c\rd"};
  writer.row(original);
  std::istringstream in(out.str());
  const auto rows = read_csv_lines(in);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].fields, original);
}

}  // namespace
}  // namespace partree::util
