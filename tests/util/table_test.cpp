#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace hls {
namespace {

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(1.0, 3), "1.000");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(ParseNumber, ReadsWholeFiniteNumbers) {
  EXPECT_EQ(parse_number("24"), 24.0);
  EXPECT_EQ(parse_number("-5"), -5.0);  // ranges are the caller's to check
  EXPECT_EQ(parse_number("1e-9"), 1e-9);
  EXPECT_EQ(parse_number(".5"), 0.5);
  for (const char* bad : {"", "abc", "5x", "2.7.1", "inf", "-inf", "nan",
                          "1e999"}) {
    EXPECT_EQ(parse_number(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(ParseUint64, ReadsTheWholeRangeAndNothingElse) {
  EXPECT_EQ(parse_uint64("0"), 0u);
  EXPECT_EQ(parse_uint64("18446744073709551615"), 18446744073709551615ULL);
  for (const char* bad : {"", "abc", "5x", "-1", "+5", " 5", "2.0", "1e3",
                          "18446744073709551616"}) {
    EXPECT_EQ(parse_uint64(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(Table, AlignedOutputContainsHeadersAndCells) {
  Table t({"name", "value"});
  t.begin_row().add_cell("alpha").add_num(1.5, 2);
  t.begin_row().add_cell("b").add_int(42);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(Table, CsvOutputHasSentinelPrefix) {
  Table t({"a", "b"});
  t.begin_row().add_int(1).add_int(2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "csv,a,b\ncsv,1,2\n");
}

TEST(Table, RowAccessors) {
  Table t({"x"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.begin_row().add_cell("v");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row(0).at(0), "v");
}

// A short row is a schema break the csv reader would only find downstream:
// the table refuses it when the next row starts or when it prints.
TEST(TableDeathTest, ShortRowThenBeginRowAborts) {
  Table t({"a", "b"});
  t.begin_row().add_int(1);
  EXPECT_DEATH(t.begin_row(), "fewer cells than headers");
}

TEST(TableDeathTest, ShortLastRowAbortsAtPrint) {
  Table t({"a", "b"});
  t.begin_row().add_int(1).add_int(2);
  t.begin_row().add_int(3);
  std::ostringstream os;
  EXPECT_DEATH(t.print(os), "fewer cells than headers");
}

TEST(TableDeathTest, ShortLastRowAbortsAtPrintCsv) {
  Table t({"a", "b"});
  t.begin_row().add_int(1);
  std::ostringstream os;
  EXPECT_DEATH(t.print_csv(os), "fewer cells than headers");
}

TEST(Table, ColumnsAlignAcrossRows) {
  Table t({"h", "long_header"});
  t.begin_row().add_cell("yyyyyyyyyy").add_cell("1");
  t.begin_row().add_cell("z").add_cell("2");
  std::ostringstream os;
  t.print(os);
  std::string line;
  std::istringstream in(os.str());
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);  // header, underline, 2 rows
  EXPECT_EQ(lines[2].size(), lines[3].size());
}

}  // namespace
}  // namespace hls
