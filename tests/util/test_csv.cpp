/**
 * @file
 * Tests for the CSV reader/writer.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "util/csv.hpp"

namespace quetzal {
namespace util {
namespace {

TEST(Csv, ParsesRowsSkippingCommentsAndBlanks)
{
    std::istringstream in(
        "# header comment\n"
        "1, 2.5 ,three\n"
        "\n"
        "   \n"
        "4,5,six\n");
    const auto rows = readCsv(in);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], (CsvRow{"1", "2.5", "three"}));
    EXPECT_EQ(rows[1], (CsvRow{"4", "5", "six"}));
}

TEST(Csv, TrimsWhitespace)
{
    std::istringstream in("  a ,\tb\t, c \r\n");
    const auto rows = readCsv(in);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], (CsvRow{"a", "b", "c"}));
}

TEST(Csv, WriterRoundTrip)
{
    std::ostringstream out;
    CsvWriter writer(out);
    writer.comment("test");
    writer.row(std::vector<double>{1.5, -2.0});

    std::istringstream in(out.str());
    const auto rows = readCsv(in);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_DOUBLE_EQ(parseDouble(rows[0][0]), 1.5);
    EXPECT_DOUBLE_EQ(parseDouble(rows[0][1]), -2.0);
}

TEST(Csv, ParseNumbers)
{
    EXPECT_DOUBLE_EQ(parseDouble("3.25e-2"), 0.0325);
}

TEST(CsvDeathTest, MalformedNumberIsFatal)
{
    EXPECT_EXIT(parseDouble("12x"), ::testing::ExitedWithCode(1),
                "malformed");
}

} // namespace
} // namespace util
} // namespace quetzal
