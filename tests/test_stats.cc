/**
 * @file
 * Unit tests for the stats package: Histogram, Table.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "src/stats/histogram.hh"
#include "src/stats/table.hh"

namespace isim {
namespace {

TEST(Histogram, BasicMoments)
{
    Histogram h("lat", 10, 10);
    h.sample(5);
    h.sample(15);
    h.sample(15);
    h.sample(95);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), (5 + 15 + 15 + 95) / 4.0);
    EXPECT_EQ(h.minValue(), 5u);
    EXPECT_EQ(h.maxValue(), 95u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(9), 1u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, Overflow)
{
    Histogram h("lat", 10, 4);
    h.sample(1000);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, WeightedSamples)
{
    Histogram h("lat", 1, 8);
    h.sample(3, 5);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucketCount(3), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Histogram, Quantile)
{
    Histogram h("lat", 10, 10);
    for (int i = 0; i < 90; ++i)
        h.sample(5); // bucket 0
    for (int i = 0; i < 10; ++i)
        h.sample(95); // bucket 9
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);   // inside bucket 0
    EXPECT_DOUBLE_EQ(h.quantile(0.95), 100.0); // reaches bucket 9
}

TEST(Histogram, QuantileOfEmptyIsNaN)
{
    Histogram h("lat", 10, 10);
    EXPECT_TRUE(std::isnan(h.quantile(0.5)));
    EXPECT_TRUE(std::isnan(h.quantile(0.99)));
}

TEST(Histogram, QuantileInOverflowIsNaN)
{
    Histogram h("lat", 10, 4);
    h.sample(5);    // bucket 0
    h.sample(1000); // overflow
    // The median is resolvable, the tail is not: its mass sits in
    // the unbounded overflow bucket.
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 10.0);
    EXPECT_TRUE(std::isnan(h.quantile(0.99)));
}

TEST(FormatNum, NonFiniteRendersAsDash)
{
    EXPECT_EQ(formatNum(std::nan(""), 2), "-");
    EXPECT_EQ(formatNum(std::numeric_limits<double>::infinity(), 0),
              "-");
}

TEST(Histogram, Clear)
{
    Histogram h("lat", 10, 10);
    h.sample(42);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.maxValue(), 0u);
}

TEST(Table, AlignedText)
{
    Table t({"Config", "Value"});
    t.row().cell("a").num(1.5);
    t.row().cell("longer-name").count(42);
    const std::string text = t.toText();
    EXPECT_NE(text.find("Config"), std::string::npos);
    EXPECT_NE(text.find("longer-name"), std::string::npos);
    EXPECT_NE(text.find("1.5"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
    // All lines equal width for the header underline to make sense.
    std::istringstream is(text);
    std::string line, first;
    std::getline(is, first);
    std::getline(is, line); // separator
    EXPECT_EQ(line.find_first_not_of('-'), std::string::npos);
}

TEST(Table, RowAndColumnCounts)
{
    Table t({"a", "b", "c"});
    EXPECT_EQ(t.columns(), 3u);
    t.row().cell("1").cell("2").cell("3");
    EXPECT_EQ(t.rows(), 1u);
}

TEST(TableDeathTest, RowWidthMismatch)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(FormatNum, Precision)
{
    EXPECT_EQ(formatNum(1.23456, 2), "1.23");
    EXPECT_EQ(formatNum(1.0, 0), "1");
}

} // namespace
} // namespace isim
