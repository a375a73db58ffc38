/**
 * @file
 * Unit tests for the statistics substrate: geometric means (every
 * speedup figure) and table rendering.
 */

#include <gtest/gtest.h>

#include "stats/summary.hh"
#include "stats/table.hh"

namespace prophet::stats
{
namespace
{

TEST(Summary, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({2.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Summary, GeomeanOfSpeedupsBelowArithmetic)
{
    std::vector<double> v{1.0, 1.2, 1.6, 2.0};
    EXPECT_LT(geomean(v), mean(v));
    EXPECT_GT(geomean(v), 1.0);
}

TEST(Summary, WeightedMean)
{
    EXPECT_DOUBLE_EQ(weightedMean({1.0, 3.0}, {1.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(weightedMean({1.0, 3.0}, {3.0, 1.0}), 1.5);
    EXPECT_DOUBLE_EQ(weightedMean({5.0}, {0.0}), 0.0);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "2.5"});
    std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
    // Header and separator and two rows -> 4 lines.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, FmtPrecision)
{
    EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(Table::fmt(2.0, 3), "2.000");
}

} // anonymous namespace
} // namespace prophet::stats
