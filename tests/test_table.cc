/** @file Unit tests for table and bar-chart rendering and csprintf. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/table.hh"

using namespace gals;

TEST(TextTable, AlignedRendering)
{
    TextTable t("Title");
    t.setHeader({"name", "value"});
    t.addRow({"a", "1"});
    t.addRule();
    t.addRow({"long-name", "22"});
    std::string s = t.render();
    EXPECT_NE(s.find("Title"), std::string::npos);
    EXPECT_NE(s.find("| a "), std::string::npos);
    EXPECT_NE(s.find("long-name"), std::string::npos);
    // Every data line must have the same width.
    size_t first = s.find("\n+");
    ASSERT_NE(first, std::string::npos);
}

TEST(BarChart, ScalesAndLabels)
{
    std::string s = renderBarChart("chart", {"x", "yy"}, {1.0, 2.0},
                                   2.0, 10, "u");
    EXPECT_NE(s.find("chart"), std::string::npos);
    EXPECT_NE(s.find("##########"), std::string::npos); // full bar.
    EXPECT_NE(s.find("2.000u"), std::string::npos);
}

TEST(Logging, Csprintf)
{
    EXPECT_EQ(csprintf("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(csprintf("%05.1f", 2.25), "002.2");
}
