/** @file Tests for strict integer parsing (common/parse.hh). */

#include <gtest/gtest.h>

#include <climits>

#include "common/parse.hh"

using namespace gals;

TEST(ParseInteger, AcceptsWholeStringDecimalsInRange)
{
    EXPECT_EQ(parseInteger("7", 1, 16), 7);
    EXPECT_EQ(parseInteger("1", 1, 16), 1);   // lower bound inclusive.
    EXPECT_EQ(parseInteger("16", 1, 16), 16); // upper bound inclusive.
    EXPECT_EQ(parseInteger("-3", -5, 5), -3);
    EXPECT_EQ(parseInteger("+4", 0, 5), 4);
    EXPECT_EQ(parseInteger("007", 0, 10), 7); // decimal, not octal.
    EXPECT_EQ(parseInteger("9223372036854775807", 0, LLONG_MAX),
              LLONG_MAX);
}

TEST(ParseInteger, RejectsGarbage)
{
    EXPECT_FALSE(parseInteger("abc", 0, 100));
    EXPECT_FALSE(parseInteger("-", 0, 100));
    EXPECT_FALSE(parseInteger("0x10", 0, 100));
    EXPECT_FALSE(parseInteger("1.5", 0, 100));
}

TEST(ParseInteger, RejectsTrailingAndLeadingCharacters)
{
    // atoi would read these as 2 / 8 / 3: the whole string must parse.
    EXPECT_FALSE(parseInteger("2x", 0, 100));
    EXPECT_FALSE(parseInteger("8 ", 0, 100));
    EXPECT_FALSE(parseInteger("1,2", 0, 100));
    EXPECT_FALSE(parseInteger(" 3", 0, 100));
}

TEST(ParseInteger, RejectsEmptyInput)
{
    EXPECT_FALSE(parseInteger("", 0, 100));
    EXPECT_FALSE(parseInteger(nullptr, 0, 100));
}

TEST(ParseInteger, RejectsOverflow)
{
    EXPECT_FALSE(parseInteger("9223372036854775808", 0, LLONG_MAX));
    EXPECT_FALSE(parseInteger("99999999999999999999", 0, LLONG_MAX));
    EXPECT_FALSE(
        parseInteger("-99999999999999999999", LLONG_MIN, LLONG_MAX));
}

TEST(ParseInteger, RejectsOutOfRangeOnBothSides)
{
    EXPECT_FALSE(parseInteger("0", 1, 16));
    EXPECT_FALSE(parseInteger("-1", 1, 16));
    EXPECT_FALSE(parseInteger("17", 1, 16));
    EXPECT_FALSE(parseInteger("1000", 1, 16));
}

TEST(ParseIntegerDeathTest, BadCommandLineValueExitsWithUsageStatus)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EQ(parseIntegerArg("--cores", "4", 1, 16), 4);
    EXPECT_EXIT(parseIntegerArg("--cores", "2x", 1, 16),
                testing::ExitedWithCode(2),
                "--cores: '2x' is not an integer in \\[1, 16\\]");
    EXPECT_EXIT(parseIntegerArg("cores", "0", 1, 16),
                testing::ExitedWithCode(2), "not an integer");
}
