/**
 * @file
 * String helper tests.
 */

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace naspipe {
namespace {

TEST(FormatFixed, Digits)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(3.14159, 0), "3");
    EXPECT_EQ(formatFixed(-1.5, 1), "-1.5");
}

TEST(FormatPercent, Basic)
{
    EXPECT_EQ(formatPercent(0.943), "94.3%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

TEST(FormatBytes, Units)
{
    EXPECT_EQ(formatBytes(512), "512B");
    EXPECT_EQ(formatBytes(1024), "1K");
    EXPECT_EQ(formatBytes(1536), "1.5K");
    EXPECT_EQ(formatBytes(474ULL << 20), "474M");
    EXPECT_EQ(formatBytes((57ULL << 30) + (820ULL << 20)), "57.8G");
}

TEST(FormatFactor, Basic)
{
    EXPECT_EQ(formatFactor(7.81), "7.8x");
    EXPECT_EQ(formatFactor(0.87, 2), "0.87x");
}

TEST(SplitString, Basics)
{
    auto parts = splitString("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(SplitString, NoSeparator)
{
    auto parts = splitString("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(TrimString, Whitespace)
{
    EXPECT_EQ(trimString("  x y  "), "x y");
    EXPECT_EQ(trimString("\t\n z"), "z");
    EXPECT_EQ(trimString("   "), "");
    EXPECT_EQ(trimString(""), "");
}

TEST(Padding, LeftAndRight)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("abcd", 2), "abcd");
    EXPECT_EQ(padRight("abcd", 2), "abcd");
}

TEST(StartsWith, Basic)
{
    EXPECT_TRUE(startsWith("NLP.c1", "NLP"));
    EXPECT_FALSE(startsWith("CV.c1", "NLP"));
    EXPECT_TRUE(startsWith("x", ""));
    EXPECT_FALSE(startsWith("", "x"));
}

TEST(JoinStrings, Basic)
{
    EXPECT_EQ(joinStrings({"a", "b", "c"}, "-"), "a-b-c");
    EXPECT_EQ(joinStrings({}, "-"), "");
    EXPECT_EQ(joinStrings({"solo"}, ", "), "solo");
}

TEST(ParseWholeNumber, AcceptsWholeNumbers)
{
    int i = 0;
    EXPECT_TRUE(parseWholeNumber("32", i));
    EXPECT_EQ(i, 32);
    EXPECT_TRUE(parseWholeNumber("-7", i));
    EXPECT_EQ(i, -7);
    EXPECT_TRUE(parseWholeNumber("2147483647", i));
    EXPECT_EQ(i, 2147483647);
    std::uint64_t u = 0;
    EXPECT_TRUE(parseWholeNumber("18446744073709551615", u));
    EXPECT_EQ(u, 18446744073709551615ULL);
    EXPECT_TRUE(parseWholeNumber("0", u));
    EXPECT_EQ(u, 0u);
}

TEST(ParseWholeNumber, RejectsMalformedInput)
{
    int i = 99;
    EXPECT_FALSE(parseWholeNumber("", i));
    EXPECT_FALSE(parseWholeNumber("32x", i));
    EXPECT_FALSE(parseWholeNumber("2.5", i));
    EXPECT_FALSE(parseWholeNumber("0x10", i));
    EXPECT_FALSE(parseWholeNumber(" 4", i));
    EXPECT_FALSE(parseWholeNumber("4 ", i));
    EXPECT_FALSE(parseWholeNumber("+4", i));
    EXPECT_FALSE(parseWholeNumber("-", i));
    // Beyond the target type: 2^32 + 1 must not wrap to 1.
    EXPECT_FALSE(parseWholeNumber("4294967297", i));
    EXPECT_FALSE(parseWholeNumber("2147483648", i));
    EXPECT_FALSE(parseWholeNumber("-2147483649", i));
    EXPECT_FALSE(parseWholeNumber("99999999999999999999", i));
    EXPECT_EQ(i, 99);  // untouched on failure

    std::uint64_t u = 99;
    EXPECT_FALSE(parseWholeNumber("-1", u));
    EXPECT_FALSE(parseWholeNumber("+1", u));
    EXPECT_FALSE(parseWholeNumber("18446744073709551616", u));
    EXPECT_FALSE(parseWholeNumber("7 ", u));
    EXPECT_EQ(u, 99u);
}

} // namespace
} // namespace naspipe
