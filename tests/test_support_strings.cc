// Unit tests for support/strings: splitting, trimming, and the §IV-C LCS
// similarity that drives format-piece clustering.
#include "support/strings.h"

#include <gtest/gtest.h>

namespace firmres::support {
namespace {

TEST(Split, KeepsEmptyPieces) {
  const auto pieces = split("a,,b", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
}

TEST(Split, SinglePieceWhenNoSeparator) {
  const auto pieces = split("hello", ',');
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "hello");
}

TEST(Split, EmptyInputYieldsOneEmptyPiece) {
  const auto pieces = split("", ',');
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "");
}

TEST(SplitAny, DropsEmptyPieces) {
  const auto pieces = split_any("a, b;;c", ",; ");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(Join, RoundTripsWithSplit) {
  const std::vector<std::string> pieces = {"mac", "sn", "uid"};
  EXPECT_EQ(join(pieces, "&"), "mac&sn&uid");
  EXPECT_EQ(split("mac&sn&uid", '&'), pieces);
}

TEST(Join, EmptyVector) { EXPECT_EQ(join({}, ","), ""); }

TEST(Trim, RemovesAsciiWhitespace) {
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(ToLower, Basic) {
  EXPECT_EQ(to_lower("MacAddress"), "macaddress");
  EXPECT_EQ(to_lower("already"), "already");
}

TEST(IContains, CaseInsensitive) {
  EXPECT_TRUE(icontains("deviceId=1234", "DEVICEID"));
  EXPECT_TRUE(icontains("x", ""));
  EXPECT_FALSE(icontains("", "x"));
  EXPECT_FALSE(icontains("serial", "mac"));
}

TEST(ReplaceAll, Basic) {
  EXPECT_EQ(replace_all("a%sb%s", "%s", "X"), "aXbX");
  EXPECT_EQ(replace_all("abc", "", "X"), "abc");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
}

TEST(LcsLength, KnownValues) {
  EXPECT_EQ(lcs_length("", ""), 0u);
  EXPECT_EQ(lcs_length("abc", ""), 0u);
  EXPECT_EQ(lcs_length("abc", "abc"), 3u);
  EXPECT_EQ(lcs_length("abcde", "ace"), 3u);
  EXPECT_EQ(lcs_length("uid=%s", "sn=%s"), 3u);  // "=%s"
}

TEST(LcsSimilarity, PaperFormula) {
  // Similarity(a,b) = 2·L_common / (L_a + L_b)
  EXPECT_DOUBLE_EQ(lcs_similarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(lcs_similarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(lcs_similarity("ab", "cd"), 0.0);
  EXPECT_DOUBLE_EQ(lcs_similarity("abcd", "ab"), 2.0 * 2 / 6);
}

// Property sweep: similarity is symmetric, bounded, and 1.0 on identity.
// std::string, not const char*: gtest prints a char pointer inside a tuple
// with its address, which would make the test names differ per process.
using LcsPair = std::tuple<std::string, std::string>;
class LcsProperty : public ::testing::TestWithParam<LcsPair> {};

TEST_P(LcsProperty, SymmetricAndBounded) {
  const auto [a, b] = GetParam();
  const double s_ab = lcs_similarity(a, b);
  const double s_ba = lcs_similarity(b, a);
  EXPECT_DOUBLE_EQ(s_ab, s_ba);
  EXPECT_GE(s_ab, 0.0);
  EXPECT_LE(s_ab, 1.0);
  EXPECT_DOUBLE_EQ(lcs_similarity(a, a), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, LcsProperty,
    ::testing::Values(
        LcsPair{"uid=%s", "alarm_time=%s"},
        LcsPair{"\"mac\":\"%s\"", "\"sn\":\"%s\""},
        LcsPair{"", "nonempty"},
        LcsPair{"?m=cloud&a=q", "?m=camera&a=r"},
        LcsPair{"xyz", "zyx"},
        LcsPair{"longer-string-here", "short"}));

TEST(ToHex, Basic) {
  EXPECT_EQ(to_hex(std::string("\x00\xff\x10", 3)), "00ff10");
  EXPECT_EQ(to_hex(""), "");
}

TEST(ZeroPad, Basic) {
  EXPECT_EQ(zero_pad(7, 4), "0007");
  EXPECT_EQ(zero_pad(12345, 4), "12345");
  EXPECT_EQ(zero_pad(0, 1), "0");
}

TEST(Format, PrintfSemantics) {
  EXPECT_EQ(format("%s=%d", "x", 42), "x=42");
  EXPECT_EQ(format("no args"), "no args");
  EXPECT_EQ(format("%05d", 42), "00042");
}

}  // namespace
}  // namespace firmres::support
