#include "util/string_util.hpp"

#include <gtest/gtest.h>

namespace tdt {
namespace {

TEST(Trim, RemovesBothSides) {
  EXPECT_EQ(trim("  abc \t"), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\r\n "), "");
}

TEST(Trim, LeftAndRightIndependent) {
  EXPECT_EQ(trim_left("  x "), "x ");
  EXPECT_EQ(trim_right("  x "), "  x");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, SingleFieldWhenNoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Split, TrailingSeparatorYieldsEmptyTail) {
  const auto parts = split("a,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(SplitWs, DropsRuns) {
  const auto parts = split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitWs, EmptyInput) {
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(StartsEndsWith, Basic) {
  EXPECT_TRUE(starts_with("START PID", "START"));
  EXPECT_FALSE(starts_with("ST", "START"));
  EXPECT_TRUE(ends_with("trace.tdtb", ".tdtb"));
  EXPECT_FALSE(ends_with("tdtb", ".tdtb2"));
}

TEST(ParseInt, AcceptsSignedDecimal) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("0"), 0);
}

TEST(ParseInt, RejectsJunk) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4x").has_value());
  EXPECT_FALSE(parse_int("  4").has_value());
  EXPECT_FALSE(parse_int("99999999999999999999999").has_value());
}

TEST(ParseUint, DecimalAndHex) {
  EXPECT_EQ(parse_uint("123"), 123u);
  EXPECT_EQ(parse_uint("0x10"), 16u);
  EXPECT_EQ(parse_uint("0XfF"), 255u);
  EXPECT_FALSE(parse_uint("-1").has_value());
  EXPECT_FALSE(parse_uint("0x").has_value());
}

TEST(ParseHex, BareDigits) {
  EXPECT_EQ(parse_hex("7ff000108"), 0x7ff000108ull);
  EXPECT_EQ(parse_hex("0"), 0u);
  EXPECT_FALSE(parse_hex("xyz").has_value());
  EXPECT_FALSE(parse_hex("").has_value());
}

TEST(ParseHex, FastTwinAcceptsExactlyWhatParseHexAccepts) {
  for (const char* s :
       {"", "0", "7ff000108", "FfFf", "ffffffffffffffff", "10000000000000000",
        "00000000000000000001", "xyz", "12g", "-1", "+1", "0x10", " 1",
        "1 ", "100000004"}) {
    std::uint64_t fast = 0;
    const bool ok = parse_hex_fast(s, fast);
    const auto ref = parse_hex(s);
    ASSERT_EQ(ok, ref.has_value()) << '"' << s << '"';
    if (ok) {
      EXPECT_EQ(fast, *ref) << '"' << s << '"';
    }
  }
}

TEST(ToHex, PadsToWidth) {
  EXPECT_EQ(to_hex(0x7ff000108, 9), "7ff000108");
  EXPECT_EQ(to_hex(0x601040, 9), "000601040");
  EXPECT_EQ(to_hex(0, 0), "0");
  EXPECT_EQ(to_hex(15, 4), "000f");
}

TEST(ToHex, RoundTripsThroughParseHex) {
  for (std::uint64_t v : {0ull, 1ull, 0x7ff000108ull, ~0ull}) {
    EXPECT_EQ(parse_hex(to_hex(v, 9)), v);
  }
}

TEST(Identifiers, Classification) {
  EXPECT_TRUE(is_identifier("_zzq_result"));
  EXPECT_TRUE(is_identifier("lSoA"));
  EXPECT_FALSE(is_identifier("1I"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a.b"));
}

TEST(Join, WithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(join({}, "."), "");
  EXPECT_EQ(join({"solo"}, "."), "solo");
}

TEST(FormatBytes, PicksLargestExactUnit) {
  EXPECT_EQ(format_bytes(32), "32 B");
  EXPECT_EQ(format_bytes(32 * 1024), "32 KiB");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3 MiB");
  EXPECT_EQ(format_bytes(1536), "1536 B");  // not an exact KiB multiple
}

}  // namespace
}  // namespace tdt
