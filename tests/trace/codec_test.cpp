#include "trace/codec.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "util/error.hpp"

namespace tdt::trace {
namespace {

std::string sample_payload() {
  std::string s;
  for (int i = 0; i < 500; ++i) {
    s += "L 7ff0001b0 8 main LV 0 1 lcl_" + std::to_string(i % 7) + "\n";
  }
  return s;
}

TEST(Codec, NamesRoundTrip) {
  EXPECT_EQ(codec_name(Codec::None), "none");
  EXPECT_EQ(codec_name(Codec::Zstd), "zstd");
  EXPECT_EQ(codec_name(Codec::Lz4), "lz4");
  for (const Codec c : {Codec::None, Codec::Zstd, Codec::Lz4}) {
    EXPECT_EQ(parse_codec(codec_name(c)), c);
  }
  EXPECT_FALSE(parse_codec("gzip").has_value());
  EXPECT_FALSE(parse_codec("").has_value());
}

TEST(Codec, IdsAreWireStable) {
  EXPECT_EQ(codec_from_id(0), Codec::None);
  EXPECT_EQ(codec_from_id(1), Codec::Zstd);
  EXPECT_EQ(codec_from_id(2), Codec::Lz4);
  EXPECT_FALSE(codec_from_id(3).has_value());
  EXPECT_FALSE(codec_from_id(255).has_value());
}

TEST(Codec, CompressSpecGrammar) {
  EXPECT_EQ(parse_compress_spec("none").codec, Codec::None);
  EXPECT_EQ(parse_compress_spec("zstd").level, 0);
  const CompressSpec z9 = parse_compress_spec("zstd:9");
  EXPECT_EQ(z9.codec, Codec::Zstd);
  EXPECT_EQ(z9.level, 9);
  EXPECT_EQ(parse_compress_spec("lz4:3").codec, Codec::Lz4);
  EXPECT_THROW((void)parse_compress_spec("brotli"), Error);
  EXPECT_THROW((void)parse_compress_spec("zstd:fast"), Error);
  EXPECT_THROW((void)parse_compress_spec("zstd:"), Error);
  EXPECT_THROW((void)parse_compress_spec("zstd:99"), Error);
}

TEST(Codec, NoneAlwaysRoundTrips) {
  ASSERT_TRUE(codec_available(Codec::None));
  const std::string src = sample_payload();
  std::string packed;
  ASSERT_TRUE(codec_compress(Codec::None, 0, src, packed));
  EXPECT_EQ(packed, src);  // stored verbatim
  std::string restored(src.size(), '\0');
  ASSERT_TRUE(codec_decompress(Codec::None, packed, restored));
  EXPECT_EQ(restored, src);
  // None is strict about the declared size.
  EXPECT_FALSE(codec_decompress(Codec::None, packed,
                                std::span(restored).first(src.size() - 1)));
}

TEST(Codec, OptionalCodecsRoundTripWhenAvailable) {
  const std::string src = sample_payload();
  for (const Codec c : {Codec::Zstd, Codec::Lz4}) {
    if (!codec_available(c)) {
      GTEST_LOG_(INFO) << codec_name(c) << " not available; skipping";
      continue;
    }
    std::string packed;
    ASSERT_TRUE(codec_compress(c, 0, src, packed)) << codec_name(c);
    EXPECT_LT(packed.size(), src.size()) << codec_name(c);
    std::string restored(src.size(), '\0');
    ASSERT_TRUE(codec_decompress(c, packed, restored)) << codec_name(c);
    EXPECT_EQ(restored, src) << codec_name(c);
    // Corrupt input must fail cleanly, not crash or return garbage.
    std::string garbled = packed;
    garbled[garbled.size() / 2] =
        static_cast<char>(garbled[garbled.size() / 2] ^ 0x5A);
    std::string out(src.size(), '\0');
    const bool ok = codec_decompress(c, garbled, out);
    if (ok) {
      EXPECT_NE(out, src) << codec_name(c);
    }
  }
}

TEST(Codec, CompressBoundCoversEmptyAndLarge) {
  for (const Codec c : {Codec::None, Codec::Zstd, Codec::Lz4}) {
    EXPECT_GE(codec_compress_bound(c, 0), 0u);
    EXPECT_GE(codec_compress_bound(c, 1 << 20), std::size_t{1} << 20);
  }
}

TEST(Codec, GzipRoundTripsWhenAvailable) {
  if (!gzip_available()) {
    GTEST_LOG_(INFO) << "zlib not built in; skipping";
    return;
  }
  const std::string src = sample_payload();
  std::string gz;
  ASSERT_TRUE(gzip_compress(src, gz));
  ASSERT_GE(gz.size(), 2u);
  EXPECT_TRUE(looks_gzip(gz));
  EXPECT_FALSE(looks_gzip(src));

  GzipInflater inflater;
  inflater.set_input(gz);
  std::string out;
  char buf[4096];
  for (;;) {
    std::size_t produced = 0;
    const GzipInflater::Status st =
        inflater.inflate_chunk(buf, sizeof buf, &produced);
    out.append(buf, produced);
    if (st == GzipInflater::Status::Done ||
        st == GzipInflater::Status::NeedInput) {
      break;
    }
    ASSERT_NE(st, GzipInflater::Status::Error);
  }
  EXPECT_EQ(out, src);
}

TEST(Codec, GzipInflaterHandlesConcatenatedMembers) {
  if (!gzip_available()) {
    GTEST_LOG_(INFO) << "zlib not built in; skipping";
    return;
  }
  std::string a;
  std::string b;
  ASSERT_TRUE(gzip_compress("hello ", a));
  ASSERT_TRUE(gzip_compress("world\n", b));
  const std::string cat = a + b;  // what `cat a.gz b.gz` produces

  GzipInflater inflater;
  inflater.set_input(cat);
  std::string out;
  char buf[64];
  for (;;) {
    std::size_t produced = 0;
    const GzipInflater::Status st =
        inflater.inflate_chunk(buf, sizeof buf, &produced);
    out.append(buf, produced);
    if (st == GzipInflater::Status::Done ||
        st == GzipInflater::Status::NeedInput) {
      break;
    }
    ASSERT_NE(st, GzipInflater::Status::Error);
  }
  EXPECT_EQ(out, "hello world\n");
}

}  // namespace
}  // namespace tdt::trace
