// Property / differential fuzz coverage for the ingest fast path
// (ISSUE satellite): random whitespace runs and field shapes through
// every SIMD tier vs the scalar reference, and whole traces pushed
// through tiny-block sources so lines straddle chunk boundaries.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "trace/reader.hpp"
#include "trace/source.hpp"
#include "util/rng.hpp"
#include "util/simd_scan.hpp"
#include "util/string_util.hpp"

namespace tdt {
namespace {

constexpr char kWs[] = {' ', '\t', '\r', '\n', '\x0b', '\x0c'};
constexpr char kField[] = "abcXYZ019_.[]";

std::string random_line(Xoshiro256& rng) {
  std::string line;
  const std::size_t fields = rng.next_below(10);  // 0..9
  if (rng.next_below(2) != 0) {  // optional leading whitespace run
    for (std::size_t k = rng.next_below(4) + 1; k > 0; --k)
      line += kWs[rng.next_below(sizeof kWs)];
  }
  for (std::size_t f = 0; f < fields; ++f) {
    for (std::size_t k = rng.next_below(12) + 1; k > 0; --k)
      line += kField[rng.next_below(sizeof kField - 1)];
    if (f + 1 < fields || rng.next_below(2) != 0) {
      for (std::size_t k = rng.next_below(4) + 1; k > 0; --k)
        line += kWs[rng.next_below(sizeof kWs)];
    }
  }
  // Occasionally pad to land a field edge on the 64-byte word boundary.
  if (rng.next_below(8) == 0 && line.size() < 70) {
    line.insert(0, 64 - (line.size() % 64), 'p');
  }
  return line;
}

/// Reference tokenizer (independent scalar walk over is_ascii_space).
int reference_tokenize(std::string_view line, simd::FieldSpan* out,
                       std::size_t max_fields) {
  std::size_t count = 0;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_ascii_space(line[i])) ++i;
    if (i >= line.size()) break;
    const std::size_t begin = i;
    while (i < line.size() && !is_ascii_space(line[i])) ++i;
    if (count == max_fields) return -1;
    out[count++] = {static_cast<std::uint32_t>(begin),
                    static_cast<std::uint32_t>(i)};
  }
  return static_cast<int>(count);
}

class TokenizerFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = simd::active_tier(); }
  void TearDown() override { simd::set_active_tier(saved_); }

 private:
  simd::Tier saved_ = simd::Tier::Scalar;
};

TEST_F(TokenizerFuzzTest, RandomLinesMatchScalarReferenceOnEveryTier) {
  std::vector<simd::Tier> tiers = {simd::Tier::Scalar};
  if (simd::best_supported_tier() >= simd::Tier::Sse2)
    tiers.push_back(simd::Tier::Sse2);
  if (simd::best_supported_tier() >= simd::Tier::Avx2)
    tiers.push_back(simd::Tier::Avx2);

  Xoshiro256 rng(0x7d7);
  for (int iter = 0; iter < 40000; ++iter) {
    std::string line = random_line(rng);
    // Newlines inside a line never reach the tokenizer in production,
    // but the contract treats them as plain whitespace; keep them.
    constexpr std::size_t kMax = 9;
    simd::FieldSpan want[kMax] = {};
    const int rc_want = reference_tokenize(line, want, kMax);
    for (const simd::Tier t : tiers) {
      ASSERT_EQ(simd::set_active_tier(t), t);
      simd::FieldSpan got[kMax] = {};
      const int rc_got = simd::tokenize_fields(line, got, kMax);
      ASSERT_EQ(rc_got, rc_want)
          << simd::tier_name(t) << " iter " << iter << " [" << line << "]";
      const std::size_t n =
          rc_want < 0 ? kMax : static_cast<std::size_t>(rc_want);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(got[k].begin, want[k].begin)
            << simd::tier_name(t) << " iter " << iter;
        ASSERT_EQ(got[k].end, want[k].end)
            << simd::tier_name(t) << " iter " << iter;
      }
    }
  }
}

std::string random_trace(Xoshiro256& rng, std::size_t lines) {
  std::string text = "START PID 7\n";
  for (std::size_t i = 0; i < lines; ++i) {
    switch (rng.next_below(4)) {
      case 0:
        text += "L 7feff3ffc 4 main LV 0 1 lI\n";
        break;
      case 1:
        text += "M 7feff3ffc 4 main LV 0 1 lI\n";
        break;
      case 2:
        text += "S " + std::to_string(0x7feff4000 + rng.next_below(1 << 20)) +
                " 4 main LS 0 1 lSoA.mX[" + std::to_string(i) + "]\n";
        break;
      default:
        text += "S 000601040 4 fn" + std::to_string(rng.next_below(5)) +
                " GV glScalar\n";
        break;
    }
  }
  text += "END PID 7\n";
  return text;
}

TEST_F(TokenizerFuzzTest, TinyBlocksStraddlingLinesParseIdentically) {
  Xoshiro256 rng(2026);
  for (int round = 0; round < 30; ++round) {
    const std::string text = random_trace(rng, 200 + rng.next_below(200));

    trace::TraceContext ref_ctx;
    const auto ref = trace::read_trace_string(ref_ctx, text);

    // Block sizes chosen to split lines at every possible offset class,
    // including 1 (every byte its own chunk).
    for (const std::size_t block : {1u, 2u, 3u, 7u, 13u, 64u, 257u}) {
      std::istringstream in(text);
      trace::TraceContext ctx;
      trace::GleipnirReader reader(
          ctx, std::make_unique<trace::OverlappedSource>(in, block));
      std::vector<trace::TraceRecord> records;
      while (reader.next_batch(records, 128) != 0) {
      }
      ASSERT_EQ(records.size(), ref.size())
          << "round " << round << " block " << block;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ctx.format_record(records[i]),
                  ref_ctx.format_record(ref[i]))
            << "round " << round << " block " << block << " record " << i;
      }
      ASSERT_EQ(reader.counters().bytes, text.size());
    }
  }
}

TEST_F(TokenizerFuzzTest, ScalarAndSimdTiersProduceIdenticalRecords) {
  if (simd::best_supported_tier() == simd::Tier::Scalar) {
    GTEST_SKIP() << "no SIMD tier on this machine";
  }
  Xoshiro256 rng(99);
  const std::string text = random_trace(rng, 2000);

  ASSERT_EQ(simd::set_active_tier(simd::Tier::Scalar), simd::Tier::Scalar);
  trace::TraceContext scalar_ctx;
  const auto scalar = trace::read_trace_string(scalar_ctx, text);

  simd::set_active_tier(simd::best_supported_tier());
  trace::TraceContext simd_ctx;
  const auto vec = trace::read_trace_string(simd_ctx, text);

  ASSERT_EQ(scalar.size(), vec.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(scalar_ctx.format_record(scalar[i]),
              simd_ctx.format_record(vec[i]))
        << "record " << i;
  }
}

}  // namespace
}  // namespace tdt
