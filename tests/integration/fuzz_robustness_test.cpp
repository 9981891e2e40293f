// Robustness sweep: every parser must either succeed or throw tdt::Error
// on arbitrary input — never crash, hang, or throw anything else. The
// inputs are deterministic pseudo-random mutations of valid documents
// (truncations, byte flips, random garbage).
#include <gtest/gtest.h>

#include <iterator>

#include "core/rule_parser.hpp"
#include "layout/decl_parser.hpp"
#include "trace/binary.hpp"
#include "trace/din.hpp"
#include "trace/reader.hpp"
#include "tracer/parser.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tdt {
namespace {

constexpr const char* kValidTrace = R"(START PID 1
S 7ff0001b0 8 main LV 0 1 _zzq_result
L 000601040 4 main GV glScalar
S 0006010e0 8 foo GS glStructArray[0].dl
END PID 1
)";

constexpr const char* kValidRules = R"(
in:
struct lSoA { int mX[16]; double mY[16]; };
out:
struct lAoS { int mX; double mY; }[16];
)";

constexpr const char* kValidKernel = R"(
#define LEN 8
int main(void) {
  int arr[LEN];
  GLEIPNIR_START_INSTRUMENTATION;
  for (int i = 0; i < LEN; i++) {
    arr[i] = i;
  }
  GLEIPNIR_STOP_INSTRUMENTATION;
  return 0;
}
)";

/// Applies a deterministic mutation to `base`.
std::string mutate(std::string base, Xoshiro256& rng) {
  if (base.empty()) return base;
  switch (rng.next_below(4)) {
    case 0:  // truncate
      base.resize(rng.next_below(base.size()));
      break;
    case 1: {  // flip a byte to printable garbage
      const std::size_t at = rng.next_below(base.size());
      base[at] = static_cast<char>(' ' + rng.next_below(95));
      break;
    }
    case 2: {  // duplicate a slice
      const std::size_t at = rng.next_below(base.size());
      base.insert(at, base.substr(at / 2, rng.next_below(16) + 1));
      break;
    }
    default: {  // pure noise
      std::string noise;
      for (int i = 0; i < 64; ++i) {
        noise += static_cast<char>(' ' + rng.next_below(95));
      }
      base = noise;
      break;
    }
  }
  return base;
}

template <typename Fn>
void expect_no_crash(const char* what, const std::string& input, Fn&& fn) {
  try {
    fn(input);
  } catch (const Error&) {
    // Expected failure mode: a classified tdt error.
  } catch (const std::exception& e) {
    FAIL() << what << " threw a non-tdt exception: " << e.what()
           << "\ninput: " << input.substr(0, 120);
  }
}

class FuzzRobustness : public ::testing::TestWithParam<int> {};

TEST_P(FuzzRobustness, TraceReaderNeverCrashes) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  std::string input = kValidTrace;
  for (int round = 0; round < 8; ++round) {
    input = mutate(std::move(input), rng);
    expect_no_crash("trace reader", input, [](const std::string& text) {
      trace::TraceContext ctx;
      (void)trace::read_trace_string(ctx, text);
    });
  }
}

TEST_P(FuzzRobustness, RuleParserNeverCrashes) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 733 + 3);
  std::string input = kValidRules;
  for (int round = 0; round < 8; ++round) {
    input = mutate(std::move(input), rng);
    expect_no_crash("rule parser", input, [](const std::string& text) {
      (void)core::parse_rules(text);
    });
  }
}

TEST_P(FuzzRobustness, KernelParserNeverCrashes) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 977 + 1);
  std::string input = kValidKernel;
  for (int round = 0; round < 8; ++round) {
    input = mutate(std::move(input), rng);
    expect_no_crash("kernel parser", input, [](const std::string& text) {
      layout::TypeTable types;
      (void)tracer::parse_kernel(text, types);
    });
  }
}

TEST_P(FuzzRobustness, DeclParserNeverCrashes) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 389 + 9);
  std::string input = "struct A { int a[4]; double b; }; struct A v[8];";
  for (int round = 0; round < 8; ++round) {
    input = mutate(std::move(input), rng);
    expect_no_crash("decl parser", input, [](const std::string& text) {
      layout::TypeTable types;
      (void)layout::parse_declarations(text, types);
    });
  }
}

TEST_P(FuzzRobustness, DinReaderNeverCrashes) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 557 + 5);
  std::string input = "0 7ff000100 4\n1 7ff000104 8\n2 400000\n";
  for (int round = 0; round < 8; ++round) {
    input = mutate(std::move(input), rng);
    expect_no_crash("din reader", input, [](const std::string& text) {
      trace::TraceContext ctx;
      (void)trace::read_din_string(ctx, text);
    });
  }
}

TEST_P(FuzzRobustness, BinaryReaderNeverCrashes) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 211 + 13);
  trace::TraceContext ctx;
  const auto records = trace::read_trace_string(ctx, kValidTrace);
  const auto blob = trace::write_binary_trace(ctx, records);
  std::string input(blob.begin(), blob.end());
  for (int round = 0; round < 8; ++round) {
    input = mutate(std::move(input), rng);
    expect_no_crash("binary reader", input, [](const std::string& text) {
      trace::TraceContext ctx2;
      const std::vector<char> bytes(text.begin(), text.end());
      (void)trace::read_binary_trace(ctx2, bytes);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRobustness, ::testing::Range(0, 12));

// Mutated inputs must also never crash when read under a recovering
// policy: the reader either completes (salvaging what it can) or throws a
// classified Error (bad magic / error cap), never anything else.
TEST_P(FuzzRobustness, RecoveringReadersNeverCrash) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 271 + 17);
  trace::TraceContext seed_ctx;
  const auto blob =
      trace::write_binary_trace(seed_ctx,
                                trace::read_trace_string(seed_ctx, kValidTrace));
  std::string text = kValidTrace;
  std::string binary(blob.begin(), blob.end());
  for (int round = 0; round < 8; ++round) {
    text = mutate(std::move(text), rng);
    binary = mutate(std::move(binary), rng);
    for (const ErrorPolicy policy : {ErrorPolicy::Skip, ErrorPolicy::Repair}) {
      expect_no_crash("recovering trace reader", text,
                      [policy](const std::string& input) {
                        trace::TraceContext ctx;
                        DiagEngine diags(policy);
                        (void)trace::read_trace_string(ctx, input, nullptr,
                                                       &diags);
                      });
      expect_no_crash("recovering din reader", text,
                      [policy](const std::string& input) {
                        trace::TraceContext ctx;
                        DiagEngine diags(policy);
                        (void)trace::read_din_string(ctx, input, 4, &diags);
                      });
      expect_no_crash("recovering binary reader", binary,
                      [policy](const std::string& input) {
                        trace::TraceContext ctx;
                        DiagEngine diags(policy);
                        const std::vector<char> bytes(input.begin(),
                                                      input.end());
                        (void)trace::read_binary_trace(ctx, bytes, nullptr,
                                                       &diags);
                      });
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic corpus: exact recovery counts per policy.

/// Malformed Gleipnir record lines. `salvageable` = the first four fields
/// (kind, address, size, function) parse, so Repair keeps the raw access.
struct BadLine {
  const char* text;
  bool salvageable;
};

constexpr BadLine kBadLines[] = {
    {"Z 7ff0001b0 8 main", false},                      // bad access kind
    {"S nothex 8 main", false},                         // bad address
    {"S 7ff0001b0 0 main", false},                      // zero size
    {"S 7ff0001b0 8", false},                           // too few fields
    {"S 7ff0001b0 8 main XX 0 1 v", true},              // bad scope
    {"S 7ff0001b0 8 main LV 0 1", true},                // missing variable
    {"S 7ff0001b0 8 main LV zero 1 v", true},           // bad frame
    {"S 7ff0001b0 8 main LV 0 1 v extra", true},        // trailing fields
    {"S 7ff0001b0 8 main GV glScalar[", true},          // unterminated index
    {"L 000601040 4 main GV 9bad", true},               // bad variable start
};

std::string trace_with_bad_lines() {
  std::string text = "START PID 1\n";
  for (const BadLine& bad : kBadLines) {
    text += "L 000601040 4 main GV glScalar\n";
    text += bad.text;
    text += '\n';
  }
  text += "END PID 1\n";
  return text;
}

TEST(RobustnessCorpus, StrictFailsFastOnFirstBadLine) {
  trace::TraceContext ctx;
  EXPECT_THROW((void)trace::read_trace_string(ctx, trace_with_bad_lines()),
               Error);
  DiagEngine diags(ErrorPolicy::Strict);
  EXPECT_THROW((void)trace::read_trace_string(ctx, trace_with_bad_lines(),
                                              nullptr, &diags),
               Error);
}

TEST(RobustnessCorpus, SkipDropsEveryBadLineAndCountsThem) {
  trace::TraceContext ctx;
  DiagEngine diags(ErrorPolicy::Skip);
  const auto records = trace::read_trace_string(ctx, trace_with_bad_lines(),
                                                nullptr, &diags);
  EXPECT_EQ(records.size(), std::size(kBadLines));  // only the good lines
  EXPECT_EQ(diags.errors(), std::size(kBadLines));
  EXPECT_EQ(diags.count(DiagCode::TraceBadLine), std::size(kBadLines));
  EXPECT_EQ(diags.count(DiagCode::TraceRepairedLine), 0u);
  EXPECT_EQ(diags.exit_code(), 1);
}

TEST(RobustnessCorpus, RepairSalvagesAddressSizeFunctionPrefix) {
  std::size_t salvageable = 0;
  for (const BadLine& bad : kBadLines) salvageable += bad.salvageable ? 1 : 0;

  trace::TraceContext ctx;
  DiagEngine diags(ErrorPolicy::Repair);
  const auto records = trace::read_trace_string(ctx, trace_with_bad_lines(),
                                                nullptr, &diags);
  EXPECT_EQ(records.size(), std::size(kBadLines) + salvageable);
  EXPECT_EQ(diags.count(DiagCode::TraceRepairedLine), salvageable);
  EXPECT_EQ(diags.count(DiagCode::TraceBadLine),
            std::size(kBadLines) - salvageable);
  EXPECT_EQ(diags.exit_code(), 1);
  // Every salvaged record lost its symbol annotation but kept the access.
  for (const trace::TraceRecord& rec : records) {
    if (rec.scope == trace::VarScope::Unknown) {
      EXPECT_NE(rec.address, 0u);
      EXPECT_NE(rec.size, 0u);
    }
  }
}

TEST(RobustnessCorpus, BadMarkersAreSkippedNotFatal) {
  const char* text =
      "START PID notanumber\n"
      "L 000601040 4 main GV glScalar\n"
      "END\n";
  trace::TraceContext ctx;
  EXPECT_THROW((void)trace::read_trace_string(ctx, text), Error);
  DiagEngine diags(ErrorPolicy::Skip);
  const auto records =
      trace::read_trace_string(ctx, text, nullptr, &diags);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(diags.count(DiagCode::TraceBadMarker), 2u);
}

TEST(RobustnessCorpus, DinPoliciesRecoverPerContract) {
  const char* text =
      "0 7ff000100 4\n"
      "9 7ff000104 8\n"       // bad label -> dropped under skip/repair
      "1 nothex 8\n"          // bad address -> dropped
      "1 7ff000108 zz\n"      // bad size -> repairable with default
      "0 7ff00010c 100000008\n"  // size above 32 bits -> same as a bad size
      "2 400000\n";
  trace::TraceContext ctx;
  EXPECT_THROW((void)trace::read_din_string(ctx, text), Error);
  // Strict refuses the wide size on its own, as the text reader does.
  EXPECT_THROW(
      (void)trace::read_din_string(ctx, "0 7ff00010c 100000008\n"), Error);

  DiagEngine skip(ErrorPolicy::Skip);
  EXPECT_EQ(trace::read_din_string(ctx, text, 4, &skip).size(), 2u);
  EXPECT_EQ(skip.count(DiagCode::DinBadLine), 4u);
  EXPECT_EQ(skip.exit_code(), 1);

  DiagEngine repair(ErrorPolicy::Repair);
  const auto records = trace::read_din_string(ctx, text, 4, &repair);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[1].size, 4u);  // default size substituted
  EXPECT_EQ(records[2].size, 4u);  // not the wrapped 8
  EXPECT_EQ(repair.count(DiagCode::DinRepairedLine), 2u);
  EXPECT_EQ(repair.count(DiagCode::DinBadLine), 2u);
  EXPECT_EQ(repair.exit_code(), 1);
}

TEST(RobustnessCorpus, TruncatedBinaryBlobSalvagesPrefixPerPolicy) {
  trace::TraceContext ctx;
  const auto records = trace::read_trace_string(ctx, kValidTrace);
  const auto blob = trace::write_binary_trace(ctx, records);
  // Chop at every byte boundary: strict always throws, skip/repair always
  // salvage a prefix and report the truncation.
  for (std::size_t cut = 6; cut + 1 < blob.size(); cut += 3) {
    std::vector<char> truncated(blob.begin(),
                                blob.begin() + static_cast<long>(cut));
    trace::TraceContext strict_ctx;
    EXPECT_THROW((void)trace::read_binary_trace(strict_ctx, truncated), Error);

    for (const ErrorPolicy policy : {ErrorPolicy::Skip, ErrorPolicy::Repair}) {
      trace::TraceContext ctx2;
      DiagEngine diags(policy);
      const auto salvaged =
          trace::read_binary_trace(ctx2, truncated, nullptr, &diags);
      EXPECT_LE(salvaged.size(), records.size()) << "cut at " << cut;
      EXPECT_FALSE(diags.clean()) << "cut at " << cut;
      EXPECT_EQ(diags.exit_code(), 1) << "cut at " << cut;
    }
  }
}

TEST(RobustnessCorpus, TruncatedFooterSalvagesAllRecordsPerPolicy) {
  trace::TraceContext ctx;
  const auto records = trace::read_trace_string(ctx, kValidTrace);
  const auto blob = trace::write_binary_trace(ctx, records);  // v2: footer
  // Chop 1..12 bytes off the end: the record stream and end marker stay
  // intact, only the 12-byte footer (u64 count + u32 crc) goes short.
  for (const std::size_t missing : {std::size_t{1}, std::size_t{6},
                                    std::size_t{12}}) {
    std::vector<char> truncated(blob.begin(), blob.end() - missing);
    trace::TraceContext strict_ctx;
    EXPECT_THROW((void)trace::read_binary_trace(strict_ctx, truncated), Error)
        << missing << " footer bytes missing";

    for (const ErrorPolicy policy : {ErrorPolicy::Skip, ErrorPolicy::Repair}) {
      trace::TraceContext ctx2;
      DiagEngine diags(policy);
      const auto salvaged =
          trace::read_binary_trace(ctx2, truncated, nullptr, &diags);
      // Every record precedes the footer: recovery keeps them all and
      // reports exactly one stable B008 footer diagnostic.
      EXPECT_EQ(salvaged.size(), records.size())
          << missing << " footer bytes missing";
      EXPECT_EQ(diags.count(DiagCode::BinBadFooter), 1u);
      EXPECT_EQ(diags.exit_code(), 1);
    }
  }
}

TEST(RobustnessCorpus, MidVarintTruncationSalvagesPrefix) {
  // An all-ones address encodes as the maximal 10-byte varint
  // (0xFF x 9 then 0x01): the one byte pattern we can locate in the blob
  // to place a cut deterministically *inside* a varint.
  const char* text =
      "START PID 1\n"
      "L 000601040 4 main GV glScalar\n"
      "S ffffffffffffffff 8 main GV glScalar\n"
      "END PID 1\n";
  trace::TraceContext ctx;
  const auto records = trace::read_trace_string(ctx, text);
  ASSERT_EQ(records.size(), 2u);
  const auto blob = trace::write_binary_trace(ctx, records);

  std::size_t run = 0;
  std::size_t varint_at = blob.size();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    run = blob[i] == '\xFF' ? run + 1 : 0;
    if (run == 9) {
      varint_at = i - 8;
      break;
    }
  }
  ASSERT_NE(varint_at, blob.size()) << "maximal varint not found in blob";

  // Cut four bytes into the ten-byte varint.
  std::vector<char> truncated(blob.begin(),
                              blob.begin() + static_cast<long>(varint_at + 4));
  trace::TraceContext strict_ctx;
  EXPECT_THROW((void)trace::read_binary_trace(strict_ctx, truncated), Error);

  for (const ErrorPolicy policy : {ErrorPolicy::Skip, ErrorPolicy::Repair}) {
    trace::TraceContext ctx2;
    DiagEngine diags(policy);
    const auto salvaged =
        trace::read_binary_trace(ctx2, truncated, nullptr, &diags);
    // The record before the mangled one survives; the cut one does not.
    EXPECT_EQ(salvaged.size(), 1u);
    EXPECT_EQ(salvaged[0].address, 0x000601040u);
    EXPECT_EQ(diags.count(DiagCode::BinTruncated), 1u);  // stable B003
    EXPECT_EQ(diags.exit_code(), 1);
  }
}

TEST(RobustnessCorpus, BadRuleFilesAlwaysThrowClassifiedErrors) {
  const char* corpus[] = {
      "in:\nstruct lSoA { int mX[16]; };\n",       // missing out section
      "out:\nstruct lAoS { int mX; }[16];\n",      // missing in section
      "in:\nstruct A { int x; };\nout:\nstruct\n", // truncated out decl
      "in:\nnot a struct at all\nout:\nnope\n",
      "in:\nstruct A { int x[4]; };\nout:\nstruct B { double y; }[4];[\n",
      "map: a -> b\n",
  };
  for (const char* text : corpus) {
    try {
      const core::RuleSet rules = core::parse_rules(text);
      // If an entry happens to parse, it must not yield a silently usable
      // rule set: either no rules at all or validation flags it.
      EXPECT_TRUE(rules.rules().empty() || !rules.validate().empty())
          << "accepted: " << text;
    } catch (const Error&) {
      // Expected: classified parse error.
    } catch (const std::exception& e) {
      FAIL() << "rule parser threw a non-tdt exception: " << e.what();
    }
  }
}

}  // namespace
}  // namespace tdt
