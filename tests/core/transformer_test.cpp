#include "core/transformer.hpp"

#include <gtest/gtest.h>

#include "core/rule_parser.hpp"
#include "trace/reader.hpp"
#include "util/string_util.hpp"

namespace tdt::core {
namespace {

using trace::AccessKind;
using trace::TraceContext;
using trace::TraceRecord;

constexpr const char* kT1Rules = R"(
in:
struct lSoA {
  int mX[16];
  double mY[16];
};
out:
struct lAoS {
  int mX;
  double mY;
}[16];
)";

constexpr const char* kT2Rules = R"(
in:
struct mRarelyUsed {
  double mY;
  int mZ;
};
struct lS1 {
  int mFrequentlyUsed;
  struct mRarelyUsed;
}[16];
out:
struct lStorageForRarelyUsed {
  double mY;
  int mZ;
}[16];
struct lS2 {
  int mFrequentlyUsed;
  + mRarelyUsed:lStorageForRarelyUsed;
}[16];
)";

constexpr const char* kT3Rules = R"(
in:
int lContiguousArray[64]:lSetHashingArray;
out:
int lSetHashingArray[1024((lI/8)*(16*8)+(lI%8))];
inject:
L lITEMSPERLINE 4;
)";

std::vector<TraceRecord> parse(TraceContext& ctx, const std::string& text) {
  return trace::read_trace_string(ctx, text);
}

TEST(Transformer, PassthroughWithoutMatchingRule) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT1Rules);
  const auto records = parse(ctx,
                             "L 7ff000100 4 main LV 0 1 other\n"
                             "S 7ff000104 4 main\n");
  TransformStats stats;
  const auto out = transform_trace(rules, ctx, records, {}, &stats);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], records[0]);
  EXPECT_EQ(out[1], records[1]);
  EXPECT_EQ(stats.passthrough, 2u);
  EXPECT_EQ(stats.rewritten, 0u);
}

TEST(Transformer, T1RemapsSoAToAoS) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT1Rules);
  // lSoA base 0x7ff000400: mX[3] at +12, mY[3] at +64+24.
  const auto records = parse(ctx,
                             "S 7ff00040c 4 main LS 0 1 lSoA.mX[3]\n"
                             "S 7ff000458 8 main LS 0 1 lSoA.mY[3]\n");
  TransformStats stats;
  const auto out = transform_trace(rules, ctx, records, {}, &stats);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(ctx.format_var(out[0].var), "lAoS[3].mX");
  EXPECT_EQ(ctx.format_var(out[1].var), "lAoS[3].mY");
  // AoS element 3 is at out_base + 48; mY 8 bytes after mX.
  EXPECT_EQ(out[1].address, out[0].address + 8);
  EXPECT_EQ(out[0].address % 16, 0u);  // element-aligned
  EXPECT_EQ(stats.rewritten, 2u);
  EXPECT_EQ(stats.inserted, 0u);
  // Scope/kind/function preserved.
  EXPECT_EQ(out[0].kind, AccessKind::Store);
  EXPECT_EQ(out[0].scope, trace::VarScope::LocalStructure);
  EXPECT_EQ(ctx.name(out[0].function), "main");
}

TEST(Transformer, T1AddressArithmeticExact) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT1Rules);
  std::string text;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t mx_addr = 0x7ff000400 + 4 * static_cast<std::uint64_t>(i);
    text += "S " + tdt::to_hex(mx_addr, 9) + " 4 main LS 0 1 lSoA.mX[" +
            std::to_string(i) + "]\n";
  }
  const auto records = parse(ctx, text);
  const auto out = transform_trace(rules, ctx, records);
  ASSERT_EQ(out.size(), 16u);
  for (int i = 1; i < 16; ++i) {
    // Consecutive mX elements land 16 bytes apart (the AoS element size).
    EXPECT_EQ(out[static_cast<std::size_t>(i)].address,
              out[0].address + 16 * static_cast<std::uint64_t>(i));
  }
}

TEST(Transformer, T2InsertsPointerLoadBeforeColdAccess) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT2Rules);
  // lS1 element size 16 (int + pad + {double,int} -> actually 4+4pad+16=24).
  // Use metadata-only matching: offsets derived from the rule's own types.
  const auto records = parse(
      ctx,
      "S 7ff000400 4 main LS 0 1 lS1[0].mFrequentlyUsed\n"
      "S 7ff000408 8 main LS 0 1 lS1[0].mRarelyUsed.mY\n"
      "S 7ff000410 4 main LS 0 1 lS1[0].mRarelyUsed.mZ\n");
  TransformStats stats;
  const auto out = transform_trace(rules, ctx, records, {}, &stats);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(ctx.format_var(out[0].var), "lS2[0].mFrequentlyUsed");
  // Cold access preceded by a pointer load of lS2[0].mRarelyUsed.
  EXPECT_EQ(out[1].kind, AccessKind::Load);
  EXPECT_EQ(out[1].size, 8u);
  EXPECT_EQ(ctx.format_var(out[1].var), "lS2[0].mRarelyUsed");
  EXPECT_EQ(ctx.format_var(out[2].var), "lStorageForRarelyUsed[0].mY");
  EXPECT_EQ(out[3].kind, AccessKind::Load);
  EXPECT_EQ(ctx.format_var(out[4].var), "lStorageForRarelyUsed[0].mZ");
  EXPECT_EQ(stats.inserted, 2u);
  EXPECT_EQ(stats.rewritten, 3u);
  // The pointer sits 8 bytes into the 16-byte lS2 element.
  EXPECT_EQ(out[1].address, out[0].address + 8);
}

TEST(Transformer, T2PoolAndOwnerDoNotOverlap) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT2Rules);
  std::string text;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t base = 0x7ff000400 + 24 * static_cast<std::uint64_t>(i);
    text += "S " + tdt::to_hex(base, 9) + " 4 main LS 0 1 lS1[" +
            std::to_string(i) + "].mFrequentlyUsed\n";
    text += "S " + tdt::to_hex(base + 8, 9) + " 8 main LS 0 1 lS1[" +
            std::to_string(i) + "].mRarelyUsed.mY\n";
  }
  const auto out = transform_trace(rules, ctx, parse(ctx, text));
  std::uint64_t s2_min = ~0ull, s2_max = 0, pool_min = ~0ull, pool_max = 0;
  for (const TraceRecord& r : out) {
    const std::string name(ctx.name(r.var.base));
    if (name == "lS2") {
      s2_min = std::min(s2_min, r.address);
      s2_max = std::max(s2_max, r.address + r.size);
    } else if (name == "lStorageForRarelyUsed") {
      pool_min = std::min(pool_min, r.address);
      pool_max = std::max(pool_max, r.address + r.size);
    }
  }
  EXPECT_TRUE(s2_max <= pool_min || pool_max <= s2_min)
      << "lS2 [" << s2_min << "," << s2_max << ") overlaps pool ["
      << pool_min << "," << pool_max << ")";
}

TEST(Transformer, T3RemapsThroughFormulaAndInjects) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT3Rules);
  const auto records = parse(
      ctx,
      "S 7ff000400 4 main LS 0 1 lContiguousArray[0]\n"
      "S 7ff000420 4 main LS 0 1 lContiguousArray[8]\n");
  TransformStats stats;
  const auto out = transform_trace(rules, ctx, records, {}, &stats);
  // Each store preceded by one injected lITEMSPERLINE load.
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].kind, AccessKind::Load);
  EXPECT_EQ(ctx.format_var(out[0].var), "lITEMSPERLINE");
  EXPECT_EQ(out[0].scope, trace::VarScope::LocalVariable);
  EXPECT_EQ(ctx.format_var(out[1].var), "lSetHashingArray[0]");
  EXPECT_EQ(ctx.format_var(out[3].var), "lSetHashingArray[128]");
  // 128 elements * 4 bytes = 512 bytes apart.
  EXPECT_EQ(out[3].address, out[1].address + 512);
  EXPECT_EQ(stats.inserted, 2u);
  EXPECT_EQ(stats.rewritten, 2u);
  // Injected scalar address is stable across records.
  EXPECT_EQ(out[0].address, out[2].address);
}

TEST(Transformer, StrideNonFlatAccessSkipped) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT3Rules);
  const auto records =
      parse(ctx, "S 7ff000400 4 main LS 0 1 lContiguousArray.bad\n");
  TransformStats stats;
  const auto out = transform_trace(rules, ctx, records, {}, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], records[0]);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_FALSE(stats.diagnostics.empty());
}

TEST(Transformer, MismatchedShapeSkippedWithDiagnostic) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT1Rules);
  // lSoA.nothing[0] does not resolve inside the rule's in struct.
  const auto records =
      parse(ctx, "S 7ff000400 4 main LS 0 1 lSoA.nothing[0]\n");
  TransformStats stats;
  const auto out = transform_trace(rules, ctx, records, {}, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(stats.skipped, 1u);
  ASSERT_FALSE(stats.diagnostics.empty());
}

TEST(Transformer, RecordConservation) {
  // records_out == records_in + inserted, and rewritten+passthrough+
  // skipped == records_in.
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT2Rules);
  std::string text;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t base = 0x7ff000400 + 24 * static_cast<std::uint64_t>(i);
    text += "L 7ff0000f0 4 main LV 0 1 lI\n";
    text += "S " + tdt::to_hex(base + 8, 9) + " 8 main LS 0 1 lS1[" +
            std::to_string(i) + "].mRarelyUsed.mY\n";
  }
  TransformStats stats;
  const auto out = transform_trace(rules, ctx, parse(ctx, text), {}, &stats);
  EXPECT_EQ(stats.records_in, 32u);
  EXPECT_EQ(stats.records_out, out.size());
  EXPECT_EQ(stats.records_out, stats.records_in + stats.inserted);
  EXPECT_EQ(stats.rewritten + stats.passthrough + stats.skipped,
            stats.records_in);
}

TEST(Transformer, OutBaseQueryable) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT1Rules);
  trace::VectorSink sink;
  TraceTransformer transformer(rules, ctx, sink);
  EXPECT_FALSE(transformer.out_base("lSoA", "lAoS").has_value());
  const auto records =
      trace::read_trace_string(ctx, "S 7ff000400 4 main LS 0 1 lSoA.mX[0]");
  ASSERT_EQ(records.size(), 1u);
  transformer.on_record(records[0]);
  ASSERT_TRUE(transformer.out_base("lSoA", "lAoS").has_value());
  EXPECT_FALSE(transformer.out_base("lSoA", "nothing").has_value());
  EXPECT_FALSE(transformer.out_base("ghost", "lAoS").has_value());
}

TEST(Transformer, StackSideInAddressesStayStackSide) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT1Rules);
  const auto records =
      parse(ctx, "S 7ff000400 4 main LS 0 1 lSoA.mX[0]\n");
  TransformOptions opts;
  const auto out = transform_trace(rules, ctx, records, opts);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_GE(out[0].address, opts.stack_segment_min);
}

TEST(Transformer, GlobalSideInAddressesGoToGlobalArena) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT1Rules);
  const auto records =
      parse(ctx, "S 000601040 4 main GS glDummy.mX[0]\n");
  // Rename the rule target: use a trace whose variable base matches.
  const auto records2 =
      parse(ctx, "S 000601040 4 main GS lSoA.mX[0]\n");
  TransformOptions opts;
  const auto out = transform_trace(rules, ctx, records2, opts);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_LT(out[0].address, opts.stack_segment_min);
  (void)records;
}

TEST(Transformer, ReuseFootprintPlacesInsideWhenItFits) {
  // in: 2 doubles (16 B) -> out: 2 floats + pad? float[2] = 8 B fits.
  const char* rules_text = R"(
in:
struct big { double a; double b; };
out:
struct compact { float a; float b; };
)";
  TraceContext ctx;
  const RuleSet rules = parse_rules(rules_text);
  const auto records =
      parse(ctx, "S 7ff000400 8 main LS 0 1 big.a\n");
  TransformOptions opts;
  opts.reuse_in_footprint = true;
  const auto out = transform_trace(rules, ctx, records, opts);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].address, 0x7ff000400u);  // stays at in base
  EXPECT_EQ(out[0].size, 4u);               // narrowed to float

  opts.reuse_in_footprint = false;
  const auto moved = transform_trace(rules, ctx, records, opts);
  EXPECT_NE(moved[0].address, 0x7ff000400u);
}

TEST(Transformer, StreamingMatchesOneShot) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT2Rules);
  const auto records = parse(
      ctx,
      "S 7ff000400 4 main LS 0 1 lS1[0].mFrequentlyUsed\n"
      "S 7ff000408 8 main LS 0 1 lS1[0].mRarelyUsed.mY\n");
  trace::VectorSink sink;
  TraceTransformer transformer(rules, ctx, sink);
  for (const TraceRecord& r : records) transformer.on_record(r);
  transformer.on_end();
  const auto oneshot = transform_trace(rules, ctx, records);
  ASSERT_EQ(sink.records().size(), oneshot.size());
  for (std::size_t i = 0; i < oneshot.size(); ++i) {
    EXPECT_EQ(sink.records()[i], oneshot[i]);
  }
}

TEST(Transformer, UnannotatedRecordsUntouched) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT1Rules);
  const auto records = parse(ctx, "L 7ff000400 8 main\n");
  const auto out = transform_trace(rules, ctx, records);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], records[0]);
}

TEST(Transformer, DiagnosticsCapped) {
  TraceContext ctx;
  const RuleSet rules = parse_rules(kT1Rules);
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "S 7ff000400 4 main LS 0 1 lSoA.bogus\n";
  }
  TransformOptions opts;
  opts.max_diagnostics = 8;
  TransformStats stats;
  (void)transform_trace(rules, ctx, parse(ctx, text), opts, &stats);
  EXPECT_EQ(stats.diagnostics.size(), 8u);
  EXPECT_EQ(stats.skipped, 200u);
}

}  // namespace
}  // namespace tdt::core
