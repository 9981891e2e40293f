#include "trace/record.hpp"

#include <gtest/gtest.h>

#include "var_ref.hpp"

namespace tdt::trace {
namespace {

TEST(AccessKind, CodesRoundTrip) {
  for (AccessKind k : {AccessKind::Load, AccessKind::Store, AccessKind::Modify,
                       AccessKind::Instr, AccessKind::Misc}) {
    AccessKind parsed;
    ASSERT_TRUE(parse_access_kind(access_kind_code(k), parsed));
    EXPECT_EQ(parsed, k);
  }
  AccessKind dummy;
  EXPECT_FALSE(parse_access_kind('Q', dummy));
}

TEST(VarScope, CodesRoundTrip) {
  for (VarScope s : {VarScope::LocalVariable, VarScope::LocalStructure,
                     VarScope::GlobalVariable, VarScope::GlobalStructure}) {
    VarScope parsed;
    ASSERT_TRUE(parse_var_scope(var_scope_code(s), parsed));
    EXPECT_EQ(parsed, s);
  }
  VarScope dummy;
  EXPECT_FALSE(parse_var_scope("XX", dummy));
  EXPECT_FALSE(parse_var_scope("", dummy));
}

TEST(VarScope, Predicates) {
  EXPECT_TRUE(is_structure_scope(VarScope::LocalStructure));
  EXPECT_TRUE(is_structure_scope(VarScope::GlobalStructure));
  EXPECT_FALSE(is_structure_scope(VarScope::LocalVariable));
  EXPECT_TRUE(is_global_scope(VarScope::GlobalVariable));
  EXPECT_TRUE(is_global_scope(VarScope::GlobalStructure));
  EXPECT_FALSE(is_global_scope(VarScope::LocalStructure));
}

TEST(VarRef, ParseAndFormatSimple) {
  TraceContext ctx;
  const VarRef v = var_ref(ctx, "glScalar");
  EXPECT_EQ(ctx.name(v.base), "glScalar");
  EXPECT_TRUE(v.steps.empty());
  EXPECT_EQ(ctx.format_var(v), "glScalar");
}

TEST(VarRef, ParseNestedStructureAccess) {
  TraceContext ctx;
  const VarRef v = var_ref(ctx, "glStructArray[0].myArray[1]");
  EXPECT_EQ(ctx.name(v.base), "glStructArray");
  ASSERT_EQ(v.steps.size(), 3u);
  EXPECT_FALSE(v.steps[0].is_field);
  EXPECT_EQ(v.steps[0].index, 0u);
  EXPECT_TRUE(v.steps[1].is_field);
  EXPECT_EQ(ctx.name(v.steps[1].field), "myArray");
  EXPECT_EQ(v.steps[2].index, 1u);
  EXPECT_EQ(ctx.format_var(v), "glStructArray[0].myArray[1]");
}

TEST(VarRef, RoundTripSweep) {
  TraceContext ctx;
  for (const char* text :
       {"lSoA.mX[3]", "lAoS[7].mY", "lS1[0].mRarelyUsed.mZ", "_zzq_args[5]",
        "a.b.c.d", "x[1][2][3]"}) {
    EXPECT_EQ(ctx.format_var(var_ref(ctx, text)), text);
  }
}

TEST(VarRef, ParseErrors) {
  TraceContext ctx;
  const std::pair<const char*, VarFault::Kind> cases[] = {
      {"", VarFault::Kind::NoIdentifier},
      {"1bad", VarFault::Kind::NoIdentifier},
      {"a..b", VarFault::Kind::NoField},
      {"a.", VarFault::Kind::NoField},
      {"a[x]", VarFault::Kind::BadIndex},
      {"a[3", VarFault::Kind::Unterminated},
      {"a!", VarFault::Kind::Unexpected},
  };
  for (const auto& [text, kind] : cases) {
    VarRef var = var_ref(ctx, "untouched");
    const VarRef before = var;
    const VarFault fault = ctx.try_parse_var(text, var);
    EXPECT_EQ(fault.kind, kind) << text;
    EXPECT_EQ(var, before) << text;  // a failed parse leaves `out` alone
  }
  VarRef var;
  EXPECT_EQ(ctx.try_parse_var("a!", var).message("a!"), "unexpected '!' in 'a!'");
  EXPECT_EQ(ctx.try_parse_var("a[3", var).message("a[3"),
            "unterminated '[' in 'a[3'");
  EXPECT_EQ(ctx.try_parse_var("", var).message(""),
            "variable reference must start with an identifier: ''");
}

TEST(VarRef, Equality) {
  TraceContext ctx;
  EXPECT_EQ(var_ref(ctx, "a.b[1]"), var_ref(ctx, "a.b[1]"));
  EXPECT_FALSE(var_ref(ctx, "a.b[1]") == var_ref(ctx, "a.b[2]"));
  EXPECT_FALSE(var_ref(ctx, "a.b[1]") == var_ref(ctx, "a.c[1]"));
}

TEST(FormatRecord, LocalScalarMatchesPaperShape) {
  // Paper Listing 2: `S 7ff0001bc 4 main LV 0 1 lcScalar`
  TraceContext ctx;
  TraceRecord rec;
  rec.kind = AccessKind::Store;
  rec.address = 0x7ff0001bc;
  rec.size = 4;
  rec.function = ctx.intern("main");
  rec.scope = VarScope::LocalVariable;
  rec.frame = 0;
  rec.thread = 1;
  rec.var = var_ref(ctx, "lcScalar");
  EXPECT_EQ(ctx.format_record(rec), "S 7ff0001bc 4 main LV 0 1 lcScalar");
}

TEST(FormatRecord, GlobalOmitsFrameAndThread) {
  // Paper Listing 2: `S 000601040 4 main GV glScalar`
  TraceContext ctx;
  TraceRecord rec;
  rec.kind = AccessKind::Store;
  rec.address = 0x601040;
  rec.size = 4;
  rec.function = ctx.intern("main");
  rec.scope = VarScope::GlobalVariable;
  rec.var = var_ref(ctx, "glScalar");
  EXPECT_EQ(ctx.format_record(rec), "S 000601040 4 main GV glScalar");
}

TEST(FormatRecord, UnannotatedStopsAfterFunction) {
  // Paper Listing 2: `L 7ff0001b0 8 main`
  TraceContext ctx;
  TraceRecord rec;
  rec.kind = AccessKind::Load;
  rec.address = 0x7ff0001b0;
  rec.size = 8;
  rec.function = ctx.intern("main");
  EXPECT_EQ(ctx.format_record(rec), "L 7ff0001b0 8 main");
}

TEST(FormatRecord, GlobalStructureElement) {
  // Paper Listing 2: `S 0006010e0 8 foo GS glStructArray[0].dl`
  TraceContext ctx;
  TraceRecord rec;
  rec.kind = AccessKind::Store;
  rec.address = 0x6010e0;
  rec.size = 8;
  rec.function = ctx.intern("foo");
  rec.scope = VarScope::GlobalStructure;
  rec.var = var_ref(ctx, "glStructArray[0].dl");
  EXPECT_EQ(ctx.format_record(rec), "S 0006010e0 8 foo GS glStructArray[0].dl");
}

TEST(TraceRecord, DefaultEqualityIsStructural) {
  TraceContext ctx;
  TraceRecord a, b;
  a.function = b.function = ctx.intern("main");
  EXPECT_EQ(a, b);
  b.address = 4;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace tdt::trace
