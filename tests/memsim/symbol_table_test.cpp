#include "memsim/symbol_table.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace tdt::memsim {
namespace {

struct Fixture {
  layout::TypeTable types;
  AddressSpace space;
  SymbolTable table{types, space};
};

TEST(SymbolTable, GlobalsAllocatedInDataSegment) {
  Fixture f;
  const VarInfo& v = f.table.declare_global("glScalar", f.types.int_type());
  EXPECT_TRUE(v.global);
  EXPECT_EQ(f.space.segment_of(v.base), Segment::Globals);
  EXPECT_EQ(v.scope(f.types), trace::VarScope::GlobalVariable);
}

TEST(SymbolTable, LocalsAllocatedOnStack) {
  Fixture f;
  const VarInfo& v = f.table.declare_local("i", f.types.int_type());
  EXPECT_FALSE(v.global);
  EXPECT_EQ(f.space.segment_of(v.base), Segment::Stack);
  EXPECT_EQ(v.scope(f.types), trace::VarScope::LocalVariable);
}

TEST(SymbolTable, AggregatesGetStructureScopes) {
  Fixture f;
  const auto arr = f.types.array_of(f.types.int_type(), 10);
  const VarInfo& l = f.table.declare_local("lcArray", arr);
  const VarInfo& g = f.table.declare_global("glArray", arr);
  EXPECT_EQ(l.scope(f.types), trace::VarScope::LocalStructure);
  EXPECT_EQ(g.scope(f.types), trace::VarScope::GlobalStructure);
}

TEST(SymbolTable, LookupInnermostFirst) {
  Fixture f;
  f.table.declare_global("x", f.types.int_type());
  f.table.push_scope();
  const VarInfo& shadow = f.table.declare_local("x", f.types.double_type());
  EXPECT_EQ(f.table.lookup("x"), &shadow);
  f.table.pop_scope();
  const VarInfo* outer = f.table.lookup("x");
  ASSERT_NE(outer, nullptr);
  EXPECT_TRUE(outer->global);
}

TEST(SymbolTable, LookupMissReturnsNull) {
  Fixture f;
  EXPECT_EQ(f.table.lookup("absent"), nullptr);
}

TEST(SymbolTable, ScopesDropVariables) {
  Fixture f;
  f.table.push_scope();
  f.table.declare_local("tmp", f.types.int_type());
  EXPECT_NE(f.table.lookup("tmp"), nullptr);
  f.table.pop_scope();
  EXPECT_EQ(f.table.lookup("tmp"), nullptr);
}

TEST(SymbolTable, PopOutermostThrows) {
  Fixture f;
  EXPECT_THROW(f.table.pop_scope(), Error);
}

TEST(SymbolTable, ResolveAddressScalar) {
  Fixture f;
  const VarInfo& v = f.table.declare_global("glScalar", f.types.int_type());
  AddressResolution res;
  ASSERT_TRUE(f.table.resolve_address(v.base, res));
  EXPECT_EQ(res.var, &v);
  EXPECT_TRUE(res.steps.empty());
  EXPECT_EQ(res.offset_in_leaf, 0u);
}

TEST(SymbolTable, ResolveAddressNestedElement) {
  Fixture f;
  const auto type_a = f.types.define_struct(
      "_typeA", {{"dl", f.types.double_type()},
                 {"myArray", f.types.array_of(f.types.int_type(), 10)}});
  const VarInfo& v =
      f.table.declare_global("glStructArray", f.types.array_of(type_a, 10));
  // glStructArray[1].myArray[1] = base + 48 + 8 + 4, plus 2 bytes in.
  AddressResolution res;
  ASSERT_TRUE(f.table.resolve_address(v.base + 62, res));
  EXPECT_EQ(res.var, &v);
  ASSERT_EQ(res.steps.size(), 3u);
  EXPECT_FALSE(res.steps[0].is_field());
  EXPECT_EQ(res.steps[0].index, 1u);
  EXPECT_EQ(res.steps[1].owner, type_a);  // field by position: myArray
  EXPECT_EQ(res.steps[1].index, 1u);
  EXPECT_FALSE(res.steps[2].is_field());
  EXPECT_EQ(res.steps[2].index, 1u);
  EXPECT_EQ(res.offset_in_leaf, 2u);
}

TEST(SymbolTable, ResolveAddressInPaddingFails) {
  Fixture f;
  const auto s = f.types.define_struct(
      "Padded", {{"a", f.types.int_type()}, {"b", f.types.double_type()}});
  const VarInfo& v = f.table.declare_global("p", s);
  AddressResolution res;
  EXPECT_FALSE(f.table.resolve_address(v.base + 5, res));
}

TEST(SymbolTable, ResolveAddressOutsideAllVariables) {
  Fixture f;
  f.table.declare_global("x", f.types.int_type());
  AddressResolution res;
  EXPECT_FALSE(f.table.resolve_address(0xdeadbeef, res));
}

TEST(SymbolTable, ResolvePrefersInnermostOnOverlap) {
  Fixture f;
  const VarInfo& g = f.table.declare_global("g", f.types.int_type());
  // Shadow pseudo-variable at the same address via declare_at.
  const VarInfo& shadow =
      f.table.declare_at("shadow", f.types.int_type(), g.base, true);
  AddressResolution res;
  ASSERT_TRUE(f.table.resolve_address(g.base, res));
  EXPECT_EQ(res.var, &shadow);  // later declaration wins
}

TEST(SymbolTable, ResolveReusesTheStepBuffer) {
  Fixture f;
  const auto arr = f.types.array_of(f.types.int_type(), 4);
  const VarInfo& a = f.table.declare_global("a", arr);
  const VarInfo& x = f.table.declare_global("x", f.types.int_type());
  AddressResolution res;
  ASSERT_TRUE(f.table.resolve_address(a.base + 8, res));
  ASSERT_EQ(res.steps.size(), 1u);
  ASSERT_TRUE(f.table.resolve_address(x.base, res));
  EXPECT_EQ(res.var, &x);
  EXPECT_TRUE(res.steps.empty());  // cleared, not appended to
}

TEST(SymbolTable, DeclareAtPlacesExactly) {
  Fixture f;
  const VarInfo& v =
      f.table.declare_at("fixed", f.types.int_type(), 0x12340, false);
  EXPECT_EQ(v.base, 0x12340u);
  EXPECT_FALSE(v.global);
}

TEST(SymbolTable, LiveVariablesListsAll) {
  Fixture f;
  f.table.declare_global("g", f.types.int_type());
  f.table.declare_local("l", f.types.int_type());
  f.table.push_scope();
  f.table.declare_local("inner", f.types.int_type());
  const auto live = f.table.live_variables();
  EXPECT_EQ(live.size(), 3u);
  f.table.pop_scope();
  EXPECT_EQ(f.table.live_variables().size(), 2u);
}

TEST(SymbolTable, FrameRecordedAtDeclaration) {
  Fixture f;
  const VarInfo& outer = f.table.declare_local("outer", f.types.int_type());
  f.table.push_scope();
  const VarInfo& inner = f.table.declare_local("inner", f.types.int_type());
  EXPECT_EQ(outer.frame, 0u);
  EXPECT_EQ(inner.frame, 1u);
  f.table.pop_scope();
}

}  // namespace
}  // namespace tdt::memsim
