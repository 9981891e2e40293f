#include "layout/type.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "util/error.hpp"

namespace tdt::layout {
namespace {

TEST(TypeTable, PrimitiveSizesMatchLp64) {
  TypeTable t;
  EXPECT_EQ(t.size_of(t.char_type()), 1u);
  EXPECT_EQ(t.size_of(t.bool_type()), 1u);
  EXPECT_EQ(t.size_of(t.short_type()), 2u);
  EXPECT_EQ(t.size_of(t.int_type()), 4u);
  EXPECT_EQ(t.size_of(t.long_type()), 8u);
  EXPECT_EQ(t.size_of(t.float_type()), 4u);
  EXPECT_EQ(t.size_of(t.double_type()), 8u);
}

TEST(TypeTable, PrimitiveAlignEqualsSize) {
  TypeTable t;
  for (TypeId id : {t.char_type(), t.short_type(), t.int_type(),
                    t.long_type(), t.float_type(), t.double_type()}) {
    EXPECT_EQ(t.align_of(id), t.size_of(id));
  }
}

TEST(TypeTable, FindPrimitiveByName) {
  TypeTable t;
  EXPECT_EQ(t.find_primitive("int"), t.int_type());
  EXPECT_EQ(t.find_primitive("double"), t.double_type());
  EXPECT_EQ(t.find_primitive("nosuch"), kInvalidType);
}

TEST(TypeTable, PointersAreEightBytesAndInterned) {
  TypeTable t;
  const TypeId p1 = t.pointer_to(t.int_type());
  const TypeId p2 = t.pointer_to(t.int_type());
  const TypeId p3 = t.pointer_to(t.double_type());
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
  EXPECT_EQ(t.size_of(p1), 8u);
  EXPECT_EQ(t.align_of(p1), 8u);
  EXPECT_EQ(t.element(p1), t.int_type());
}

TEST(TypeTable, ArraysMultiplySize) {
  TypeTable t;
  const TypeId a = t.array_of(t.int_type(), 10);
  EXPECT_EQ(t.size_of(a), 40u);
  EXPECT_EQ(t.align_of(a), 4u);
  EXPECT_EQ(t.array_count(a), 10u);
  EXPECT_EQ(t.element(a), t.int_type());
}

TEST(TypeTable, ArraysInterned) {
  TypeTable t;
  EXPECT_EQ(t.array_of(t.int_type(), 16), t.array_of(t.int_type(), 16));
  EXPECT_NE(t.array_of(t.int_type(), 16), t.array_of(t.int_type(), 17));
}

TEST(TypeTable, ArraySizeThatWrapsRejected) {
  TypeTable t;
  const auto kind_of = [&](TypeId elem, std::uint64_t count) {
    try {
      (void)t.array_of(elem, count);
    } catch (const Error& e) {
      return std::optional<ErrorKind>(e.kind());
    }
    return std::optional<ErrorKind>();
  };
  EXPECT_EQ(kind_of(t.int_type(), ~std::uint64_t{0}), ErrorKind::Semantic);
  EXPECT_EQ(kind_of(t.long_type(), std::uint64_t{1} << 61),
            ErrorKind::Semantic);
  const TypeId big = t.array_of(t.int_type(), std::uint64_t{1} << 40);
  EXPECT_EQ(kind_of(big, std::uint64_t{1} << 22), ErrorKind::Semantic);
  // The largest sizes that fit are still accepted.
  EXPECT_EQ(kind_of(t.char_type(), ~std::uint64_t{0}), std::nullopt);
  EXPECT_EQ(kind_of(big, std::uint64_t{1} << 21), std::nullopt);
  EXPECT_EQ(t.size_of(t.array_of(big, std::uint64_t{1} << 21)),
            std::uint64_t{1} << 63);
}

TEST(TypeTable, StructSizeThatWrapsRejected) {
  TypeTable t;
  const TypeId half = t.array_of(t.char_type(), std::uint64_t{1} << 63);
  // Two halves end exactly at 2^64: the second field's end wraps.
  EXPECT_THROW(t.define_struct("Twice", {{"a", half}, {"b", half}}), Error);
  // Padding before an int after 2^64 - 2 chars wraps in the alignment.
  const TypeId most = t.array_of(t.char_type(), ~std::uint64_t{0} - 1);
  EXPECT_THROW(t.define_struct("Tail", {{"a", most}, {"b", t.int_type()}}),
               Error);
  // So does the final rounding of the struct size to its alignment:
  // 4 + (2^64 - 7) bytes end at 2^64 - 3, which rounds up past 2^64.
  const TypeId odd = t.array_of(t.char_type(), ~std::uint64_t{0} - 6);
  EXPECT_THROW(t.define_struct("Round", {{"b", t.int_type()}, {"a", odd}}),
               Error);
  try {
    (void)t.define_struct("Named", {{"a", half}, {"b", half}});
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Semantic);
    EXPECT_NE(std::string(e.what()).find("'Named'"), std::string::npos);
  }
}

TEST(TypeTable, ZeroLengthArrayRejected) {
  TypeTable t;
  EXPECT_THROW(t.array_of(t.int_type(), 0), Error);
}

TEST(TypeTable, StructPaddingAfterIntBeforeDouble) {
  // struct { int a; double b; } -> b at offset 8, size 16, align 8.
  TypeTable t;
  const TypeId s = t.define_struct(
      "S", {{"a", t.int_type()}, {"b", t.double_type()}});
  EXPECT_EQ(t.size_of(s), 16u);
  EXPECT_EQ(t.align_of(s), 8u);
  EXPECT_EQ(t.find_field(s, "a")->offset, 0u);
  EXPECT_EQ(t.find_field(s, "b")->offset, 8u);
  EXPECT_EQ(t.padding_bytes(s), 4u);
}

TEST(TypeTable, StructTailPadding) {
  // struct { double a; int b; } -> size 16 (tail padded), not 12.
  TypeTable t;
  const TypeId s = t.define_struct(
      "S", {{"a", t.double_type()}, {"b", t.int_type()}});
  EXPECT_EQ(t.size_of(s), 16u);
  EXPECT_EQ(t.padding_bytes(s), 4u);
}

TEST(TypeTable, PackedStructNoPadding) {
  TypeTable t;
  const TypeId s = t.define_struct(
      "S", {{"a", t.int_type()}, {"b", t.int_type()}});
  EXPECT_EQ(t.size_of(s), 8u);
  EXPECT_EQ(t.padding_bytes(s), 0u);
}

TEST(TypeTable, PaperTypeALayout) {
  // struct _typeA { double dl; int myArray[10]; } -> dl@0, myArray@8,
  // size 48 (8 + 40).
  TypeTable t;
  const TypeId s = t.define_struct(
      "_typeA",
      {{"dl", t.double_type()}, {"myArray", t.array_of(t.int_type(), 10)}});
  EXPECT_EQ(t.find_field(s, "dl")->offset, 0u);
  EXPECT_EQ(t.find_field(s, "myArray")->offset, 8u);
  EXPECT_EQ(t.size_of(s), 48u);
}

TEST(TypeTable, PaperMyStructLayout) {
  // struct MyStruct { int mX; double mY; } -> 16 bytes, the AoS element of
  // transformation T1.
  TypeTable t;
  const TypeId s = t.define_struct(
      "MyStruct", {{"mX", t.int_type()}, {"mY", t.double_type()}});
  EXPECT_EQ(t.size_of(s), 16u);
  const TypeId arr = t.array_of(s, 16);
  EXPECT_EQ(t.size_of(arr), 256u);
}

TEST(TypeTable, NestedStructAlignmentPropagates) {
  TypeTable t;
  const TypeId inner = t.define_struct(
      "Inner", {{"y", t.double_type()}, {"z", t.int_type()}});
  const TypeId outer = t.define_struct(
      "Outer", {{"hot", t.int_type()}, {"cold", inner}});
  // Inner is 8-aligned, so cold starts at 8: size = 8 + 16 = 24.
  EXPECT_EQ(t.find_field(outer, "cold")->offset, 8u);
  EXPECT_EQ(t.size_of(outer), 24u);
  EXPECT_EQ(t.align_of(outer), 8u);
}

TEST(TypeTable, EmptyStructHasNonZeroSize) {
  TypeTable t;
  const TypeId s = t.define_struct("Empty", {});
  EXPECT_GE(t.size_of(s), 1u);
}

TEST(TypeTable, DuplicateStructNameRejected) {
  TypeTable t;
  (void)t.define_struct("S", {{"a", t.int_type()}});
  EXPECT_THROW(t.define_struct("S", {{"b", t.int_type()}}), Error);
}

TEST(TypeTable, DuplicateFieldRejected) {
  TypeTable t;
  EXPECT_THROW(
      t.define_struct("S", {{"a", t.int_type()}, {"a", t.int_type()}}),
      Error);
}

TEST(TypeTable, FindStructByName) {
  TypeTable t;
  const TypeId s = t.define_struct("Point", {{"x", t.int_type()}});
  EXPECT_EQ(t.find_struct("Point"), s);
  EXPECT_EQ(t.find_struct("NoPoint"), kInvalidType);
}

TEST(TypeTable, RenderNames) {
  TypeTable t;
  const TypeId s = t.define_struct("Pt", {{"x", t.int_type()}});
  EXPECT_EQ(t.render(t.int_type()), "int");
  EXPECT_EQ(t.render(t.pointer_to(t.double_type())), "double*");
  EXPECT_EQ(t.render(t.array_of(t.int_type(), 10)), "int[10]");
  EXPECT_EQ(t.render(s), "Pt");
  EXPECT_EQ(t.render(t.array_of(s, 3)), "Pt[3]");
}

TEST(TypeTable, ForwardDeclarationSelfReference) {
  TypeTable t;
  const TypeId node = t.forward_struct("Node");
  EXPECT_FALSE(t.is_complete(node));
  t.complete_struct(
      node, {{"value", t.int_type()}, {"next", t.pointer_to(node)}});
  EXPECT_TRUE(t.is_complete(node));
  EXPECT_EQ(t.size_of(node), 16u);
  EXPECT_EQ(t.find_field(node, "next")->offset, 8u);
}

TEST(TypeTable, IncompleteFieldRejected) {
  TypeTable t;
  const TypeId fwd = t.forward_struct("Fwd");
  EXPECT_THROW(t.define_struct("Bad", {{"f", fwd}}), Error);
}

TEST(TypeTable, DoubleCompleteRejected) {
  TypeTable t;
  const TypeId fwd = t.forward_struct("F");
  t.complete_struct(fwd, {{"a", t.int_type()}});
  EXPECT_THROW(t.complete_struct(fwd, {{"b", t.int_type()}}), Error);
}

TEST(AlignUp, Basics) {
  EXPECT_EQ(align_up(0, 8), 0u);
  EXPECT_EQ(align_up(1, 8), 8u);
  EXPECT_EQ(align_up(8, 8), 8u);
  EXPECT_EQ(align_up(9, 4), 12u);
  EXPECT_EQ(align_up(13, 1), 13u);
  EXPECT_EQ(align_up(5, 0), 5u);
}

// Property sweep: any mix of primitive fields obeys the two ABI
// invariants — each offset is a multiple of the field's alignment, and
// offsets are strictly increasing with no overlap.
class StructLayoutProperty : public ::testing::TestWithParam<int> {};

TEST_P(StructLayoutProperty, OffsetsAlignedAndNonOverlapping) {
  TypeTable t;
  const TypeId prims[] = {t.char_type(), t.short_type(), t.int_type(),
                          t.long_type(), t.float_type(), t.double_type()};
  // Derive a deterministic pseudo-random field list from the parameter.
  unsigned state = static_cast<unsigned>(GetParam()) * 2654435761u + 1;
  std::vector<PendingField> fields;
  const int n = 1 + static_cast<int>(state % 7);
  for (int i = 0; i < n; ++i) {
    state = state * 1664525u + 1013904223u;
    std::string name = "f";
    name += std::to_string(i);
    fields.push_back({std::move(name), prims[state % 6]});
  }
  std::string struct_name = "S";
  struct_name += std::to_string(GetParam());
  const TypeId s = t.define_struct(struct_name, std::move(fields));
  std::uint64_t prev_end = 0;
  std::uint64_t max_align = 1;
  for (const FieldInfo& f : t.fields(s)) {
    EXPECT_EQ(f.offset % t.align_of(f.type), 0u);
    EXPECT_GE(f.offset, prev_end);
    prev_end = f.offset + t.size_of(f.type);
    max_align = std::max(max_align, t.align_of(f.type));
  }
  EXPECT_EQ(t.align_of(s), max_align);
  EXPECT_EQ(t.size_of(s) % max_align, 0u);
  EXPECT_GE(t.size_of(s), prev_end);
}

INSTANTIATE_TEST_SUITE_P(Sweep, StructLayoutProperty,
                         ::testing::Range(0, 50));

}  // namespace
}  // namespace tdt::layout
