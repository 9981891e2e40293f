// Property sweep over randomly shaped structs: for any struct whose
// fields are re-ordered (a layout rule the paper's by-name matching
// implies but never demonstrates), the transformer must map every element
// access onto the out layout with the same leaf size, inside the out
// variable's footprint, and bijectively (no two in-leaves share an out
// address).
#include <gtest/gtest.h>

#include <set>

#include "core/rules.hpp"
#include "core/transformer.hpp"
#include "layout/path.hpp"
#include "trace/reader.hpp"
#include "util/rng.hpp"
#include "../trace/var_ref.hpp"

namespace tdt::core {
namespace {

class ReorderProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReorderProperty, RandomStructReorderIsBijective) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);

  layout::TypeTable types;
  const layout::TypeId prims[] = {types.char_type(), types.short_type(),
                                  types.int_type(), types.long_type(),
                                  types.float_type(), types.double_type()};
  // Random field list: scalars and small arrays.
  const std::size_t nfields = 2 + rng.next_below(5);
  std::vector<layout::PendingField> fields;
  for (std::size_t i = 0; i < nfields; ++i) {
    layout::TypeId t = prims[rng.next_below(6)];
    if (rng.next_below(3) == 0) {
      t = types.array_of(t, 1 + rng.next_below(6));
    }
    fields.push_back({"f" + std::to_string(i), t});
  }
  // Out: same fields, shuffled order.
  std::vector<layout::PendingField> shuffled = fields;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  }
  const layout::TypeId in_struct =
      types.define_struct("In" + std::to_string(GetParam()), std::move(fields));
  const layout::TypeId out_struct = types.define_struct(
      "Out" + std::to_string(GetParam()), std::move(shuffled));

  RuleSet rules(std::move(types));
  StructRule rule;
  rule.in_name = "var";
  rule.in_type = in_struct;
  rule.outs = {{"out", out_struct}};
  rules.add(std::move(rule));
  for (const RuleDiagnostic& d : rules.validate()) {
    ASSERT_NE(d.severity, RuleDiagnostic::Severity::Error) << d.message;
  }

  // Synthesize one record per in leaf and transform it.
  const auto& t = rules.types();
  trace::TraceContext ctx;
  std::vector<trace::TraceRecord> records;
  std::vector<std::uint64_t> in_sizes;
  const std::uint64_t in_base = 0x7ff100000;
  layout::for_each_leaf(
      t, in_struct,
      [&](const layout::Path& path, std::uint64_t offset,
          layout::TypeId leaf) {
        trace::TraceRecord rec;
        rec.kind = trace::AccessKind::Store;
        rec.address = in_base + offset;
        rec.size = static_cast<std::uint32_t>(t.size_of(leaf));
        rec.function = ctx.intern("main");
        rec.scope = trace::VarScope::LocalStructure;
        rec.thread = 1;
        rec.var = trace::var_ref(ctx, 
            "var" + layout::format_path({path.data(), path.size()}));
        records.push_back(rec);
        in_sizes.push_back(t.size_of(leaf));
      });

  TransformStats stats;
  const auto out = transform_trace(rules, ctx, records, {}, &stats);
  ASSERT_EQ(out.size(), records.size());
  EXPECT_EQ(stats.rewritten, records.size());
  EXPECT_EQ(stats.skipped, 0u);

  std::set<std::uint64_t> out_addresses;
  std::uint64_t out_base = ~0ull;
  for (const trace::TraceRecord& r : out) {
    out_base = std::min(out_base, r.address);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Size preserved (same-named fields have identical types).
    EXPECT_EQ(out[i].size, in_sizes[i]);
    // Within the out footprint.
    EXPECT_LE(out[i].address + out[i].size,
              out_base + t.size_of(out_struct));
    // Bijective: no two leaves collapse onto one address.
    EXPECT_TRUE(out_addresses.insert(out[i].address).second)
        << "duplicate out address for leaf " << i;
    // Renamed to the out variable.
    EXPECT_EQ(std::string(ctx.name(out[i].var.base)), "out");
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReorderProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace tdt::core
