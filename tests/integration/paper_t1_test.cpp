// End-to-end reproduction of the paper's transformation T1 (Listings 3-5,
// Figures 3-5): SoA kernel traced, transformed by the Listing 5 rule, and
// both traces simulated on the 32 KiB direct-mapped cache.
#include <gtest/gtest.h>

#include <set>

#include "analysis/experiment.hpp"
#include "core/rule_parser.hpp"
#include "tracer/kernels.hpp"

namespace tdt {
namespace {

constexpr std::int64_t kLen = 1024;

std::string t1_rules_text() {
  return R"(
in:
struct lSoA {
  int mX[)" +
         std::to_string(kLen) + R"(];
  double mY[)" +
         std::to_string(kLen) + R"(];
};
out:
struct lAoS {
  int mX;
  double mY;
}[)" + std::to_string(kLen) +
         R"(];
)";
}

struct T1 : ::testing::Test {
  layout::TypeTable types;
  trace::TraceContext ctx;
  core::RuleSet rules = core::parse_rules(t1_rules_text());
  analysis::ExperimentResult result;

  void SetUp() override {
    const auto prog = tracer::make_t1_soa(types, kLen);
    result = analysis::run_experiment(types, ctx, prog,
                                      cache::paper_direct_mapped(), &rules);
  }
};

TEST_F(T1, EveryStructureAccessRewrittenNothingInserted) {
  EXPECT_EQ(result.transform_stats.rewritten, 2u * kLen);
  EXPECT_EQ(result.transform_stats.inserted, 0u);
  EXPECT_EQ(result.transform_stats.skipped, 0u);
  EXPECT_EQ(result.diff.modified, 2u * kLen);
  EXPECT_EQ(result.diff.inserted, 0u);
  EXPECT_EQ(result.diff.deleted, 0u);
  EXPECT_EQ(result.original.size(), result.transformed.size());
}

TEST_F(T1, SoAFieldsOccupyDisjointSetRanges) {
  // Figure 3's "banded" pattern: in SoA the mX and mY stores hit disjoint
  // address regions, hence (mostly) disjoint cache sets.
  std::set<std::uint64_t> mx_sets, my_sets;
  const cache::CacheGeometry g = cache::paper_direct_mapped().geometry();
  for (const trace::TraceRecord& r : result.original) {
    if (r.var.empty() || std::string(ctx.name(r.var.base)) != "lSoA") {
      continue;
    }
    const std::string var = ctx.format_var(r.var);
    (var.find(".mX") != std::string::npos ? mx_sets : my_sets)
        .insert(g.set_index(g.block_of(r.address)));
  }
  // 4 KiB of mX -> 128 sets; 8 KiB of mY -> 256 sets; disjoint.
  EXPECT_EQ(mx_sets.size(), 128u);
  EXPECT_EQ(my_sets.size(), 256u);
  for (std::uint64_t s : mx_sets) EXPECT_FALSE(my_sets.contains(s));
}

TEST_F(T1, AoSSpansContiguousRangeTouchedUniformly) {
  // Figure 4: after the transformation every AoS element access falls in
  // one contiguous 16 KiB region (1024 padded 16-byte elements) = 512
  // consecutive sets, each touched by both fields.
  std::set<std::uint64_t> sets;
  const cache::CacheGeometry g = cache::paper_direct_mapped().geometry();
  for (const trace::TraceRecord& r : result.transformed) {
    if (!r.var.empty() && std::string(ctx.name(r.var.base)) == "lAoS") {
      sets.insert(g.set_index(g.block_of(r.address)));
    }
  }
  EXPECT_EQ(sets.size(), 512u);
  // Contiguity modulo the set count.
  std::vector<std::uint64_t> sorted(sets.begin(), sets.end());
  std::uint64_t gaps = 0;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    gaps += sorted[i] != sorted[i - 1] + 1;
  }
  EXPECT_LE(gaps, 1u);  // at most one wraparound
}

TEST_F(T1, MissTotalsReflectPaddedFootprint) {
  // SoA streams 12 KiB (384 cold line misses). The AoS layout pads every
  // element to 16 bytes, so the same walk covers 16 KiB = 512 lines —
  // a cost of interleaving the figures make visible.
  std::uint64_t before_misses = 0, after_misses = 0;
  for (const auto& cell : result.before.per_set.at("lSoA")) {
    before_misses += cell.misses;
  }
  for (const auto& cell : result.after.per_set.at("lAoS")) {
    after_misses += cell.misses;
  }
  EXPECT_EQ(before_misses, 384u);
  EXPECT_GE(after_misses, 512u);
  EXPECT_LE(after_misses, 520u);  // plus a few stack-scalar conflicts
}

TEST_F(T1, PerIterationLocalityImproves) {
  // The actual T1 benefit: in AoS, an iteration's mX and mY share a cache
  // line for 75% of elements (16-byte elements in 32-byte lines); in SoA
  // they never do. Count iterations whose two stores hit the same line.
  auto same_line_pairs = [&](const std::vector<trace::TraceRecord>& recs,
                             const char* base) {
    std::uint64_t pairs = 0, last_mx_line = ~0ull;
    for (const trace::TraceRecord& r : recs) {
      if (r.var.empty() || std::string(ctx.name(r.var.base)) != base) {
        continue;
      }
      const std::string var = ctx.format_var(r.var);
      if (var.find(".mX") != std::string::npos) {
        last_mx_line = r.address / 32;
      } else if (r.address / 32 == last_mx_line) {
        ++pairs;
      }
    }
    return pairs;
  };
  EXPECT_EQ(same_line_pairs(result.original, "lSoA"), 0u);
  // With a 32-byte-aligned base every element's mX/mY pair shares a line;
  // any 8-aligned placement still pairs at least half of them.
  EXPECT_GE(same_line_pairs(result.transformed, "lAoS"),
            static_cast<std::uint64_t>(kLen) / 2);
}

TEST_F(T1, TransformedTraceStillSimulates) {
  EXPECT_EQ(result.before.l1.accesses(), result.after.l1.accesses());
  EXPECT_GT(result.after.l1.hits(), 0u);
}

}  // namespace
}  // namespace tdt
