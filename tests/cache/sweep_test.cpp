#include "cache/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "trace/parallel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tdt::cache {
namespace {

TEST(SweepSpec, ParsesPointsAndOverrides) {
  CacheConfig base;
  const auto points =
      parse_sweep_spec("assoc=1;assoc=2;size=8k,assoc=4;block=64", base);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].levels[0].assoc, 1u);
  EXPECT_EQ(points[1].levels[0].assoc, 2u);
  EXPECT_EQ(points[2].levels[0].size, 8192u);
  EXPECT_EQ(points[2].levels[0].assoc, 4u);
  EXPECT_EQ(points[3].levels[0].block_size, 64u);
  EXPECT_EQ(points[3].levels[0].size, base.size);
}

TEST(SweepSpec, EmptyPointKeepsBase) {
  CacheConfig base;
  base.assoc = 2;
  const auto points = parse_sweep_spec(";assoc=4", base);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].levels[0].assoc, 2u);
  EXPECT_EQ(points[1].levels[0].assoc, 4u);
}

TEST(SweepSpec, SizeSuffixesAndPolicies) {
  CacheConfig base;
  const auto points =
      parse_sweep_spec("size=1M,repl=rr,prefetch=miss", base);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].levels[0].size, 1024u * 1024u);
  EXPECT_EQ(points[0].levels[0].replacement, ReplacementPolicy::RoundRobin);
  EXPECT_EQ(points[0].levels[0].prefetch, PrefetchPolicy::Miss);
}

TEST(SweepSpec, ExtraLevelsAppendToEveryPoint) {
  CacheConfig base;
  CacheConfig l2;
  l2.name = "L2";
  l2.size = 256 * 1024;
  l2.block_size = 64;
  l2.assoc = 8;
  const auto points = parse_sweep_spec("assoc=1;assoc=2", base, {l2});
  ASSERT_EQ(points.size(), 2u);
  for (const SweepPoint& p : points) {
    ASSERT_EQ(p.levels.size(), 2u);
    EXPECT_EQ(p.levels[1].name, "L2");
  }
}

TEST(SweepSpec, DedupesDuplicatePointsWithWarning) {
  CacheConfig base;
  std::vector<std::string> warnings;
  // "assoc=1" twice, plus a different spelling of the base configuration
  // (the default is already 1-way 32 KiB / 32 B blocks).
  const auto points = parse_sweep_spec("assoc=1;assoc=2;assoc=1;size=32k",
                                       base, {}, &warnings);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].levels[0].assoc, 1u);
  EXPECT_EQ(points[1].levels[0].assoc, 2u);
  ASSERT_EQ(warnings.size(), 2u);
  EXPECT_NE(warnings[0].find("duplicate sweep point 2"), std::string::npos);
  EXPECT_NE(warnings[1].find("duplicate sweep point 3"), std::string::npos);
}

TEST(SweepSpec, DedupeConsidersExtraLevelsAndNeverEmptiesTheList) {
  CacheConfig base;
  CacheConfig l2;
  l2.name = "L2";
  l2.size = 256 * 1024;
  l2.block_size = 64;
  l2.assoc = 8;
  // All duplicates collapse to one point; without a warnings sink the
  // dedupe is silent.
  const auto points = parse_sweep_spec(";;", base, {l2});
  ASSERT_EQ(points.size(), 1u);
  ASSERT_EQ(points[0].levels.size(), 2u);
}

TEST(SweepSpec, LabelsNameThePrefetchPolicy) {
  CacheConfig base;
  const auto points = parse_sweep_spec("prefetch=none;prefetch=tagged", base);
  ASSERT_EQ(points.size(), 2u);
  // No prefetching keeps the label it always had.
  EXPECT_EQ(points[0].label(),
            "L1 32 KiB, 32 B blocks, 1-way associative, lru, write-back");
  EXPECT_EQ(points[1].label(),
            "L1 32 KiB, 32 B blocks, 1-way associative, lru, write-back, "
            "tagged-prefetch");
  // The report's section headers and summary rows tell the points apart.
  ParallelSweep sweep(points, {});
  const std::string report = sweep.report();
  EXPECT_NE(report.find("=== sweep point 0: " + points[0].label() + " ===\n"),
            std::string::npos);
  EXPECT_NE(report.find("=== sweep point 1: " + points[1].label() + " ===\n"),
            std::string::npos);
  std::size_t tagged_mentions = 0;
  for (std::size_t at = report.find("tagged-prefetch");
       at != std::string::npos; at = report.find("tagged-prefetch", at + 1)) {
    ++tagged_mentions;
  }
  // Point 1: section header, level line and summary row.
  EXPECT_EQ(tagged_mentions, 3u);
}

TEST(SweepSpec, RejectsMalformedSpecs) {
  CacheConfig base;
  EXPECT_THROW(parse_sweep_spec("bogus=1", base), Error);
  EXPECT_THROW(parse_sweep_spec("assoc", base), Error);
  EXPECT_THROW(parse_sweep_spec("size=abc", base), Error);
  EXPECT_THROW(parse_sweep_spec("", base), Error);
  // Invalid geometry (non-power-of-two) is caught by validate().
  EXPECT_THROW(parse_sweep_spec("size=1000", base), Error);
  // Values that would wrap to a valid geometry name their key and text:
  // 2^32 + 1 ways, and sizes of 2^64 + 1 MiB and 2^64 + 1 KiB.
  for (const auto& [spec, key, text] :
       {std::tuple{"assoc=4294967297", "'assoc'", "4294967297"},
        std::tuple{"size=17592186044417M", "'size'", "17592186044417M"},
        std::tuple{"block=18014398509481985k", "'block'",
                   "18014398509481985k"}}) {
    try {
      (void)parse_sweep_spec(spec, base);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(key), std::string::npos) << what;
      EXPECT_NE(what.find(text), std::string::npos) << what;
    }
  }
}

TEST(LevelStatsMerge, SumsEveryField) {
  LevelStats a, b;
  a.read_hits = 1;
  a.write_misses = 2;
  a.conflict = 3;
  b.read_hits = 10;
  b.write_misses = 20;
  b.prefetches = 5;
  merge_into(a, b);
  EXPECT_EQ(a.read_hits, 11u);
  EXPECT_EQ(a.write_misses, 22u);
  EXPECT_EQ(a.conflict, 3u);
  EXPECT_EQ(a.prefetches, 5u);
}

std::vector<trace::TraceRecord> pseudo_random_trace(std::size_t n) {
  // Deterministic mix of sequential walking and random jumps, with loads,
  // stores and modifies of several sizes — enough to hit every stats
  // field (compulsory/capacity/conflict, writebacks, evictions).
  std::vector<trace::TraceRecord> records;
  records.reserve(n);
  Xoshiro256 rng(42);
  std::uint64_t walk = 0x10000;
  for (std::size_t i = 0; i < n; ++i) {
    trace::TraceRecord rec;
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 60) {
      rec.address = walk;
      walk += 8;
    } else {
      rec.address = 0x10000 + rng.next_below(1 << 20);
    }
    rec.kind = roll % 10 < 6   ? trace::AccessKind::Load
               : roll % 10 < 9 ? trace::AccessKind::Store
                               : trace::AccessKind::Modify;
    rec.size = roll % 3 == 0 ? 8 : 4;
    records.push_back(rec);
  }
  return records;
}

std::vector<SweepPoint> property_points() {
  CacheConfig base;
  base.size = 4096;
  base.block_size = 32;
  return parse_sweep_spec(
      "assoc=1;assoc=2,repl=random;assoc=4,repl=rr;size=8k,block=64", base);
}

TEST(ParallelSweep, ParallelRunIsBitIdenticalToSequential) {
  const auto records = pseudo_random_trace(20000);
  SimOptions options;
  options.modify_is_read_write = true;

  // Reference: each point simulated on its own, sequentially.
  ParallelSweep sequential(property_points(), options);
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    sequential.sim(i).simulate(records);
  }

  // One pass, fanned out over 4 worker threads, fed in uneven chunks.
  ParallelSweep parallel(property_points(), options);
  trace::ParallelOptions popt;
  popt.jobs = 4;
  popt.batch_records = 1000;
  popt.queue_batches = 2;
  trace::ParallelFanOut fanout(parallel.sinks(), popt);
  std::span<const trace::TraceRecord> rest(records);
  while (!rest.empty()) {
    const std::size_t take = std::min<std::size_t>(rest.size(), 1000);
    fanout.push_batch(rest.subspan(0, take));
    rest = rest.subspan(take);
  }
  fanout.on_end();

  ASSERT_EQ(fanout.counters().jobs, 4u);
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    const CacheLevel& seq_l1 = sequential.hierarchy(i).l1();
    const CacheLevel& par_l1 = parallel.hierarchy(i).l1();
    EXPECT_EQ(seq_l1.stats(), par_l1.stats()) << "point " << i;
    EXPECT_EQ(seq_l1.set_stats(), par_l1.set_stats()) << "point " << i;
  }
  // The rendered reports (including miss-class breakdowns) match byte for
  // byte — the tool-level guarantee behind dinerosim --jobs.
  EXPECT_EQ(sequential.report(), parallel.report());
  EXPECT_EQ(sequential.merged_l1(), parallel.merged_l1());
}

TEST(ParallelSweep, PageMapperIsPerPoint) {
  // A stateful first-touch mapper must not be shared between points:
  // every point sees the same first-touch order, so results still match
  // a sequential run of each point.
  const auto records = pseudo_random_trace(5000);
  PageMapSpec page;
  page.policy = PagePolicy::FirstTouch;
  page.page_size = 4096;

  ParallelSweep sequential(property_points(), {}, page);
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    sequential.sim(i).simulate(records);
  }

  ParallelSweep parallel(property_points(), {}, page);
  trace::ParallelOptions popt;
  popt.jobs = 2;
  popt.batch_records = 512;
  trace::ParallelFanOut fanout(parallel.sinks(), popt);
  fanout.push_batch(records);
  fanout.on_end();

  EXPECT_EQ(sequential.report(), parallel.report());
}

TEST(ParallelSweep, ReportContainsSummaryTable) {
  ParallelSweep sweep(property_points(), {});
  const auto records = pseudo_random_trace(100);
  trace::ParallelFanOut fanout(sweep.sinks(), {});
  fanout.push_batch(records);
  fanout.on_end();
  const std::string report = sweep.report();
  EXPECT_NE(report.find("sweep point 0"), std::string::npos);
  EXPECT_NE(report.find("sweep summary"), std::string::npos);
  EXPECT_NE(report.find("merged L1 totals"), std::string::npos);
  EXPECT_NE(report.find("miss ratio"), std::string::npos);
}

}  // namespace
}  // namespace tdt::cache
