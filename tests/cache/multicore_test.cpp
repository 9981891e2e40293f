#include "cache/multicore.hpp"

#include <gtest/gtest.h>

#include "trace/reader.hpp"

namespace tdt::cache {
namespace {

using trace::TraceContext;
using trace::TraceRecord;

CacheConfig tiny() {
  CacheConfig c;
  c.size = 256;
  c.block_size = 32;
  c.assoc = 2;
  return c;
}

TEST(MultiCore, RoutesByThreadId) {
  TraceContext ctx;
  const auto records = trace::read_trace_string(
      ctx,
      "S 000001000 4 w LS 0 1 a[0]\n"   // thread 1 -> core 0
      "S 000002000 4 w LS 0 2 b[0]\n"); // thread 2 -> core 1
  MesiSystem sys(tiny(), 2);
  MultiCoreSim sim(sys, ctx);
  sim.simulate(records);
  EXPECT_EQ(sys.core_stats(0).accesses(), 1u);
  EXPECT_EQ(sys.core_stats(1).accesses(), 1u);
}

TEST(MultiCore, ThreadIdsWrapAroundCores) {
  TraceContext ctx;
  const auto records = trace::read_trace_string(
      ctx, "S 000001000 4 w LS 0 3 a[0]\n");  // thread 3 on 2 cores -> core 0
  MesiSystem sys(tiny(), 2);
  MultiCoreSim sim(sys, ctx);
  sim.simulate(records);
  EXPECT_EQ(sys.core_stats(0).accesses(), 1u);
}

TEST(MultiCore, RecordAtTheTopOfTheAddressSpaceEnds) {
  TraceContext ctx;
  CacheConfig c;
  c.size = 1024;
  c.block_size = 1;
  c.assoc = 1;
  MesiSystem sys(c, 2);
  MultiCoreSim sim(sys, ctx);
  // The record's block is UINT64_MAX, which `block <= last` never passes.
  TraceRecord rec;
  rec.address = UINT64_MAX;
  rec.size = 1;
  sim.on_record(rec);
  EXPECT_EQ(sys.core_stats(0).accesses(), 1u);
  // A span that runs past the top ends at its last byte: two blocks, and
  // no wrap onto block 0.
  rec.address = UINT64_MAX - 1;
  rec.size = 4;
  sim.on_record(rec);
  EXPECT_EQ(sys.core_stats(0).accesses(), 3u);
  EXPECT_EQ(sys.state_of(0, UINT64_MAX - 1), Mesi::Exclusive);
  EXPECT_EQ(sys.state_of(0, 0), Mesi::Invalid);
}

TEST(MultiCore, FalseSharingDetectedOnDisjointBytes) {
  TraceContext ctx;
  // Two counters in the same 32-byte line, each written by its own core.
  std::string text;
  for (int i = 0; i < 8; ++i) {
    text += "M 000001000 4 w LS 0 1 counters[0]\n";
    text += "M 000001004 4 w LS 0 2 counters[1]\n";
  }
  MesiSystem sys(tiny(), 2);
  MultiCoreSim sim(sys, ctx);
  sim.simulate(trace::read_trace_string(ctx, text));
  EXPECT_GT(sim.false_sharing_invalidations(), 10u);
  EXPECT_EQ(sim.true_sharing_invalidations(), 0u);
  const auto& pairs = sim.false_sharing_pairs();
  EXPECT_EQ(pairs.at({"counters", "counters"}),
            sim.false_sharing_invalidations());
}

TEST(MultiCore, TrueSharingDetectedOnOverlappingBytes) {
  TraceContext ctx;
  std::string text;
  for (int i = 0; i < 8; ++i) {
    text += "M 000001000 4 w LS 0 1 flag\n";
    text += "M 000001000 4 w LS 0 2 flag\n";  // same bytes
  }
  MesiSystem sys(tiny(), 2);
  MultiCoreSim sim(sys, ctx);
  sim.simulate(trace::read_trace_string(ctx, text));
  EXPECT_GT(sim.true_sharing_invalidations(), 10u);
  EXPECT_EQ(sim.false_sharing_invalidations(), 0u);
}

TEST(MultiCore, SeparateLinesNoInvalidations) {
  TraceContext ctx;
  std::string text;
  for (int i = 0; i < 8; ++i) {
    text += "M 000001000 4 w LS 0 1 a\n";
    text += "M 000001040 4 w LS 0 2 b\n";  // different line
  }
  MesiSystem sys(tiny(), 2);
  MultiCoreSim sim(sys, ctx);
  sim.simulate(trace::read_trace_string(ctx, text));
  EXPECT_EQ(sys.total_invalidations(), 0u);
  EXPECT_EQ(sim.false_sharing_invalidations(), 0u);
}

TEST(MultiCore, ReportMentionsSharing) {
  TraceContext ctx;
  const auto records = trace::read_trace_string(
      ctx,
      "M 000001000 4 w LS 0 1 c[0]\n"
      "M 000001004 4 w LS 0 2 c[1]\n");
  MesiSystem sys(tiny(), 2);
  MultiCoreSim sim(sys, ctx);
  sim.simulate(records);
  const std::string report = sim.report();
  EXPECT_NE(report.find("false"), std::string::npos);
  EXPECT_NE(report.find("MESI"), std::string::npos);
}

TEST(Interleave, RoundRobinAssignsThreadIds) {
  TraceContext ctx;
  auto t1 = trace::read_trace_string(ctx,
                                     "L 000000010 4 f\nL 000000014 4 f\n");
  auto t2 = trace::read_trace_string(ctx, "S 000000020 4 g\n");
  const auto merged = trace::interleave_threads({t1, t2});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].thread, 1u);
  EXPECT_EQ(merged[0].address, 0x10u);
  EXPECT_EQ(merged[1].thread, 2u);
  EXPECT_EQ(merged[1].address, 0x20u);
  EXPECT_EQ(merged[2].thread, 1u);
  EXPECT_EQ(merged[2].address, 0x14u);
}

TEST(Interleave, ChunkGranularity) {
  TraceContext ctx;
  auto t1 = trace::read_trace_string(
      ctx, "L 000000010 4 f\nL 000000014 4 f\nL 000000018 4 f\n");
  auto t2 = trace::read_trace_string(
      ctx, "S 000000020 4 g\nS 000000024 4 g\n");
  const auto merged = trace::interleave_threads({t1, t2}, 2);
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].thread, 1u);
  EXPECT_EQ(merged[1].thread, 1u);
  EXPECT_EQ(merged[2].thread, 2u);
  EXPECT_EQ(merged[3].thread, 2u);
  EXPECT_EQ(merged[4].thread, 1u);
}

TEST(Interleave, EmptyInputs) {
  EXPECT_TRUE(trace::interleave_threads({}).empty());
  TraceContext ctx;
  auto t1 = trace::read_trace_string(ctx, "L 000000010 4 f\n");
  const auto merged = trace::interleave_threads({t1, {}});
  ASSERT_EQ(merged.size(), 1u);
}

}  // namespace
}  // namespace tdt::cache
