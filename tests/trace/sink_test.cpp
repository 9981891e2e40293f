#include "trace/sink.hpp"

#include <gtest/gtest.h>

#include "trace/reader.hpp"

namespace tdt::trace {
namespace {

std::vector<TraceRecord> sample(TraceContext& ctx) {
  return read_trace_string(ctx,
                           "L 000001000 4 main\n"
                           "S 000001004 4 main\n"
                           "M 000001008 4 main\n");
}

TEST(VectorSink, AccumulatesAndTakes) {
  TraceContext ctx;
  VectorSink sink;
  for (const TraceRecord& r : sample(ctx)) sink.on_record(r);
  EXPECT_EQ(sink.records().size(), 3u);
  const auto taken = sink.take();
  EXPECT_EQ(taken.size(), 3u);
  EXPECT_TRUE(sink.records().empty());
}

TEST(NullSink, CountsAndDiscards) {
  TraceContext ctx;
  NullSink sink;
  for (const TraceRecord& r : sample(ctx)) sink.on_record(r);
  EXPECT_EQ(sink.count(), 3u);
}

}  // namespace
}  // namespace tdt::trace
