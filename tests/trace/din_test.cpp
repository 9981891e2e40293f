#include "trace/din.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "trace/reader.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace tdt::trace {
namespace {

TEST(Din, ParsesLabelsAndAddresses) {
  TraceContext ctx;
  const auto records = read_din_string(ctx,
                                       "0 7ff000100\n"
                                       "1 7ff000104 8\n"
                                       "2 400000\n");
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].kind, AccessKind::Load);
  EXPECT_EQ(records[0].address, 0x7ff000100u);
  EXPECT_EQ(records[0].size, 4u);  // default
  EXPECT_EQ(records[1].kind, AccessKind::Store);
  EXPECT_EQ(records[1].size, 8u);
  EXPECT_EQ(records[2].kind, AccessKind::Instr);
  EXPECT_EQ(records[0].scope, VarScope::Unknown);
}

TEST(Din, DefaultSizeConfigurable) {
  TraceContext ctx;
  const auto records = read_din_string(ctx, "0 100\n", 8);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].size, 8u);
}

TEST(Din, SkipsCommentsAndBlanks) {
  TraceContext ctx;
  const auto records =
      read_din_string(ctx, "# header\n\n0 100\n  \n# trailer\n");
  EXPECT_EQ(records.size(), 1u);
}

TEST(Din, RejectsMalformed) {
  TraceContext ctx;
  EXPECT_THROW((void)read_din_string(ctx, "3 100\n"), Error);       // label
  EXPECT_THROW((void)read_din_string(ctx, "0 zz\n"), Error);        // addr
  EXPECT_THROW((void)read_din_string(ctx, "0\n"), Error);           // fields
  EXPECT_THROW((void)read_din_string(ctx, "0 100 4 junk\n"), Error);
  EXPECT_THROW((void)read_din_string(ctx, "0 100 0\n"), Error);     // size 0
  // A size wider than 32 bits is refused, not wrapped to 4.
  EXPECT_THROW((void)read_din_string(ctx, "0 200 100000004\n"), Error);
}

TEST(Din, WriteMapsKinds) {
  TraceContext ctx;
  const auto records = read_trace_string(ctx,
                                         "L 7ff000100 4 main\n"
                                         "S 7ff000104 8 main\n"
                                         "M 7ff000108 4 main\n"
                                         "I 000400000 4 main\n"
                                         "X 7ff000110 4 main\n");
  const std::string din = write_din_string(records);
  EXPECT_EQ(din,
            "0 7ff000100 4\n"
            "1 7ff000104 8\n"
            "1 7ff000108 4\n"  // Modify exports as a write
            "2 400000 4\n");   // Misc dropped
}

TEST(Din, RoundTripPreservesAddressStream) {
  TraceContext ctx;
  const auto original = read_din_string(ctx,
                                        "0 100 4\n1 104 8\n2 400000 4\n");
  const auto reparsed = read_din_string(ctx, write_din_string(original));
  ASSERT_EQ(reparsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reparsed[i].kind, original[i].kind);
    EXPECT_EQ(reparsed[i].address, original[i].address);
    EXPECT_EQ(reparsed[i].size, original[i].size);
  }
}

TEST(Din, MissingFileThrowsIo) {
  TraceContext ctx;
  try {
    (void)read_din_file(ctx, "/no/such/trace.din");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Io);
  }
}

TEST(Din, GleipnirTraceExportsLosingOnlyMetadata) {
  // A Gleipnir trace exported to din and re-imported simulates to the
  // same hit/miss totals (addresses and kinds are what the cache sees).
  TraceContext ctx;
  const auto rich = read_trace_string(
      ctx,
      "S 7ff000100 4 main LV 0 1 i\n"
      "L 7ff000100 4 main LV 0 1 i\n"
      "S 000601040 4 main GV glScalar\n");
  const auto lean = read_din_string(ctx, write_din_string(rich));
  ASSERT_EQ(lean.size(), rich.size());
  for (std::size_t i = 0; i < rich.size(); ++i) {
    EXPECT_EQ(lean[i].address, rich[i].address);
    EXPECT_TRUE(lean[i].var.empty());
  }
}

// The din twins of Reader.TornTail*: din reads through the same line
// splitter, so a source that dies mid-stream drains the complete lines,
// never parses the torn fragment, and raises T004.
TEST(Din, TornTailAfterIoFailureIsSuppressed) {
  fault::FaultInjector::reset();
  // 20-byte blocks: the first read ends inside the second line, leaving
  // a prefix that would parse as a record ("1 7ff0") buffered when the
  // second read fails.
  const std::string corpus =
      "0 7ff000100 4\n"
      "1 7ff000104 8\n"
      "2 400000 4\n";
  fault::FaultInjector::install("seed=1;reader.read:1:1");

  std::istringstream in(corpus);
  TraceContext ctx;
  DiagEngine diags(ErrorPolicy::Skip);
  DinReader reader(ctx, std::make_unique<OverlappedSource>(in, 20), 4,
                   &diags);
  std::vector<TraceRecord> records;
  while (reader.next_batch(records, 16) != 0) {
  }
  fault::FaultInjector::reset();

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, AccessKind::Load);
  EXPECT_EQ(records[0].address, 0x7ff000100u);

  EXPECT_EQ(diags.count(DiagCode::TraceIoError), 1u);
  ASSERT_FALSE(diags.retained().empty());
  const Diagnostic& d = diags.retained().front();
  EXPECT_EQ(d.code, DiagCode::TraceIoError);
  EXPECT_NE(d.message.find("partial final line discarded"),
            std::string::npos)
      << d.message;
}

TEST(Din, TornTailIsFatalWhenStrict) {
  fault::FaultInjector::reset();
  const std::string corpus =
      "0 7ff000100 4\n"
      "1 7ff000104 8\n";
  fault::FaultInjector::install("seed=1;reader.read:1:1");

  std::istringstream in(corpus);
  TraceContext ctx;
  DinReader reader(ctx, std::make_unique<OverlappedSource>(in, 20));
  bool threw = false;
  try {
    std::vector<TraceRecord> records;
    while (reader.next_batch(records, 16) != 0) {
    }
  } catch (const Error& e) {
    threw = true;
    EXPECT_EQ(e.kind(), ErrorKind::Io);
    EXPECT_NE(std::string(e.what()).find("partial final line discarded"),
              std::string::npos)
        << e.what();
  }
  fault::FaultInjector::reset();
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace tdt::trace
