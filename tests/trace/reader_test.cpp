#include "trace/reader.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace tdt::trace {
namespace {

/// Every record `reader` has left, through its one read loop.
std::vector<TraceRecord> drain(GleipnirReader& reader) {
  std::vector<TraceRecord> records;
  while (reader.next_batch(records, 64) != 0) {
  }
  return records;
}

// A fragment of the paper's Listing 2 trace, verbatim.
constexpr const char* kPaperSnippet = R"(START PID 13063
S 7ff0001b0 8 main LV 0 1 _zzq_result
L 7ff0001b0 8 main
S 000601040 4 main GV glScalar
S 7ff0001bc 4 main LV 0 1 lcScalar
S 7ff0001b8 4 main LV 0 1 i
L 7ff0001b8 4 main LV 0 1 i
S 7ff000180 4 main LS 0 1 lcArray[0]
M 7ff0001b8 4 main LV 0 1 i
S 0006010e0 8 foo GS glStructArray[0].dl
S 7ff000060 8 foo LS 1 1 lcStrcArray[0].dl
)";

TEST(Reader, ParsesPaperSnippet) {
  TraceContext ctx;
  std::uint64_t pid = 0;
  const auto records = read_trace_string(ctx, kPaperSnippet, &pid);
  EXPECT_EQ(pid, 13063u);
  ASSERT_EQ(records.size(), 10u);

  EXPECT_EQ(records[0].kind, AccessKind::Store);
  EXPECT_EQ(records[0].address, 0x7ff0001b0u);
  EXPECT_EQ(records[0].size, 8u);
  EXPECT_EQ(ctx.name(records[0].function), "main");
  EXPECT_EQ(records[0].scope, VarScope::LocalVariable);
  EXPECT_EQ(ctx.format_var(records[0].var), "_zzq_result");

  EXPECT_EQ(records[1].scope, VarScope::Unknown);

  EXPECT_EQ(records[2].scope, VarScope::GlobalVariable);
  EXPECT_EQ(ctx.format_var(records[2].var), "glScalar");

  EXPECT_EQ(records[7].kind, AccessKind::Modify);

  EXPECT_EQ(records[8].scope, VarScope::GlobalStructure);
  EXPECT_EQ(ctx.format_var(records[8].var), "glStructArray[0].dl");

  EXPECT_EQ(records[9].frame, 1u);  // foo touching main's local
  EXPECT_EQ(records[9].thread, 1u);
}

TEST(Reader, RoundTripThroughFormat) {
  TraceContext ctx;
  const auto records = read_trace_string(ctx, kPaperSnippet);
  std::istringstream in(kPaperSnippet);
  std::string line;
  std::getline(in, line);  // skip START
  for (const TraceRecord& rec : records) {
    std::getline(in, line);
    EXPECT_EQ(ctx.format_record(rec), line);
  }
}

TEST(Reader, SkipsBlankLines) {
  TraceContext ctx;
  const auto records =
      read_trace_string(ctx, "\nL 7ff000000 4 main\n\n\nL 7ff000004 4 main\n");
  EXPECT_EQ(records.size(), 2u);
}

TEST(Reader, EndMarkerAccepted) {
  TraceContext ctx;
  const auto records = read_trace_string(
      ctx, "START PID 1\nL 7ff000000 4 main\nEND PID 1\n");
  EXPECT_EQ(records.size(), 1u);
}

TEST(Reader, StreamingEventsInOrder) {
  TraceContext ctx;
  std::istringstream in("START PID 9\nL 7ff000000 4 main\nEND PID 9\n");
  GleipnirReader reader(ctx, std::make_unique<OverlappedSource>(in));
  EXPECT_FALSE(reader.saw_start());
  std::vector<TraceRecord> records;
  ASSERT_EQ(reader.next_batch(records, 1), 1u);
  EXPECT_TRUE(reader.saw_start());
  EXPECT_EQ(reader.start_pid(), 9u);
  EXPECT_EQ(records[0].address, 0x7ff000000u);
  EXPECT_EQ(reader.line_number(), 2u);
  EXPECT_EQ(reader.next_batch(records, 1), 0u);  // END, then end of input
  EXPECT_EQ(reader.line_number(), 3u);
  EXPECT_EQ(records.size(), 1u);
}

TEST(Reader, ErrorsCarryLineNumbers) {
  TraceContext ctx;
  try {
    (void)read_trace_string(ctx, "L 7ff000000 4 main\nBAD LINE HERE\n");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Parse);
    EXPECT_EQ(e.where().line, 2u);
  }
}

TEST(Reader, RejectsMalformedLines) {
  TraceContext ctx;
  // too few fields
  EXPECT_THROW((void)read_trace_string(ctx, "L 7ff000000 4\n"), Error);
  // bad kind
  EXPECT_THROW((void)read_trace_string(ctx, "Q 7ff000000 4 main\n"), Error);
  // bad address
  EXPECT_THROW((void)read_trace_string(ctx, "L zzz 4 main\n"), Error);
  // zero size
  EXPECT_THROW((void)read_trace_string(ctx, "L 7ff000000 0 main\n"), Error);
  // local scope without frame/thread
  EXPECT_THROW((void)read_trace_string(ctx, "L 7ff000000 4 main LV x\n"),
               Error);
  // bad scope
  EXPECT_THROW((void)read_trace_string(ctx, "L 7ff000000 4 main ZZ 0 1 v\n"),
               Error);
  // trailing junk
  EXPECT_THROW(
      (void)read_trace_string(ctx, "L 7ff000000 4 main GV glScalar extra\n"),
      Error);
  // malformed marker
  EXPECT_THROW((void)read_trace_string(ctx, "START 123\n"), Error);
  EXPECT_THROW((void)read_trace_string(ctx, "START PID abc\n"), Error);
}

TEST(Reader, MissingFileThrowsIo) {
  TraceContext ctx;
  try {
    (void)read_trace_file(ctx, "/nonexistent/path/trace.out");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Io);
  }
}

TEST(Reader, StringViewModeStreamsEventsInOrder) {
  TraceContext ctx;
  // No trailing newline on the final line.
  GleipnirReader reader(ctx, "START PID 9\nL 7ff000000 4 main\nEND PID 9");
  std::vector<TraceRecord> records;
  ASSERT_EQ(reader.next_batch(records, 1), 1u);
  EXPECT_EQ(reader.start_pid(), 9u);
  EXPECT_EQ(records[0].address, 0x7ff000000u);
  EXPECT_EQ(reader.next_batch(records, 1), 0u);
  EXPECT_EQ(reader.line_number(), 3u);
  EXPECT_EQ(records.size(), 1u);
}

TEST(Reader, LongLinesGrowTheBlockBuffer) {
  // A function name far longer than the read block forces the line
  // assembler to grow its buffer; the surrounding records must still
  // parse, and line numbers stay right.
  const std::string huge(2 * kIngestBlock + kIngestBlock / 2, 'f');
  const std::string corpus = "L 7ff000000 4 before\nL 7ff000004 4 " + huge +
                             "\nL 7ff000008 4 after\n";
  TraceContext ctx;
  std::istringstream in(corpus);
  GleipnirReader reader(ctx, std::make_unique<OverlappedSource>(in));
  const std::vector<TraceRecord> records = drain(reader);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(ctx.name(records[0].function), "before");
  EXPECT_EQ(ctx.name(records[1].function), huge);
  EXPECT_EQ(ctx.name(records[2].function), "after");
}

TEST(Reader, ParseRecordLineDirect) {
  TraceContext ctx;
  const auto records = read_trace_string(ctx, "M 7ff000044 4 foo LV 0 1 i");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, AccessKind::Modify);
  EXPECT_EQ(ctx.name(records[0].function), "foo");
  EXPECT_EQ(ctx.format_var(records[0].var), "i");
}

// Regression (ISSUE satellite 1): read.bytes over-counted the final line
// by one when the corpus had no trailing newline — the terminator was
// charged whether or not it existed. bytes must equal the input size for
// terminated and unterminated corpora alike, in memory and streamed.
TEST(Reader, BytesMatchInputSizeWithAndWithoutFinalNewline) {
  const std::string terminated =
      "START PID 1\nL 7ff0001b0 8 main\nEND PID 1\n";
  const std::string unterminated =
      "START PID 1\nL 7ff0001b0 8 main\nEND PID 1";

  for (const std::string& corpus : {terminated, unterminated}) {
    // Zero-copy in-memory mode.
    {
      TraceContext ctx;
      GleipnirReader reader(ctx, std::string_view(corpus));
      (void)drain(reader);
      EXPECT_EQ(reader.counters().bytes, corpus.size())
          << "memory mode, corpus size " << corpus.size();
    }
    // Streamed, with a block size that splits the final line.
    {
      std::istringstream in(corpus);
      TraceContext ctx;
      GleipnirReader reader(ctx, std::make_unique<OverlappedSource>(in, 16));
      (void)drain(reader);
      EXPECT_EQ(reader.counters().bytes, corpus.size())
          << "streamed, corpus size " << corpus.size();
    }
  }
}

// Regression (ISSUE satellite 3): CRLF terminators. The '\r' belongs to
// the terminator, not the payload, and the records must come out
// identical to the LF-terminated corpus; bytes still match the input.
TEST(Reader, CrlfCorpusParsesIdenticallyToLf) {
  const std::string lf =
      "START PID 9\n"
      "S 7ff0001b0 8 main LV 0 1 x\n"
      "L 7ff0001b0 8 main\n"
      "S 7ff000180 4 main LS 0 1 a[3]\n"
      "END PID 9\n";
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }

  TraceContext lf_ctx;
  std::uint64_t lf_pid = 0;
  const auto want = read_trace_string(lf_ctx, lf, &lf_pid);

  TraceContext ctx;
  GleipnirReader reader(ctx, std::string_view(crlf));
  const std::vector<TraceRecord> got = drain(reader);
  EXPECT_EQ(reader.start_pid(), lf_pid);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(ctx.format_record(got[i]), lf_ctx.format_record(want[i]));
  }
  EXPECT_EQ(reader.counters().bytes, crlf.size());

  // A lone '\r' at end-of-input (no '\n' after it) is payload, not a
  // terminator fragment — the line is malformed, not silently eaten.
  TraceContext cr_ctx;
  EXPECT_THROW((void)read_trace_string(cr_ctx, "L 7ff0001b0 8\r"), Error);
}

// Regression (ISSUE satellite 2): when the source dies mid-stream, the
// buffered partial tail is a torn fragment, not a final line. It must
// never surface as a record, and the T004 diagnostic says it was
// discarded.
TEST(Reader, TornTailAfterIoFailureIsSuppressed) {
  fault::FaultInjector::reset();
  // 48-byte blocks: the first read ends inside the second record line,
  // leaving a syntactically valid prefix ("S 7ff0001c0 4 main GV g")
  // buffered when the second read fails.
  const std::string corpus =
      "START PID 5\n"
      "L 7ff0001b0 8 main\n"
      "S 7ff0001c0 4 main GV glScalar\n"
      "S 7ff0001d0 4 main GV glOther\n"
      "END PID 5\n";
  fault::FaultInjector::install("seed=1;reader.read:1:1");

  std::istringstream in(corpus);
  TraceContext ctx;
  DiagEngine diags(ErrorPolicy::Skip);
  GleipnirReader reader(ctx, std::make_unique<OverlappedSource>(in, 48), &diags);
  const std::vector<TraceRecord> records = drain(reader);
  fault::FaultInjector::reset();

  // Only the complete line from the delivered block survives; the torn
  // fragment of the second record never became a record.
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(ctx.format_record(records[0]), "L 7ff0001b0 8 main");

  EXPECT_EQ(diags.count(DiagCode::TraceIoError), 1u);
  ASSERT_FALSE(diags.retained().empty());
  const Diagnostic& d = diags.retained().front();
  EXPECT_EQ(d.code, DiagCode::TraceIoError);
  EXPECT_NE(d.message.find("partial final line discarded"),
            std::string::npos)
      << d.message;
}

// Strict mode: the same torn read is fatal, and the error message still
// names the discarded fragment.
TEST(Reader, TornTailIsFatalWhenStrict) {
  fault::FaultInjector::reset();
  const std::string corpus =
      "START PID 5\n"
      "L 7ff0001b0 8 main\n"
      "S 7ff0001c0 4 main GV glScalar\n";
  fault::FaultInjector::install("seed=1;reader.read:1:1");

  std::istringstream in(corpus);
  TraceContext ctx;
  GleipnirReader reader(ctx, std::make_unique<OverlappedSource>(in, 24));
  bool threw = false;
  try {
    (void)drain(reader);
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
