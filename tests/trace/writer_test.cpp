#include "trace/writer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <ostream>

#include "trace/reader.hpp"
#include "util/error.hpp"
#include "var_ref.hpp"

namespace tdt::trace {
namespace {

TraceRecord make_record(TraceContext& ctx, AccessKind kind,
                        std::uint64_t addr, std::uint32_t size,
                        const char* func, VarScope scope = VarScope::Unknown,
                        const char* var = nullptr, std::uint16_t frame = 0) {
  TraceRecord rec;
  rec.kind = kind;
  rec.address = addr;
  rec.size = size;
  rec.function = ctx.intern(func);
  rec.scope = scope;
  rec.frame = frame;
  rec.thread = 1;
  if (var != nullptr) rec.var = var_ref(ctx, var);
  return rec;
}

TEST(Writer, EmitsMarkersAndRecords) {
  TraceContext ctx;
  std::vector<TraceRecord> records{
      make_record(ctx, AccessKind::Store, 0x7ff000100, 4, "main",
                  VarScope::LocalVariable, "i"),
      make_record(ctx, AccessKind::Load, 0x601040, 4, "main",
                  VarScope::GlobalVariable, "glScalar"),
  };
  const std::string text = write_trace_string(ctx, records, 777);
  EXPECT_EQ(text,
            "START PID 777\n"
            "S 7ff000100 4 main LV 0 1 i\n"
            "L 000601040 4 main GV glScalar\n"
            "END PID 777\n");
}

TEST(Writer, CountsRecords) {
  TraceContext ctx;
  std::ostringstream out;
  GleipnirWriter w(ctx, out);
  EXPECT_EQ(w.records_written(), 0u);
  w.write(make_record(ctx, AccessKind::Load, 0x10, 4, "f"));
  w.write(make_record(ctx, AccessKind::Load, 0x20, 4, "f"));
  EXPECT_EQ(w.records_written(), 2u);
}

// Parameterized round trip: format -> parse -> format over a spread of
// record shapes.
struct RoundTripCase {
  AccessKind kind;
  std::uint64_t addr;
  std::uint32_t size;
  VarScope scope;
  const char* var;
  std::uint16_t frame;
};

// gtest prints a parameter next to each test's name; print the record's
// shape rather than the struct's bytes, which hold the `var` pointer.
void PrintTo(const RoundTripCase& c, std::ostream* os) {
  *os << access_kind_code(c.kind) << '_' << std::hex << c.addr << std::dec
      << '_' << c.size << '_' << (c.var != nullptr ? c.var : "none") << "_f"
      << c.frame;
}

class WriterRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(WriterRoundTrip, TextSurvives) {
  const RoundTripCase& c = GetParam();
  TraceContext ctx;
  std::vector<TraceRecord> records{make_record(
      ctx, c.kind, c.addr, c.size, "fn", c.scope, c.var, c.frame)};
  const std::string text = write_trace_string(ctx, records, 1);
  TraceContext ctx2;
  const auto parsed = read_trace_string(ctx2, text);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(ctx2.format_record(parsed[0]), ctx.format_record(records[0]));
  EXPECT_EQ(parsed[0].kind, c.kind);
  EXPECT_EQ(parsed[0].address, c.addr);
  EXPECT_EQ(parsed[0].size, c.size);
  EXPECT_EQ(parsed[0].scope, c.scope);
}

const RoundTripCase kRoundTripCases[] = {
    {AccessKind::Load, 0x7ff000000, 8, VarScope::Unknown, nullptr, 0},
    {AccessKind::Store, 0x601040, 4, VarScope::GlobalVariable, "glScalar", 0},
    {AccessKind::Modify, 0x7ff000044, 4, VarScope::LocalVariable, "i", 0},
    {AccessKind::Store, 0x6010e0, 8, VarScope::GlobalStructure,
     "glStructArray[0].dl", 0},
    {AccessKind::Load, 0x7ff000060, 8, VarScope::LocalStructure,
     "lcStrcArray[4].dl", 2},
    {AccessKind::Misc, 0xdeadbeef, 1, VarScope::Unknown, nullptr, 0},
    {AccessKind::Store, 0x7ff000108, 8, VarScope::LocalStructure,
     "_zzq_args[5]", 0},
    {AccessKind::Instr, 0x400000, 4, VarScope::Unknown, nullptr, 0},
};

INSTANTIATE_TEST_SUITE_P(Shapes, WriterRoundTrip,
                         ::testing::ValuesIn(kRoundTripCases));

TEST(Writer, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tdt_writer_test.out")
          .string();
  TraceContext ctx;
  std::vector<TraceRecord> records{
      make_record(ctx, AccessKind::Store, 0x7ff000100, 4, "main",
                  VarScope::LocalStructure, "lSoA.mX[3]"),
  };
  write_trace_file(ctx, records, path, 55);
  TraceContext ctx2;
  std::uint64_t pid = 0;
  const auto parsed = read_trace_file(ctx2, path, &pid);
  EXPECT_EQ(pid, 55u);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(ctx2.format_var(parsed[0].var), "lSoA.mX[3]");
  std::remove(path.c_str());
}

TEST(Writer, UnwritablePathThrowsIo) {
  TraceContext ctx;
  try {
    write_trace_file(ctx, {}, "/nonexistent-dir/trace.out");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Io);
  }
}

}  // namespace
}  // namespace tdt::trace
