// Differential gate for the Gleipnir record parser. The reader decodes
// every record line with one parser; this test holds it to a
// deliberately naive reference: the three parsers the reader used to
// run — a throwing line parser over split_ws, a salvage parser for
// --on-error=repair and a throwing variable-path parser — behind that
// reader's line loop. Both sides read the same text under strict, skip
// and repair and must agree on:
//   - the records (format_record plus scope, frame and thread);
//   - every diagnostic, in order (code, severity, message and line);
//   - the text and line of the error that ends a read;
//   - read.fast_parses and read.slow_parses;
//   - the string pool, name by name in id order (symbol ids reach the
//     bytes of a TDTB --xform-out).
// The inputs are a fixed corpus with a line for every message the
// reader can emit, and random lines: mutated valid records plus the
// tokenizer fuzzer's alphabet.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/reader.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace tdt::trace {
namespace {

// --- the reference ---------------------------------------------------------

VarRef ref_parse_var(TraceContext& ctx, std::string_view text) {
  VarRef ref;
  std::size_t i = 0;
  if (i >= text.size() || !is_ident_start(text[i])) {
    throw_parse_error("variable reference must start with an identifier: '" +
                      std::string(text) + "'");
  }
  std::size_t start = i;
  while (i < text.size() && is_ident_char(text[i])) ++i;
  ref.base = ctx.intern(text.substr(start, i - start));
  while (i < text.size()) {
    if (text[i] == '.') {
      ++i;
      start = i;
      if (i >= text.size() || !is_ident_start(text[i])) {
        throw_parse_error("expected field after '.' in '" + std::string(text) +
                          "'");
      }
      while (i < text.size() && is_ident_char(text[i])) ++i;
      ref.steps.push_back(
          VarStep::make_field(ctx.intern(text.substr(start, i - start))));
    } else if (text[i] == '[') {
      ++i;
      start = i;
      while (i < text.size() && text[i] != ']') ++i;
      if (i >= text.size()) {
        throw_parse_error("unterminated '[' in '" + std::string(text) + "'");
      }
      auto idx = parse_uint(text.substr(start, i - start));
      if (!idx) {
        throw_parse_error("bad index in '" + std::string(text) + "'");
      }
      ref.steps.push_back(VarStep::make_index(*idx));
      ++i;
    } else {
      throw_parse_error("unexpected '" + std::string(1, text[i]) + "' in '" +
                        std::string(text) + "'");
    }
  }
  return ref;
}

TraceRecord ref_parse_record_line(TraceContext& ctx, std::string_view line,
                                  std::uint32_t line_number) {
  const SourceLoc loc{line_number, 1};
  const std::vector<std::string_view> f = split_ws(line);
  if (f.size() < 4) {
    throw_parse_error("trace line needs at least 4 fields, got " +
                          std::to_string(f.size()),
                      loc);
  }
  TraceRecord rec;
  if (f[0].size() != 1 || !parse_access_kind(f[0][0], rec.kind)) {
    throw_parse_error("bad access kind '" + std::string(f[0]) + "'", loc);
  }
  auto addr = parse_hex(f[1]);
  if (!addr) {
    throw_parse_error("bad address '" + std::string(f[1]) + "'", loc);
  }
  rec.address = *addr;
  auto size = parse_uint(f[2]);
  if (!size || *size == 0 || *size > 0xFFFFFFFFull) {
    throw_parse_error("bad access size '" + std::string(f[2]) + "'", loc);
  }
  rec.size = static_cast<std::uint32_t>(*size);
  rec.function = ctx.intern(f[3]);

  if (f.size() == 4) {
    return rec;  // no symbol info
  }
  if (!parse_var_scope(f[4], rec.scope)) {
    throw_parse_error("bad scope '" + std::string(f[4]) + "'", loc);
  }
  std::size_t i = 5;
  if (!is_global_scope(rec.scope)) {
    if (f.size() < 8) {
      throw_parse_error("local-scope line needs frame, thread and variable",
                        loc);
    }
    auto frame = parse_uint(f[5]);
    auto thread = parse_uint(f[6]);
    if (!frame || !thread || *frame > 0xFFFF || *thread > 0xFFFF) {
      throw_parse_error("bad frame/thread on trace line", loc);
    }
    rec.frame = static_cast<std::uint16_t>(*frame);
    rec.thread = static_cast<std::uint16_t>(*thread);
    i = 7;
  }
  if (i >= f.size()) {
    throw_parse_error("missing variable reference", loc);
  }
  if (i + 1 != f.size()) {
    throw_parse_error("trailing fields after variable reference", loc);
  }
  try {
    rec.var = ref_parse_var(ctx, f[i]);
  } catch (const Error& e) {
    // The reader names the line of a malformed variable reference too.
    throw_parse_error(e.message(), loc);
  }
  return rec;
}

std::optional<TraceRecord> ref_salvage_record_line(TraceContext& ctx,
                                                   std::string_view line) {
  const std::vector<std::string_view> f = split_ws(line);
  if (f.size() < 4) return std::nullopt;
  TraceRecord rec;
  if (f[0].size() != 1 || !parse_access_kind(f[0][0], rec.kind)) {
    return std::nullopt;
  }
  const auto addr = parse_hex(f[1]);
  if (!addr) return std::nullopt;
  rec.address = *addr;
  const auto size = parse_uint(f[2]);
  if (!size || *size == 0 || *size > 0xFFFFFFFFull) return std::nullopt;
  rec.size = static_cast<std::uint32_t>(*size);
  if (!is_identifier(f[3])) return std::nullopt;
  rec.function = ctx.intern(f[3]);
  return rec;
}

/// Everything a read produced that a caller can observe.
struct Outcome {
  std::vector<std::string> records;
  std::string diagnostics;  ///< every diagnostic as echoed, in order
  std::string error;        ///< what() of the error that ended the read
  std::uint32_t error_line = 0;
  std::uint64_t fast_parses = 0;
  std::uint64_t slow_parses = 0;
  std::vector<std::string> pool;  ///< every interned name, in id order
};

std::string describe(const TraceContext& ctx, const TraceRecord& rec) {
  return ctx.format_record(rec) + " | scope " +
         std::to_string(static_cast<int>(rec.scope)) + " frame " +
         std::to_string(rec.frame) + " thread " + std::to_string(rec.thread);
}

void take_pool(Outcome& out, const TraceContext& ctx) {
  for (std::size_t id = 0; id < ctx.pool().size(); ++id) {
    out.pool.emplace_back(
        ctx.name(Symbol(static_cast<std::uint32_t>(id))));
  }
}

/// The reader's line loop as it was with three parsers: a fast parser,
/// then markers, then parse_record_line, whose error drives the policy.
/// The fast parser accepted exactly the lines parse_record_line accepted,
/// with the same record and the same interning, so here every record
/// line goes to parse_record_line and a line it accepts counts as a fast
/// parse; a salvaged line counts as a slow one.
Outcome reference_read(std::string_view text, ErrorPolicy policy,
                       std::uint64_t max_errors) {
  TraceContext ctx;
  DiagEngine diags(policy, max_errors);
  std::ostringstream echo;
  diags.set_echo(&echo);
  Outcome out;
  std::uint32_t line_number = 0;
  try {
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t nl = text.find('\n', pos);
      const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
      const std::string_view body = trim(text.substr(pos, end - pos));
      pos = end + 1;
      ++line_number;
      if (body.empty()) continue;
      const SourceLoc loc{line_number, 1};
      if (starts_with(body, "START") || starts_with(body, "END")) {
        const std::vector<std::string_view> f = split_ws(body);
        const auto pid = f.size() == 3 && f[1] == "PID"
                             ? parse_uint(f[2])
                             : std::optional<std::uint64_t>{};
        if (!pid) {
          const std::string message =
              "malformed marker line '" + std::string(body) + "'";
          if (diags.strict()) throw_parse_error(message, loc);
          diags.report(DiagSeverity::Error, DiagCode::TraceBadMarker, message,
                       loc);
        }
        continue;
      }
      if (diags.strict()) {
        out.records.push_back(
            describe(ctx, ref_parse_record_line(ctx, body, line_number)));
        ++out.fast_parses;
        continue;
      }
      try {
        const TraceRecord rec = ref_parse_record_line(ctx, body, line_number);
        out.records.push_back(describe(ctx, rec));
        ++out.fast_parses;
      } catch (const Error& e) {
        if (diags.repair()) {
          if (auto salvaged = ref_salvage_record_line(ctx, body)) {
            diags.report(DiagSeverity::Error, DiagCode::TraceRepairedLine,
                         "repaired trace line (symbol annotation dropped): " +
                             e.message(),
                         loc);
            out.records.push_back(describe(ctx, *salvaged));
            ++out.slow_parses;
            continue;
          }
        }
        diags.report(DiagSeverity::Error, DiagCode::TraceBadLine, e.message(),
                     loc);
      }
    }
  } catch (const Error& e) {
    out.error = e.what();
    out.error_line = e.where().line;
  }
  out.diagnostics = echo.str();
  take_pool(out, ctx);
  return out;
}

/// The reader under test, one record per next_batch call so that the
/// records decoded before an error are all handed out.
Outcome reader_read(std::string_view text, ErrorPolicy policy,
                    std::uint64_t max_errors) {
  TraceContext ctx;
  DiagEngine diags(policy, max_errors);
  std::ostringstream echo;
  diags.set_echo(&echo);
  Outcome out;
  GleipnirReader reader(ctx, text, &diags);
  std::vector<TraceRecord> batch;
  try {
    while (reader.next_batch(batch, 1) != 0) {
      out.records.push_back(describe(ctx, batch.back()));
      batch.clear();
    }
  } catch (const Error& e) {
    out.error = e.what();
    out.error_line = e.where().line;
  }
  out.diagnostics = echo.str();
  out.fast_parses = reader.counters().fast_records;
  out.slow_parses = reader.counters().slow_records;
  take_pool(out, ctx);
  return out;
}

/// The bulk entry point, for a read that does not end in an error.
Outcome string_read(std::string_view text, ErrorPolicy policy) {
  TraceContext ctx;
  DiagEngine diags(policy, 0);
  std::ostringstream echo;
  diags.set_echo(&echo);
  Outcome out;
  for (const TraceRecord& rec : read_trace_string(ctx, text, nullptr, &diags)) {
    out.records.push_back(describe(ctx, rec));
  }
  out.diagnostics = echo.str();
  take_pool(out, ctx);
  return out;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// First difference between two lists, or "".
std::string first_difference(const char* what,
                             const std::vector<std::string>& want,
                             const std::vector<std::string>& got) {
  for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (want[i] != got[i]) {
      return std::string(what) + " " + std::to_string(i) + ": want [" +
             want[i] + "] got [" + got[i] + "]";
    }
  }
  if (want.size() != got.size()) {
    return std::string(what) + ": want " + std::to_string(want.size()) +
           " got " + std::to_string(got.size());
  }
  return "";
}

/// First difference between two outcomes, or "". `counts` compares the
/// fast/slow parse counts (string_read has none).
std::string compare(const Outcome& want, const Outcome& got, bool counts) {
  std::string d = first_difference("record", want.records, got.records);
  if (d.empty()) {
    d = first_difference("diagnostic", lines_of(want.diagnostics),
                         lines_of(got.diagnostics));
  }
  if (d.empty() && want.error != got.error) {
    d = "error: want [" + want.error + "] got [" + got.error + "]";
  }
  if (d.empty() && want.error_line != got.error_line) {
    d = "error line: want " + std::to_string(want.error_line) + " got " +
        std::to_string(got.error_line);
  }
  if (d.empty() && counts &&
      (want.fast_parses != got.fast_parses ||
       want.slow_parses != got.slow_parses)) {
    d = "fast/slow parses: want " + std::to_string(want.fast_parses) + "/" +
        std::to_string(want.slow_parses) + " got " +
        std::to_string(got.fast_parses) + "/" +
        std::to_string(got.slow_parses);
  }
  if (d.empty()) d = first_difference("pool name", want.pool, got.pool);
  return d;
}

constexpr ErrorPolicy kPolicies[] = {ErrorPolicy::Strict, ErrorPolicy::Skip,
                                     ErrorPolicy::Repair};

/// Reads `text` both ways under `policy` and returns the reference's
/// outcome; every difference fails the test under `label`.
Outcome expect_same(const std::string& text, ErrorPolicy policy,
                    std::uint64_t max_errors, const std::string& label) {
  const Outcome want = reference_read(text, policy, max_errors);
  EXPECT_EQ(compare(want, reader_read(text, policy, max_errors), true), "")
      << label << " under " << to_string(policy);
  if (want.error.empty()) {
    EXPECT_EQ(compare(want, string_read(text, policy), false), "")
        << label << " under " << to_string(policy) << " (read_trace_string)";
  }
  return want;
}

// --- the fixed corpus --------------------------------------------------------

/// One line for every message the reader can emit, the traps around
/// them, and the record shapes that decode.
const std::vector<std::string>& fixed_corpus() {
  static const std::vector<std::string> lines = {
      // Markers, good and malformed.
      "START PID 77",
      "START 123",
      "START PID abc",
      "START PID 1 2",
      "END",
      "ENDING PID 3",
      "STARTLE PID 4",
      // Records that decode.
      "L 7ff0001b0 8 main",
      "S 000601040 4 main GV glScalar",
      "S 0006010e0 8 foo GS glStructArray[0].dl",
      "S 7ff0001bc 4 main LV 0 1 lcScalar",
      "M 7ff000060 8 foo LS 1 2 lcStrcArray[0xa].dl",
      "I 400000 4 _start",
      "X 7ff000000 1 main LS 65535 65535 a[0X1F].b[18446744073709551615]",
      "S 7ff000180 4 main LS 0 1 lSoA.mX[0]",
      "S 7ff000184 4 main LS 0 1 lSoA.mX[1]",
      "S 7ff000188 4 main LS 0 1 lSoA.mX[0x2]",
      "S 7ff000188 4 main LS 0 1 lSoA.mX[]",
      "S 7ff000180 4 main LS 0 1 lSoA.mX[0]",
      "L 7ff0001b0 0x8 main",
      "L 7ff0001b0 0X10 main",
      "L 7ff0001b0 000000000000000000000008 main",
      "L 000000000000000007ff0001b0 8 main",
      "L 7ff0001b0 8 main LV 00000000000000000000001 0x1 i",
      "  L 7ff0001b4\t4 main\x0b",
      "L 7ff0001b8 4 main\r",
      // Field count.
      "L",
      "L 7ff000000",
      "L 7ff000000 4",
      // Kind, address, size.
      "Q 7ff000000 4 main",
      "LL 7ff000000 4 main",
      "L zzz 4 main",
      "L 0x7ff000000 4 main",
      "L 7ff000000000000000 4 main",
      "L 7ff000000 0 main",
      "L 7ff000000 4294967296 main",
      "L 7ff000000 4294967295 main",
      "L 7ff000000 99999999999999999999 main",
      "L 7ff000000 0x main",
      "L 7ff000000 -4 main",
      // Scope.
      "L 7ff000000 4 main ZZ 0 1 v",
      "L 7ff000000 4 ma-in ZZ 0 1 v",
      // Local scope without frame, thread and variable.
      "L 7ff000000 4 main LV x",
      "L 7ff000000 4 main LS 0 1",
      // Frame and thread.
      "L 7ff000000 4 main LV 65536 1 v",
      "L 7ff000000 4 main LV 0 zz v",
      "L 7ff000000 4 main LV 0x 1 v",
      "L 7ff000000 4 main LV 0 18446744073709551616 v",
      // Missing variable; trailing fields.
      "L 7ff000000 4 main GV",
      "L 7ff000000 4 main GV glScalar extra",
      "L 7ff000000 4 main LV 0 1 v extra",
      // More than 8 fields: the function is interned before the line
      // fails, at whichever check comes first.
      "L 7ff000000 4 ninefields LV 0 1 v a b",
      "L 7ff000000 4 ninefields2 GV v a b c d e f",
      "L 7ff000000 4 ninefields3 ZZ 0 1 v a b",
      "L 7ff000000 4 ninefields4 LV zz 1 v a b",
      "L 7ff000000 0 ninefields5 LV 0 1 v a b",
      "Q 7ff000000 4 ninefields6 LV 0 1 v a b",
      "L 7ff000000 4 nine-fields7 LV 0 1 v a b",
      // Variable references.
      "L 7ff000000 4 main GV 1bad",
      "L 7ff000000 4 main GV a..b",
      "L 7ff000000 4 main GV a.",
      "L 7ff000000 4 main GV a[x]",
      "L 7ff000000 4 main GV a[3",
      "L 7ff000000 4 main GV a!",
      "L 7ff000000 4 main GV a[18446744073709551616]",
      "L 7ff000000 4 main LV 3 7 lSoA.mY[4]]",
      "L 7ff000000 4 main LS 3 7 lSoA.mX[1]]",
      "L 7ff000000 4 main LS 3 7 brandNew.field.x[",
      "L 7ff000000 4 ma-in LV 3 7 v]]",
      "L 7ff000000 4 main GS [0]",
      "",
      "   ",
      "END PID 77",
  };
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

TEST(TextParseDiff, FixedCorpusUnderEveryPolicy) {
  const std::string text = join_lines(fixed_corpus());
  for (const ErrorPolicy policy : {ErrorPolicy::Skip, ErrorPolicy::Repair}) {
    const Outcome want = expect_same(text, policy, 0, "fixed corpus");
    EXPECT_TRUE(want.error.empty()) << want.error;
    // The corpus reaches every message the reader can emit.
    for (const char* message :
         {"malformed marker line", "needs at least 4 fields, got 1",
          "needs at least 4 fields, got 2", "needs at least 4 fields, got 3",
          "bad access kind", "bad address", "bad access size", "bad scope",
          "local-scope line needs frame, thread and variable",
          "bad frame/thread on trace line", "missing variable reference",
          "trailing fields after variable reference",
          "variable reference must start with an identifier",
          "expected field after '.'", "unterminated '['", "bad index in",
          "unexpected '!'"}) {
      EXPECT_NE(want.diagnostics.find(message), std::string::npos)
          << message << " under " << to_string(policy);
    }
    if (policy == ErrorPolicy::Repair) {
      EXPECT_GT(want.slow_parses, 10u);
    }
  }
  // Strict stops at the first bad line.
  expect_same(text, ErrorPolicy::Strict, 0, "fixed corpus");
  // The error cap ends a recovering read at the same line.
  for (const ErrorPolicy policy : {ErrorPolicy::Skip, ErrorPolicy::Repair}) {
    const Outcome want = expect_same(text, policy, 5, "fixed corpus, cap 5");
    EXPECT_NE(want.error.find("too many errors"), std::string::npos);
  }
}

TEST(TextParseDiff, FixedCorpusLineByLine) {
  // Each line on its own, after a warm-up record that fills the memos,
  // and twice, so an accepted line also replays from them.
  for (const std::string& line : fixed_corpus()) {
    const std::string text = "START PID 1\nS 7ff000180 4 main LS 0 1 lSoA.mX[0]\n" +
                             line + "\n" + line + "\n";
    for (const ErrorPolicy policy : kPolicies) {
      expect_same(text, policy, 0, "[" + line + "]");
    }
  }
}

TEST(TextParseDiff, CrlfAndUnterminatedInputs) {
  std::string crlf;
  for (const std::string& line : fixed_corpus()) crlf += line + "\r\n";
  for (const ErrorPolicy policy : kPolicies) {
    expect_same(crlf, policy, 0, "CRLF corpus");
    expect_same("L 7ff0001b0 8 main\nL 7ff0001b0 8\r", policy, 0,
                "lone CR at end of input");
    expect_same("S 7ff000180 4 main LS 0 1 lSoA.mX[3]]", policy, 0,
                "unterminated final line");
  }
}

TEST(TextParseDiff, MixedCorpusRecords) {
  // Every record shape: global/local scalar and structure scopes, records
  // without symbol info, selector chains, hex indices, markers and blank
  // lines.
  const std::string corpus =
      "START PID 77\n"
      "\n"
      "L 7ff0001b0 8 main\n"
      "S 000601040 4 main GV glScalar\n"
      "S 0006010e0 8 foo GS glStructArray[0].dl\n"
      "S 7ff0001bc 4 main LV 0 1 lcScalar\n"
      "M 7ff000060 8 foo LS 1 2 lcStrcArray[0xa].dl\n"
      "\n"
      "L 7ff000180 4 main LS 0 1 lcArray[0]\n"
      "END PID 77\n";
  for (const ErrorPolicy policy : kPolicies) {
    const Outcome want = expect_same(corpus, policy, 0, "mixed corpus");
    EXPECT_EQ(want.records.size(), 6u);
    EXPECT_EQ(want.fast_parses, 6u);
    EXPECT_TRUE(want.diagnostics.empty());
  }
}

TEST(TextParseDiff, SkipDiagnostics) {
  const std::string corpus =
      "L 7ff000000 4 main\n"
      "BAD LINE HERE EXTRA JUNK FIELDS\n"
      "L zzz 4 main\n"
      "L 7ff000004 4 main GV glScalar trailing junk\n"
      "L 7ff000008 4 main\n";
  const Outcome want = expect_same(corpus, ErrorPolicy::Skip, 0, "skip corpus");
  EXPECT_EQ(want.records.size(), 2u);
  EXPECT_EQ(lines_of(want.diagnostics).size(), 3u);
  for (const std::string& line : lines_of(want.diagnostics)) {
    EXPECT_NE(line.find("T001"), std::string::npos) << line;
  }
}

TEST(TextParseDiff, RepairSalvage) {
  const std::string corpus =
      "L 7ff000000 4 main LV 0 1 lGood\n"
      "L 7ff000004 4 main LV zz 1 lBroken\n";
  const Outcome want =
      expect_same(corpus, ErrorPolicy::Repair, 0, "repair corpus");
  ASSERT_EQ(want.records.size(), 2u);
  EXPECT_EQ(want.slow_parses, 1u);
  ASSERT_EQ(lines_of(want.diagnostics).size(), 1u);
  EXPECT_NE(want.diagnostics.find("T003"), std::string::npos);
}

// --- random lines ------------------------------------------------------------

constexpr char kWs[] = {' ', '\t', '\r', '\n', '\x0b', '\x0c'};
constexpr char kField[] = "abcXYZ019_.[]";

/// The tokenizer fuzzer's lines: random fields over its alphabet.
std::string alphabet_line(Xoshiro256& rng) {
  std::string line;
  const std::size_t fields = rng.next_below(10);
  if (rng.next_below(2) != 0) {
    for (std::size_t k = rng.next_below(4) + 1; k > 0; --k)
      line += kWs[rng.next_below(sizeof kWs)];
  }
  for (std::size_t f = 0; f < fields; ++f) {
    if (f == 0 && rng.next_below(2) != 0) {
      line += "LSMIXQ"[rng.next_below(6)];  // often a kind, to get further
    } else {
      for (std::size_t k = rng.next_below(12) + 1; k > 0; --k)
        line += kField[rng.next_below(sizeof kField - 1)];
    }
    if (f + 1 < fields || rng.next_below(2) != 0) {
      for (std::size_t k = rng.next_below(4) + 1; k > 0; --k)
        line += kWs[rng.next_below(sizeof kWs)];
    }
  }
  return line;
}

template <std::size_t N>
const char* pick(Xoshiro256& rng, const char* const (&options)[N]) {
  return options[rng.next_below(N)];
}

std::string valid_line(Xoshiro256& rng) {
  static constexpr const char* kKinds[] = {"L", "S", "M", "I", "X"};
  static constexpr const char* kFunctions[] = {"main", "foo", "_start",
                                               "fn_1", "kernel"};
  static constexpr const char* kVars[] = {
      "lI", "glScalar", "lSoA.mX[3]", "glStructArray[0].dl", "x[0x1f]",
      "a.b.c", "lAoS[7].mY", "lSoA.mY[12]", "grid[1][2]"};
  std::string line = pick(rng, kKinds);
  line += ' ' + to_hex(0x7ff000000 + rng.next_below(1 << 16), 9);
  line += ' ' + std::to_string(1u << rng.next_below(4));
  line += ' ';
  line += pick(rng, kFunctions);
  switch (rng.next_below(5)) {
    case 0:
      return line;
    case 1:
      return line + " GV " + pick(rng, kVars);
    case 2:
      return line + " GS " + pick(rng, kVars);
    default:
      return line + (rng.next_below(2) != 0 ? " LV " : " LS ") +
             std::to_string(rng.next_below(4)) + ' ' +
             std::to_string(1 + rng.next_below(2)) + ' ' + pick(rng, kVars);
  }
}

/// Field values that sit on a parser check's edge.
constexpr const char* kTraps[] = {
    "0", "4294967296", "4294967295", "0x10", "0X4", "000000000000000000000004",
    "99999999999999999999", "18446744073709551616", "65536", "65535", "0x",
    "zz", "]]", "lSoA.mX[18446744073709551616]", "a[0x1f]", "a[]", "a.", "a..b",
    "1a", "ma-in", "START", "END", "PID", "GV", "LS", "LV", "GS", "lSoA.mX[",
    "-1", "a!b", "x[1]]", "nine"};

std::string mutate(Xoshiro256& rng, std::string line) {
  static constexpr char kChars[] = "abcXYZ019_.[]!-x ]";
  const std::size_t edits = rng.next_below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    std::vector<std::string> fields;
    for (const std::string_view f : split_ws(line)) fields.emplace_back(f);
    const std::size_t pos = line.empty() ? 0 : rng.next_below(line.size());
    switch (rng.next_below(9)) {
      case 0:  // replace a character
        if (!line.empty()) line[pos] = kChars[rng.next_below(sizeof kChars - 1)];
        continue;
      case 1:  // insert a character
        line.insert(pos, 1, kChars[rng.next_below(sizeof kChars - 1)]);
        continue;
      case 2:  // delete a character
        if (!line.empty()) line.erase(pos, 1);
        continue;
      case 3:  // every variable ends in "]]"
        line += "]]";
        continue;
      case 4:  // drop a field
        if (!fields.empty()) {
          fields.erase(fields.begin() +
                       static_cast<std::ptrdiff_t>(rng.next_below(fields.size())));
        }
        break;
      case 5:  // extra fields, sometimes past eight
        for (std::size_t k = rng.next_below(4) + 1; k > 0; --k) {
          fields.emplace_back(pick(rng, kTraps));
        }
        break;
      case 6:  // a field becomes a trap value
        if (!fields.empty()) {
          fields[rng.next_below(fields.size())] = pick(rng, kTraps);
        }
        break;
      case 7:  // duplicate a field
        if (!fields.empty()) {
          const std::size_t k = rng.next_below(fields.size());
          fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(k),
                        fields[k]);
        }
        break;
      default:  // swap two fields
        if (fields.size() >= 2) {
          std::swap(fields[rng.next_below(fields.size())],
                    fields[rng.next_below(fields.size())]);
        }
        break;
    }
    line.clear();
    for (std::size_t k = 0; k < fields.size(); ++k) {
      if (k != 0) line += ' ';
      line += fields[k];
    }
  }
  return line;
}

/// A random line: mostly mutated records, with array walks, replays of
/// earlier lines (the memos), markers, blank lines and alphabet noise.
std::string random_line(Xoshiro256& rng, std::vector<std::string>& history,
                        std::uint64_t& walk) {
  std::string line;
  switch (rng.next_below(12)) {
    case 0:
      line = alphabet_line(rng);
      break;
    case 1:
      if (!history.empty()) {
        line = history[rng.next_below(history.size())];
        break;
      }
      [[fallthrough]];
    case 2: {
      static constexpr const char* kIndices[] = {"", "0x1f", "1a", "07",
                                                 "18446744073709551616"};
      const std::string index = rng.next_below(6) != 0
                                    ? std::to_string(walk++)
                                    : pick(rng, kIndices);
      line = std::string("S 7ff000180 4 main LS 0 1 lSoA.m") +
             (rng.next_below(2) != 0 ? "X[" : "Y[") + index + "]";
      break;
    }
    case 3: {
      static constexpr const char* kMarkers[] = {
          "START PID 9", "END PID 9", "START PID", "END PID x", "START 1 2 3",
          "ENDX"};
      line = pick(rng, kMarkers);
      break;
    }
    case 4:
      line = rng.next_below(2) != 0 ? "" : " \t";
      break;
    case 5:
    case 6:
      line = valid_line(rng);
      break;
    default:
      line = mutate(rng, valid_line(rng));
      break;
  }
  if (rng.next_below(8) == 0) line += '\r';
  if (rng.next_below(10) == 0) line.insert(0, " ");
  history.push_back(line);
  return line;
}

TEST(TextParseDiff, RandomLinesUnderSkipAndRepair) {
  for (const ErrorPolicy policy : {ErrorPolicy::Skip, ErrorPolicy::Repair}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Xoshiro256 rng(seed * 7919 + static_cast<std::uint64_t>(policy));
      std::vector<std::string> history;
      std::uint64_t walk = 0;
      std::string text;
      for (int i = 0; i < 1000; ++i) {
        text += random_line(rng, history, walk) + "\n";
      }
      const Outcome want = expect_same(
          text, policy, 0, "random corpus, seed " + std::to_string(seed));
      // Both kinds of line occur often enough to mean something.
      EXPECT_GT(want.records.size(), 300u);
      EXPECT_GT(lines_of(want.diagnostics).size(), 150u);
    }
  }
}

TEST(TextParseDiff, RandomLinesUnderStrict) {
  Xoshiro256 rng(424242);
  std::vector<std::string> history;
  std::uint64_t walk = 0;
  int failed = 0;
  for (int i = 0; i < 2500; ++i) {
    const std::string line = random_line(rng, history, walk);
    const std::string text = "START PID 1\nS 7ff000180 4 main LS 0 1 lSoA.mX[0]\n" +
                             line + "\n" + line + "\n";
    const Outcome want = expect_same(text, ErrorPolicy::Strict, 0,
                                     "[" + line + "]");
    if (!want.error.empty()) ++failed;
  }
  EXPECT_GT(failed, 500);
  EXPECT_LT(failed, 2400);
}

}  // namespace
}  // namespace tdt::trace
