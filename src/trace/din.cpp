#include "trace/din.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace tdt::trace {
namespace {

/// A din line has at most 3 fields: label, address, size.
constexpr std::size_t kMaxDinFields = 3;

/// Longest din line: label, two hex fields of at most 16 digits, two
/// separators and the newline.
constexpr std::size_t kMaxDinLine = 1 + 1 + 16 + 1 + 16 + 1;

/// Records decoded per next_batch call when draining whole traces.
constexpr std::size_t kDrainBatch = 4096;

std::vector<TraceRecord> drain(DinReader& reader) {
  std::vector<TraceRecord> records;
  while (reader.next_batch(records, kDrainBatch) != 0) {
  }
  return records;
}

}  // namespace

DinReader::DinReader(TraceContext& ctx, std::unique_ptr<ByteSource> source,
                     std::uint32_t default_size, DiagEngine* diags)
    : lines_(std::move(source), diags),
      default_size_(default_size),
      diags_(diags),
      tokenize_(simd::tokenize_fields_fn()),
      unknown_fn_(ctx.intern("?")) {}

bool DinReader::parse_line(std::string_view body, TraceRecord& rec) {
  const SourceLoc loc{lines_.line_number(), 1};
  const bool recoverable = diags_ != nullptr && !diags_->strict();
  simd::FieldSpan spans[kMaxDinFields];
  // -1 (a fourth field) and fewer than two fields are both malformed.
  const int nfields =
      tokenize_(body.data(), body.size(), spans, kMaxDinFields);
  const auto field = [&](std::size_t i) {
    return body.substr(spans[i].begin, spans[i].end - spans[i].begin);
  };

  std::string problem;
  if (nfields < 2) {
    problem = "din line needs 2 or 3 fields";
  } else if (field(0) == "0") {
    rec.kind = AccessKind::Load;
  } else if (field(0) == "1") {
    rec.kind = AccessKind::Store;
  } else if (field(0) == "2") {
    rec.kind = AccessKind::Instr;
  } else {
    problem = "bad din label '" + std::string(field(0)) + "'";
  }
  if (problem.empty() && !parse_hex_fast(field(1), rec.address)) {
    problem = "bad din address '" + std::string(field(1)) + "'";
  }
  if (problem.empty()) {
    rec.size = default_size_;
    if (nfields == 3) {
      // A record's size is 32 bits; a wider one must not wrap.
      std::uint64_t size = 0;
      if (!parse_hex_fast(field(2), size) || !legal_access_size(size)) {
        if (recoverable && diags_->repair()) {
          // Label and address parsed: salvage with the default size.
          diags_->report(DiagSeverity::Error, DiagCode::DinRepairedLine,
                         "repaired din line (bad size '" +
                             std::string(field(2)) +
                             "' replaced with default)",
                         loc);
        } else {
          problem = "bad din size '" + std::string(field(2)) + "'";
        }
      } else {
        rec.size = static_cast<std::uint32_t>(size);
      }
    }
  }
  if (!problem.empty()) {
    if (!recoverable) throw_parse_error(std::move(problem), loc);
    diags_->report(DiagSeverity::Error, DiagCode::DinBadLine, problem, loc);
    return false;  // resync at the next line
  }
  rec.function = unknown_fn_;
  return true;
}

std::size_t DinReader::next_batch(std::vector<TraceRecord>& out,
                                  std::size_t max) {
  std::size_t got = 0;
  std::string_view line;
  while (got < max && lines_.next(line)) {
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    TraceRecord rec;
    if (parse_line(body, rec)) {
      out.push_back(rec);
      ++got;
    }
  }
  if (got == 0) lines_.report_io_failure();
  return got;
}

std::vector<TraceRecord> read_din_string(TraceContext& ctx,
                                         std::string_view text,
                                         std::uint32_t default_size,
                                         DiagEngine* diags) {
  DinReader reader(ctx, std::make_unique<MemorySource>(text), default_size,
                   diags);
  return drain(reader);
}

std::vector<TraceRecord> read_din_file(TraceContext& ctx,
                                       const std::string& path,
                                       std::uint32_t default_size,
                                       DiagEngine* diags) {
  DinReader reader(ctx, open_trace_byte_source(path), default_size, diags);
  return drain(reader);
}

void DinSink::write(const TraceRecord& rec) {
  char label = '0';
  switch (rec.kind) {
    case AccessKind::Load: label = '0'; break;
    case AccessKind::Store:
    case AccessKind::Modify: label = '1'; break;
    case AccessKind::Instr: label = '2'; break;
    case AccessKind::Misc: return;  // not representable
  }
  char* p = block_.reserve(kMaxDinLine);
  *p++ = label;
  *p++ = ' ';
  p = put_hex(p, rec.address);
  *p++ = ' ';
  p = put_hex(p, rec.size);
  *p++ = '\n';
  block_.commit(p);
  ++count_;
}

void DinSink::push_batch(std::span<const TraceRecord> batch) {
  for (const TraceRecord& rec : batch) {
    write(rec);
    if (block_.full()) block_.drain_to(*out_);
  }
  check_health();
}

void DinSink::on_end() { check_health(); }

void DinSink::check_health() {
  block_.drain_to(*out_);
  check_text_stream(*out_, count_);
}

std::string write_din_string(std::span<const TraceRecord> records) {
  std::ostringstream out;
  DinSink sink(out);
  sink.push_batch(records);
  sink.on_end();
  return out.str();
}

}  // namespace tdt::trace
