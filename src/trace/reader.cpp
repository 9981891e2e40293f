#include "trace/reader.hpp"

#include <algorithm>
#include <optional>

#include "util/error.hpp"
#include "util/simd_scan.hpp"
#include "util/string_util.hpp"

namespace tdt::trace {
namespace {

/// A record line has at most 8 fields (kind, address, size, function,
/// scope, frame, thread, variable); anything longer is malformed.
constexpr std::size_t kMaxRecordFields = 8;

/// Lines longer than this are not worth memoizing (the compare would cost
/// as much as the parse, and real record lines are far shorter).
constexpr std::size_t kMaxMemoLine = 128;

/// Records decoded per next_batch call when draining whole traces.
constexpr std::size_t kDrainBatch = 4096;

/// Fast twin of parse_uint for the hot path, built like parse_hex_fast
/// (util/string_util.hpp): short inputs (which cannot overflow) decode in
/// a tight inline loop, anything longer defers to the reference parser —
/// so the set of accepted strings and the produced values are identical
/// by construction.
bool parse_uint_fast(std::string_view s, std::uint64_t& out) noexcept {
  if (s.empty()) return false;
  if (s.size() >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    return parse_hex_fast(s.substr(2), out);
  }
  if (s.size() > 19) {  // 19 decimal digits always fit in a uint64
    const auto v = parse_uint(s);
    if (!v) return false;
    out = *v;
    return true;
  }
  std::uint64_t v = 0;
  for (const char c : s) {
    const unsigned d = static_cast<unsigned char>(c) - '0';
    if (d > 9) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

/// Drains a reader into a vector, recording the first START pid.
std::vector<TraceRecord> drain(GleipnirReader& reader, std::uint64_t* pid,
                               std::size_t reserve_hint = 0) {
  std::vector<TraceRecord> records;
  // next_batch resizes to size() + kDrainBatch before decoding, so the
  // hint must cover that headroom or the final batch reallocates (and
  // copies) the nearly complete vector.
  records.reserve(reserve_hint == 0 ? 0 : reserve_hint + kDrainBatch);
  while (reader.next_batch(records, kDrainBatch) != 0) {
  }
  if (pid != nullptr && reader.saw_start()) *pid = reader.start_pid();
  return records;
}

}  // namespace

GleipnirReader::GleipnirReader(TraceContext& ctx, std::string_view text,
                               DiagEngine* diags)
    : GleipnirReader(ctx, std::make_unique<MemorySource>(text), diags) {}

GleipnirReader::GleipnirReader(TraceContext& ctx,
                               std::unique_ptr<ByteSource> source,
                               DiagEngine* diags)
    : ctx_(&ctx),
      diags_(diags),
      lines_(std::move(source), diags),
      tokenize_(simd::tokenize_fields_fn()) {}

bool GleipnirReader::probe_line_memo(std::string_view line, TraceRecord& out) {
  // Probe the most recently hit slot first: a loop's scalar lines
  // alternate between one or two entries, so the hit is almost always
  // the first or second compare.
  for (std::uint32_t k = 0; k < 4; ++k) {
    const std::uint32_t slot = (memo_.mru_line + k) & 3;
    const ParseMemo::LineEntry& entry = memo_.lines[slot];
    if (line == entry.text && !entry.text.empty()) {
      memo_.mru_line = slot;
      out = entry.record;
      return true;
    }
  }
  return false;
}

GleipnirReader::LineFault GleipnirReader::parse_record(
    TraceContext& ctx, std::string_view line, TraceRecord& out,
    ParseMemo& memo, simd::TokenizeFieldsFn tokenize) {
  using Check = LineFault::Check;
  const auto remember = [&] {
    if (line.size() > kMaxMemoLine) return;
    ParseMemo::LineEntry& slot = memo.lines[memo.next_line];
    slot.text.assign(line);
    slot.record = out;
    memo.mru_line = memo.next_line;
    memo.next_line = (memo.next_line + 1) % 4;
  };
  simd::FieldSpan spans[kMaxRecordFields];
  const int nfields = tokenize(line.data(), line.size(), spans,
                               kMaxRecordFields);
  // -1 means more than 8 fields, the first 8 of them in `spans`. No check
  // reads past the eighth field before the field count fails the line,
  // so it fails at the check, and with the interning, of any longer line.
  const std::size_t nf = nfields < 0 ? kMaxRecordFields + 1
                                     : static_cast<std::size_t>(nfields);
  if (nf < 4) {
    return {Check::FieldCount, static_cast<std::uint8_t>(nf), {}, 0, 0};
  }
  const auto reject = [&](Check check, std::size_t field) noexcept {
    return LineFault{check, 0, {}, spans[field].begin, spans[field].end};
  };
  const auto f = [&](std::size_t i) noexcept {
    return line.substr(spans[i].begin, spans[i].end - spans[i].begin);
  };
  if (spans[0].end - spans[0].begin != 1 ||
      !parse_access_kind(line[spans[0].begin], out.kind)) {
    return reject(Check::Kind, 0);
  }
  if (!parse_hex_fast(f(1), out.address)) return reject(Check::Address, 1);
  std::uint64_t size = 0;
  if (!parse_uint_fast(f(2), size) || !legal_access_size(size)) {
    return reject(Check::Size, 2);
  }
  out.size = static_cast<std::uint32_t>(size);
  if (f(3) == memo.function) {
    out.function = memo.function_sym;
  } else {
    out.function = ctx.intern(f(3));
    memo.function.assign(f(3));
    memo.function_sym = out.function;
  }

  if (nf == 4) {
    remember();
    return {};
  }
  if (!parse_var_scope(f(4), out.scope)) return reject(Check::Scope, 4);
  std::size_t i = 5;
  if (!is_global_scope(out.scope)) {
    if (nf < 8) return reject(Check::LocalFields, 0);
    std::uint64_t frame = 0;
    std::uint64_t thread = 0;
    if (!parse_uint_fast(f(5), frame) || !parse_uint_fast(f(6), thread) ||
        frame > 0xFFFF || thread > 0xFFFF) {
      return reject(Check::FrameThread, 5);
    }
    out.frame = static_cast<std::uint16_t>(frame);
    out.thread = static_cast<std::uint16_t>(thread);
    i = 7;
  }
  if (i + 1 != nf) {
    return reject(i >= nf ? Check::MissingVar : Check::TrailingFields, 0);
  }
  const std::string_view vt = f(i);
  for (const ParseMemo::VarEntry& entry : memo.vars) {
    if (vt == entry.text && !entry.text.empty()) {
      out.var = entry.var;
      remember();
      return {};
    }
  }
  // Array-walk hit: same text through the final '[', only the index
  // digits differ. parse_uint is exactly the index parse try_parse_var
  // would run, and the prefix parses independently of what follows its
  // last '[', so the reused steps plus the fresh index are the record a
  // full parse would produce. The line itself will not repeat (the index
  // just changed), so it is not worth a line-memo slot — leaving the hot
  // scalar lines in place.
  if (!vt.empty() && vt.back() == ']') {
    const std::size_t br = vt.rfind('[');
    if (br != std::string_view::npos) {
      const std::string_view prefix = vt.substr(0, br + 1);
      for (const ParseMemo::WalkEntry& entry : memo.walks) {
        if (prefix == entry.prefix && !entry.prefix.empty()) {
          std::uint64_t idx = 0;
          if (parse_uint_fast(vt.substr(br + 1, vt.size() - br - 2), idx)) {
            out.var = entry.var;
            out.var.steps.back() = VarStep::make_index(idx);
            return {};
          }
          break;  // prefix matched but the digits are unusual: full parse
        }
      }
    }
  }
  if (const VarFault why = ctx.try_parse_var(vt, out.var); !why.ok()) {
    LineFault fault = reject(Check::Var, i);
    fault.var = why;
    return fault;
  }
  ParseMemo::VarEntry& slot = memo.vars[memo.next_var];
  slot.text.assign(vt);
  slot.var = out.var;
  memo.next_var ^= 1;
  if (!vt.empty() && vt.back() == ']') {
    const std::size_t br = vt.rfind('[');
    if (br != std::string_view::npos) {
      ParseMemo::WalkEntry& walk = memo.walks[memo.next_walk];
      walk.prefix.assign(vt.substr(0, br + 1));
      walk.var = out.var;
      memo.next_walk ^= 1;
    }
  }
  remember();
  return {};
}

[[gnu::cold, gnu::noinline]] std::string GleipnirReader::LineFault::message(
    std::string_view line) const {
  const std::string_view field = line.substr(begin, end - begin);
  std::string out;
  const auto quoted = [&](const char* what) {
    out = what;
    out += " '";
    out += field;
    out += '\'';
    return out;
  };
  switch (check) {
    case Check::None:
      break;
    case Check::FieldCount:
      out = "trace line needs at least 4 fields, got ";
      out += std::to_string(fields);
      break;
    case Check::Kind:
      return quoted("bad access kind");
    case Check::Address:
      return quoted("bad address");
    case Check::Size:
      return quoted("bad access size");
    case Check::Scope:
      return quoted("bad scope");
    case Check::LocalFields:
      out = "local-scope line needs frame, thread and variable";
      break;
    case Check::FrameThread:
      out = "bad frame/thread on trace line";
      break;
    case Check::MissingVar:
      out = "missing variable reference";
      break;
    case Check::TrailingFields:
      out = "trailing fields after variable reference";
      break;
    case Check::Var:
      return var.message(field);
  }
  return out;
}

bool GleipnirReader::consume_cold(std::string_view body,
                                  const LineFault& fault, TraceRecord& rec) {
  const SourceLoc loc{lines_.line_number(), 1};
  if (starts_with(body, "START") || starts_with(body, "END")) {
    const bool is_start = starts_with(body, "START");
    const std::vector<std::string_view> f = split_ws(body);
    const auto pid = f.size() == 3 && f[1] == "PID"
                         ? parse_uint(f[2])
                         : std::optional<std::uint64_t>{};
    if (!pid) {
      if (diags_ == nullptr || diags_->strict()) {
        throw_parse_error("malformed marker line '" + std::string(body) + "'",
                          loc);
      }
      // No useful repair for a marker: drop it and resync.
      diags_->report(DiagSeverity::Error, DiagCode::TraceBadMarker,
                     "malformed marker line '" + std::string(body) + "'",
                     loc);
    } else if (is_start && !saw_start_) {
      saw_start_ = true;
      start_pid_ = *pid;
    }
  } else {
    const std::string message = fault.message(body);
    if (diags_ == nullptr || diags_->strict()) {
      throw_parse_error(message, loc);
    }
    // Repair keeps the raw access (kind, address, size and function are
    // decoded before the scope check) and drops the symbol annotation.
    if (diags_->repair() && fault.check >= LineFault::Check::Scope &&
        is_identifier(ctx_->name(rec.function))) {
      rec.scope = VarScope::Unknown;
      rec.frame = 0;
      rec.thread = 1;
      rec.var = VarRef{};
      diags_->report(DiagSeverity::Error, DiagCode::TraceRepairedLine,
                     "repaired trace line (symbol annotation dropped): " +
                         message,
                     loc);
      ++slow_records_;
      return true;
    }
    diags_->report(DiagSeverity::Error, DiagCode::TraceBadLine, message, loc);
  }
  rec = TraceRecord{};  // the next line decodes into this slot
  return false;
}

std::size_t GleipnirReader::next_batch(std::vector<TraceRecord>& out,
                                       std::size_t max) {
  const std::size_t base = out.size();
  out.resize(base + max);
  std::size_t produced = 0;
  std::string_view raw;
  while (produced < max && lines_.next(raw)) {
    std::string_view body = raw;
    if (!body.empty() && (is_ascii_space(body.front()) ||
                          is_ascii_space(body.back()))) {
      body = trim(body);
    }
    if (body.empty()) continue;
    TraceRecord& slot = out[base + produced];
    LineFault fault;
    if (probe_line_memo(body, slot) ||
        (fault = parse_record(*ctx_, body, slot, memo_, tokenize_)).ok())
        [[likely]] {
      ++fast_records_;
      ++produced;
      continue;
    }
    if (consume_cold(body, fault, slot)) ++produced;
  }
  out.resize(base + produced);
  if (produced == 0) lines_.report_io_failure();
  return produced;
}

std::vector<TraceRecord> read_trace_string(TraceContext& ctx,
                                           std::string_view text,
                                           std::uint64_t* pid,
                                           DiagEngine* diags) {
  GleipnirReader reader(ctx, text, diags);
  // Line count bounds the record count; reserving up front keeps the
  // drain from re-moving the vector log(n) times.
  return drain(reader, pid,
               static_cast<std::size_t>(
                   std::count(text.begin(), text.end(), '\n')) +
                   1);
}

std::vector<TraceRecord> read_trace_file(TraceContext& ctx,
                                         const std::string& path,
                                         std::uint64_t* pid,
                                         DiagEngine* diags) {
  GleipnirReader reader(ctx, open_trace_byte_source(path), diags);
  return drain(reader, pid);
}

}  // namespace tdt::trace
