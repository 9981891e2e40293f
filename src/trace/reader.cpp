#include "trace/reader.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"
#include "util/simd_scan.hpp"
#include "util/string_util.hpp"

namespace tdt::trace {
namespace {

/// A record line has at most 8 fields (kind, address, size, function,
/// scope, frame, thread, variable); anything longer is malformed and goes
/// through the slow path for its diagnostic.
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

TraceRecord GleipnirReader::parse_record_line(TraceContext& ctx,
                                              std::string_view line,
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
  rec.var = ctx.parse_var(f[i]);
  return rec;
}

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

bool GleipnirReader::parse_record_fast(TraceContext& ctx,
                                       std::string_view line,
                                       TraceRecord& out) {
  return parse_record_fast_impl(ctx, line, out, nullptr,
                                simd::tokenize_fields_fn());
}

bool GleipnirReader::parse_record_fast_impl(TraceContext& ctx,
                                            std::string_view line,
                                            TraceRecord& out,
                                            ParseMemo* memo,
                                            simd::TokenizeFieldsFn tokenize) {
  // Mirrors parse_record_line check for check (and in the same order, so
  // string-pool interning is identical whichever path runs): a line is
  // accepted here exactly when the slow path accepts it, and produces the
  // same record. Anything unusual returns false and is re-parsed slowly.
  const auto remember = [&](const TraceRecord& done) {
    if (memo == nullptr || line.size() > kMaxMemoLine) return;
    ParseMemo::LineEntry& slot = memo->lines[memo->next_line];
    slot.text.assign(line);
    slot.record = done;
    memo->mru_line = memo->next_line;
    memo->next_line = (memo->next_line + 1) % 4;
  };
  simd::FieldSpan spans[kMaxRecordFields];
  const int nfields = tokenize(line.data(), line.size(), spans,
                               kMaxRecordFields);
  if (nfields < 4) return false;  // -1 = too many fields; both go slow
  const std::size_t nf = static_cast<std::size_t>(nfields);
  const auto f = [&](std::size_t i) noexcept {
    return line.substr(spans[i].begin, spans[i].end - spans[i].begin);
  };
  TraceRecord rec;
  if (spans[0].end - spans[0].begin != 1 ||
      !parse_access_kind(line[spans[0].begin], rec.kind)) {
    return false;
  }
  if (!parse_hex_fast(f(1), rec.address)) return false;
  std::uint64_t size = 0;
  if (!parse_uint_fast(f(2), size) || size == 0 || size > 0xFFFFFFFFull) {
    return false;
  }
  rec.size = static_cast<std::uint32_t>(size);
  if (memo != nullptr && f(3) == memo->function) {
    rec.function = memo->function_sym;
  } else {
    rec.function = ctx.intern(f(3));
    if (memo != nullptr) {
      memo->function.assign(f(3));
      memo->function_sym = rec.function;
    }
  }

  if (nf == 4) {
    remember(rec);
    out = std::move(rec);
    return true;
  }
  if (!parse_var_scope(f(4), rec.scope)) return false;
  std::size_t i = 5;
  if (!is_global_scope(rec.scope)) {
    if (nf < 8) return false;
    std::uint64_t frame = 0;
    std::uint64_t thread = 0;
    if (!parse_uint_fast(f(5), frame) || !parse_uint_fast(f(6), thread) ||
        frame > 0xFFFF || thread > 0xFFFF) {
      return false;
    }
    rec.frame = static_cast<std::uint16_t>(frame);
    rec.thread = static_cast<std::uint16_t>(thread);
    i = 7;
  }
  if (i + 1 != nf) return false;
  const std::string_view vt = f(i);
  if (memo != nullptr) {
    for (const ParseMemo::VarEntry& entry : memo->vars) {
      if (vt == entry.text && !entry.text.empty()) {
        rec.var = entry.var;
        remember(rec);
        out = std::move(rec);
        return true;
      }
    }
    // Array-walk hit: same text through the final '[', only the index
    // digits differ. parse_uint is exactly the index parse
    // try_parse_var would run, and the prefix parses independently of
    // what follows its last '[', so the reused steps plus the fresh
    // index are the record a full parse would produce. The line itself
    // will not repeat (the index just changed), so it is not worth a
    // line-memo slot — leaving the hot scalar lines in place.
    if (!vt.empty() && vt.back() == ']') {
      const std::size_t br = vt.rfind('[');
      if (br != std::string_view::npos) {
        const std::string_view prefix = vt.substr(0, br + 1);
        for (const ParseMemo::WalkEntry& entry : memo->walks) {
          if (prefix == entry.prefix && !entry.prefix.empty()) {
            std::uint64_t idx = 0;
            if (parse_uint_fast(vt.substr(br + 1, vt.size() - br - 2), idx)) {
              rec.var = entry.var;
              rec.var.steps.back() = VarStep::make_index(idx);
              out = std::move(rec);
              return true;
            }
            break;  // prefix matched but the digits are unusual: full parse
          }
        }
      }
    }
  }
  if (!ctx.try_parse_var(vt, rec.var)) return false;
  if (memo != nullptr) {
    ParseMemo::VarEntry& slot = memo->vars[memo->next_var];
    slot.text.assign(vt);
    slot.var = rec.var;
    memo->next_var ^= 1;
    if (!vt.empty() && vt.back() == ']') {
      const std::size_t br = vt.rfind('[');
      if (br != std::string_view::npos) {
        ParseMemo::WalkEntry& walk = memo->walks[memo->next_walk];
        walk.prefix.assign(vt.substr(0, br + 1));
        walk.var = rec.var;
        memo->next_walk ^= 1;
      }
    }
  }
  remember(rec);
  out = std::move(rec);
  return true;
}

std::optional<TraceRecord> GleipnirReader::salvage_record_line(
    TraceContext& ctx, std::string_view line) {
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
  // Everything after the function is the (malformed) symbol annotation;
  // drop it and keep the raw access.
  return rec;
}

GleipnirReader::LineOutcome GleipnirReader::consume_cold(std::string_view body,
                                                         TraceEvent& ev) {
  if (starts_with(body, "START") || starts_with(body, "END")) {
    const bool is_start = starts_with(body, "START");
    const std::vector<std::string_view> f = split_ws(body);
    const auto pid = f.size() == 3 && f[1] == "PID"
                         ? parse_uint(f[2])
                         : std::optional<std::uint64_t>{};
    if (!pid) {
      if (diags_ == nullptr || diags_->strict()) {
        throw_parse_error("malformed marker line '" + std::string(body) + "'",
                          {lines_.line_number(), 1});
      }
      // No useful repair for a marker: drop it and resync.
      diags_->report(DiagSeverity::Error, DiagCode::TraceBadMarker,
                     "malformed marker line '" + std::string(body) + "'",
                     {lines_.line_number(), 1});
      return LineOutcome::Skip;
    }
    ev.kind = is_start ? TraceEvent::Kind::Start : TraceEvent::Kind::End;
    ev.pid = *pid;
    if (is_start && !saw_start_) {
      saw_start_ = true;
      start_pid_ = *pid;
    }
    return LineOutcome::Marker;
  }
  ev.kind = TraceEvent::Kind::Record;
  if (diags_ == nullptr || diags_->strict()) {
    ev.record = parse_record_line(*ctx_, body, lines_.line_number());
    ++slow_records_;
    return LineOutcome::Record;
  }
  try {
    ev.record = parse_record_line(*ctx_, body, lines_.line_number());
    ++slow_records_;
    return LineOutcome::Record;
  } catch (const Error& e) {
    if (diags_->repair()) {
      if (auto salvaged = salvage_record_line(*ctx_, body)) {
        diags_->report(DiagSeverity::Error, DiagCode::TraceRepairedLine,
                       "repaired trace line (symbol annotation dropped): " +
                           e.message(),
                       {lines_.line_number(), 1});
        ev.record = std::move(*salvaged);
        ++slow_records_;
        return LineOutcome::Record;
      }
    }
    diags_->report(DiagSeverity::Error, DiagCode::TraceBadLine, e.message(),
                   {lines_.line_number(), 1});
    return LineOutcome::Skip;  // resync at the next line
  }
}

std::optional<TraceEvent> GleipnirReader::next() {
  std::string_view raw;
  while (lines_.next(raw)) {
    std::string_view body = raw;
    if (!body.empty() && (is_ascii_space(body.front()) ||
                          is_ascii_space(body.back()))) {
      body = trim(body);
    }
    if (body.empty()) continue;
    TraceEvent ev;
    // Markers never parse as records (their first field is not a single
    // access-kind character), so trying the fast path first is safe.
    if (!force_slow_ &&
        (probe_line_memo(body, ev.record) ||
         parse_record_fast_impl(*ctx_, body, ev.record, &memo_, tokenize_))) {
      ++fast_records_;
      return ev;
    }
    switch (consume_cold(body, ev)) {
      case LineOutcome::Skip:
        continue;
      case LineOutcome::Marker:
      case LineOutcome::Record:
        return ev;
    }
  }
  lines_.report_io_failure();
  return std::nullopt;
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
    if (!force_slow_ &&
        (probe_line_memo(body, slot) ||
         parse_record_fast_impl(*ctx_, body, slot, &memo_, tokenize_)))
        [[likely]] {
      ++fast_records_;
      ++produced;
      continue;
    }
    TraceEvent ev;
    if (consume_cold(body, ev) == LineOutcome::Record) {
      slot = std::move(ev.record);
      ++produced;
    }
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
