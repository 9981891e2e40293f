#include "trace/writer.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace tdt::trace {
namespace {

/// Longest decimal rendering of a 64-bit value.
constexpr std::size_t kMaxDecimal = 20;

/// Room for a record line besides its names and variable: kind, 16 hex
/// address digits, a 32-bit size, scope, two 16-bit counters, five
/// separators and the newline.
constexpr std::size_t kLineFixedRoom = 64;

char* put_decimal(char* p, std::uint64_t value) noexcept {
  return std::to_chars(p, p + kMaxDecimal, value).ptr;
}

char* put_text(char* p, std::string_view text) noexcept {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

}  // namespace

char* put_hex(char* p, std::uint64_t value, int width) noexcept {
  static constexpr char kDigits[] = "0123456789abcdef";
  const int needed = std::max(1, static_cast<int>(std::bit_width(value) + 3) / 4);
  const int digits = std::max(width, needed);
  for (int i = digits - 1; i >= 0; --i) {
    p[i] = kDigits[value & 0xF];
    value >>= 4;
  }
  return p + digits;
}

// --- TextBlock ----------------------------------------------------------------

void TextBlock::grow(std::size_t n) {
  buf_.resize(std::max(len_ + n, 2 * buf_.size()));
}

void TextBlock::drain_to(std::ostream& out) {
  out.write(buf_.data(), static_cast<std::streamsize>(len_));
  drained_ += len_;
  len_ = 0;
}

// --- TextEncoder ------------------------------------------------------------

std::string_view TextEncoder::cache_name(Symbol s) {
  if (s.id() >= names_.size()) names_.resize(s.id() + 1);
  // The pool never moves an interned string, so the view stays valid.
  names_[s.id()] = ctx_->name(s);
  return names_[s.id()];
}

std::size_t TextEncoder::var_room(const VarRef& var) {
  std::size_t room = name(var.base).size();
  for (const VarStep& step : var.steps) {
    room += step.is_field ? 1 + name(step.field).size() : 2 + kMaxDecimal;
  }
  return room;
}

char* TextEncoder::put_var(char* p, const VarRef& var) {
  p = put_text(p, name(var.base));
  for (const VarStep& step : var.steps) {
    if (step.is_field) {
      *p++ = '.';
      p = put_text(p, name(step.field));
    } else {
      *p++ = '[';
      p = put_decimal(p, step.index);
      *p++ = ']';
    }
  }
  return p;
}

void TextEncoder::record(const TraceRecord& rec) {
  const std::string_view function = name(rec.function);
  const bool annotated = rec.scope != VarScope::Unknown;
  std::size_t room = kLineFixedRoom + function.size();
  if (annotated) room += var_room(rec.var);
  char* p = reserve(room);
  *p++ = access_kind_code(rec.kind);
  *p++ = ' ';
  p = put_hex(p, rec.address, 9);
  *p++ = ' ';
  p = put_decimal(p, rec.size);
  *p++ = ' ';
  p = put_text(p, function);
  if (annotated) {
    *p++ = ' ';
    p = put_text(p, var_scope_code(rec.scope));
    if (!is_global_scope(rec.scope)) {
      *p++ = ' ';
      p = put_decimal(p, rec.frame);
      *p++ = ' ';
      p = put_decimal(p, rec.thread);
    }
    *p++ = ' ';
    p = put_var(p, rec.var);
  }
  *p++ = '\n';
  commit(p);
}

void TextEncoder::var(const VarRef& var) {
  char* p = reserve(var_room(var));
  commit(put_var(p, var));
}

void TextEncoder::marker(std::string_view word, std::uint64_t pid) {
  char* p = reserve(word.size() + 6 + kMaxDecimal);
  p = put_text(p, word);
  p = put_text(p, " PID ");
  p = put_decimal(p, pid);
  *p++ = '\n';
  commit(p);
}

// --- writers ------------------------------------------------------------------

void check_text_stream(std::ostream& out, std::uint64_t records) {
  if (fault::FaultInjector::enabled() &&
      fault::should_fire(fault::Site::WriterFlush)) [[unlikely]] {
    out.setstate(std::ios::badbit);  // exactly what a failed flush leaves
  }
  out.flush();
  if (!out) {
    throw_io_error("trace write failed after " + std::to_string(records) +
                   " records (stream error; disk full or pipe closed?)");
  }
}

GleipnirWriter::GleipnirWriter(const TraceContext& ctx, std::ostream& out)
    : encoder_(ctx), out_(&out) {}

void GleipnirWriter::start(std::uint64_t pid) { encoder_.marker("START", pid); }

void GleipnirWriter::end(std::uint64_t pid) { encoder_.marker("END", pid); }

void GleipnirWriter::check_health() {
  encoder_.drain_to(*out_);
  check_text_stream(*out_, count_);
}

std::string write_trace_string(const TraceContext& ctx,
                               std::span<const TraceRecord> records,
                               std::uint64_t pid) {
  std::ostringstream out;
  WriterSink sink(ctx, out, pid);
  sink.push_batch(records);
  sink.on_end();
  return out.str();
}

void write_trace_file(const TraceContext& ctx,
                      std::span<const TraceRecord> records,
                      const std::string& path, std::uint64_t pid) {
  std::ofstream out(path, std::ios::out | std::ios::binary);
  if (!out) {
    throw_io_error("cannot open '" + path + "' for writing");
  }
  WriterSink sink(ctx, out, pid);
  sink.push_batch(records);
  sink.on_end();
}

}  // namespace tdt::trace
