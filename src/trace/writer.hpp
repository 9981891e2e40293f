// Writer emitting the Gleipnir textual trace format; the transformed
// trace (`transformed_trace.out` in the paper) is produced through this.
//
// Every text writer formats through one block encoder: lines are built
// with pointer stores (std::to_chars for decimals, a digit table for
// hex) straight into a buffer that reaches the stream 64 KiB at a time,
// and each symbol's name is looked up in the string pool once.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.hpp"
#include "trace/sink.hpp"

namespace tdt::trace {

/// Bytes a text writer collects before it hands them to its stream.
inline constexpr std::size_t kTextBlock = 64 * 1024;

/// Writes `value` in lowercase hex, zero-padded to at least `width`
/// digits (at most 16 are ever needed), and returns the end. Needs room
/// for max(width, 16) chars at `p`.
char* put_hex(char* p, std::uint64_t value, int width = 1) noexcept;

/// A block of formatted text: callers reserve room for a line, store it
/// through the returned pointer and commit its end. Writers drain the
/// block once it is full(), so it holds kTextBlock bytes plus at most one
/// line, however long that line is.
class TextBlock {
 public:
  /// Room for `n` more bytes at the end of the block.
  char* reserve(std::size_t n) {
    if (buf_.size() - len_ < n) [[unlikely]] grow(n);
    return buf_.data() + len_;
  }
  /// Ends the block at `end`, a pointer into the last reserve()d room.
  void commit(const char* end) noexcept {
    len_ = static_cast<std::size_t>(end - buf_.data());
  }

  [[nodiscard]] std::string_view bytes() const noexcept {
    return {buf_.data(), len_};
  }
  /// True once the block holds kTextBlock bytes or more.
  [[nodiscard]] bool full() const noexcept { return len_ >= kTextBlock; }
  void clear() noexcept { len_ = 0; }

  /// Hands the block's bytes to `out` and empties it.
  void drain_to(std::ostream& out);

  /// Bytes handed to a stream so far.
  [[nodiscard]] std::uint64_t bytes_drained() const noexcept {
    return drained_;
  }

 private:
  void grow(std::size_t n);

  std::string buf_;
  std::size_t len_ = 0;
  std::uint64_t drained_ = 0;
};

/// Formats Gleipnir text lines into its block (TraceContext::format_record,
/// the text writers and tdtd's transform digest all go through it).
class TextEncoder : public TextBlock {
 public:
  explicit TextEncoder(const TraceContext& ctx) : ctx_(&ctx) {}

  /// Appends one record line exactly as Gleipnir prints it (paper
  /// Listing 2), newline included:
  ///   K ADDRESS SIZE FUNCTION [SCOPE [FRAME THREAD] VAR]
  /// Globals omit frame/thread; lines without symbol info stop after the
  /// function name.
  void record(const TraceRecord& rec);

  /// Appends a variable reference ("lSoA.mX[3]").
  void var(const VarRef& var);

  /// Appends "<word> PID <pid>\n" (the START/END markers).
  void marker(std::string_view word, std::uint64_t pid);

 private:
  [[nodiscard]] std::string_view name(Symbol s) {
    if (s.id() < names_.size() && names_[s.id()].data() != nullptr) {
      return names_[s.id()];
    }
    return cache_name(s);
  }
  std::string_view cache_name(Symbol s);
  /// Upper bound on the bytes put_var() stores for `var`.
  std::size_t var_room(const VarRef& var);
  char* put_var(char* p, const VarRef& var);

  const TraceContext* ctx_;
  std::vector<std::string_view> names_;  // by symbol id; null data = unset
};

/// The text writers' stream check at batch boundaries and at the end:
/// draws fault site writer.flush, flushes `out`, and throws Error{Io}
/// naming `records` when the stream has failed (ENOSPC, closed pipe,
/// ...). ostream writes fail silently by default, so without this a full
/// disk would leave a truncated trace instead of a diagnostic.
void check_text_stream(std::ostream& out, std::uint64_t records);

/// Streaming trace writer.
class GleipnirWriter {
 public:
  GleipnirWriter(const TraceContext& ctx, std::ostream& out);

  /// Emits `START PID <pid>`.
  void start(std::uint64_t pid);

  /// Emits one record line.
  void write(const TraceRecord& rec) {
    encoder_.record(rec);
    ++count_;
    if (encoder_.full()) encoder_.drain_to(*out_);
  }

  /// Emits `END PID <pid>`.
  void end(std::uint64_t pid);

  /// Hands every line written so far to the stream, then checks it
  /// (check_text_stream). Call at flush points.
  void check_health();

  /// Number of record lines written so far.
  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return count_;
  }

  /// Bytes handed to the stream so far, markers included.
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return encoder_.bytes_drained();
  }

 private:
  TextEncoder encoder_;
  std::ostream* out_;
  std::uint64_t count_ = 0;
};

/// TraceSink adapter around GleipnirWriter so a streaming pipeline
/// (reader -> transformer -> ...) can emit a trace file without ever
/// materializing the whole record vector. START is written up front,
/// END on on_end().
class WriterSink final : public TraceSink {
 public:
  WriterSink(const TraceContext& ctx, std::ostream& out, std::uint64_t pid = 0)
      : writer_(ctx, out), pid_(pid) {
    writer_.start(pid_);
  }

  void on_record(const TraceRecord& rec) override { writer_.write(rec); }
  void push_batch(std::span<const TraceRecord> batch) override {
    for (const TraceRecord& rec : batch) writer_.write(rec);
    writer_.check_health();  // batch-granular ENOSPC / fault detection
  }
  void on_end() override {
    writer_.end(pid_);
    writer_.check_health();
  }

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return writer_.records_written();
  }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return writer_.bytes_written();
  }

 private:
  GleipnirWriter writer_;
  std::uint64_t pid_;
};

/// Renders a whole trace (with START/END markers) to a string.
std::string write_trace_string(const TraceContext& ctx,
                               std::span<const TraceRecord> records,
                               std::uint64_t pid = 0);

/// Writes a whole trace to a file. Throws Error{Io} on failure.
void write_trace_file(const TraceContext& ctx,
                      std::span<const TraceRecord> records,
                      const std::string& path, std::uint64_t pid = 0);

}  // namespace tdt::trace
