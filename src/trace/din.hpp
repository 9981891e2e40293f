// Classic DineroIV "din" trace format for interoperability with the
// original tool's ecosystem:
//
//   <label> <hex address> [hex size]
//
// where label 0 = data read, 1 = data write, 2 = instruction fetch.
// din traces carry no symbol metadata, so records import with Unknown
// scope (they simulate fine but cannot be transformed — the paper's rule
// matching needs Gleipnir's variable annotations).
#pragma once

#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "trace/source.hpp"
#include "trace/writer.hpp"
#include "util/diag.hpp"

namespace tdt::trace {

/// Streaming din parser over the same LineSplitter as the Gleipnir
/// reader (trace/source.hpp), so CRLF handling, the byte count, the
/// reader.read fault site and the torn-read diagnostic T004 behave as
/// they do for text; fields are split in place by the SIMD tokenizer.
/// Blank lines and '#' comments are skipped. Without a DiagEngine (or
/// with a Strict one) it throws Error{Parse} on a malformed line. With
/// Skip it drops the line and resyncs; Repair additionally salvages a
/// line whose size field is the only malformed part by substituting the
/// default size (D002).
class DinReader {
 public:
  /// Reads from a byte source (see open_trace_byte_source).
  DinReader(TraceContext& ctx, std::unique_ptr<ByteSource> source,
            std::uint32_t default_size = 4, DiagEngine* diags = nullptr);

  /// Appends up to `max` records to `out` and returns how many were
  /// appended; 0 means end of input.
  std::size_t next_batch(std::vector<TraceRecord>& out, std::size_t max);

  /// 1-based number of the line most recently consumed.
  [[nodiscard]] std::uint32_t line_number() const noexcept {
    return lines_.line_number();
  }

  /// Input bytes consumed so far (terminators counted only when present).
  [[nodiscard]] std::uint64_t bytes() const noexcept { return lines_.bytes(); }

 private:
  /// Decodes one non-blank, non-comment line into `rec`. False when the
  /// line is dropped (its diagnostic reported); throws when strict.
  bool parse_line(std::string_view body, TraceRecord& rec);

  LineSplitter lines_;
  std::uint32_t default_size_;
  DiagEngine* diags_;
  simd::TokenizeFieldsFn tokenize_;
  Symbol unknown_fn_;
};

/// Parses a din-format text into records. Missing sizes default to
/// `default_size` bytes. Modify records cannot be represented in din.
std::vector<TraceRecord> read_din_string(TraceContext& ctx,
                                         std::string_view text,
                                         std::uint32_t default_size = 4,
                                         DiagEngine* diags = nullptr);

/// Reads a din file from disk (gzip'd input inflates transparently).
/// Throws Error{Io} when unreadable.
std::vector<TraceRecord> read_din_file(TraceContext& ctx,
                                       const std::string& path,
                                       std::uint32_t default_size = 4,
                                       DiagEngine* diags = nullptr);

/// Streams records as din lines into `out` through a text block:
/// Load -> 0, Store and Modify -> 1 (din has no read-modify-write
/// label), Instr -> 2, Misc -> dropped. Like the Gleipnir writer it
/// checks the stream at batch boundaries and at on_end()
/// (check_text_stream: fault site writer.flush, Error{Io} on failure).
class DinSink final : public TraceSink {
 public:
  explicit DinSink(std::ostream& out) : out_(&out) {}

  void on_record(const TraceRecord& rec) override {
    write(rec);
    if (block_.full()) block_.drain_to(*out_);
  }
  void push_batch(std::span<const TraceRecord> batch) override;
  void on_end() override;

  /// din lines written so far (Misc records have none).
  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return count_;
  }
  /// Bytes handed to the stream so far.
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return block_.bytes_drained();
  }

 private:
  void write(const TraceRecord& rec);
  void check_health();

  TextBlock block_;
  std::ostream* out_;
  std::uint64_t count_ = 0;  // din lines written (Misc records drop out)
};

/// Renders records as din text (see DinSink).
std::string write_din_string(std::span<const TraceRecord> records);

}  // namespace tdt::trace
