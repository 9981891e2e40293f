#include "trace/stream.hpp"

#include <fstream>

#include "trace/binary.hpp"
#include "trace/din.hpp"
#include "trace/reader.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace tdt::trace {

TraceFormat guess_trace_format(const std::string& path) noexcept {
  if (ends_with(path, ".tdtb")) return TraceFormat::Tdtb;
  if (ends_with(path, ".din")) return TraceFormat::Din;
  return TraceFormat::Gleipnir;
}

namespace {

/// Gleipnir text (file, stdin, .gz, or in-memory) through the reader's
/// bulk next_batch fast path: records decode straight into the batch.
class GleipnirCursor final : public SourceCursor {
 public:
  GleipnirCursor(TraceContext& ctx, std::unique_ptr<ByteSource> source,
                 DiagEngine* diags)
      : reader_(ctx, std::move(source), diags) {}
  GleipnirCursor(TraceContext& ctx, std::string_view text, DiagEngine* diags)
      : reader_(ctx, text, diags) {}

  std::size_t next_batch(std::vector<TraceRecord>& out,
                         std::size_t max) override {
    const std::size_t got = reader_.next_batch(out, max);
    records_ += got;
    return got;
  }

  void finish(obs::Registry* registry) override {
    if (reader_.saw_start()) {
      have_pid_ = true;
      pid_ = reader_.start_pid();
    }
    if (registry == nullptr) return;
    registry->counter("read.records").add(records_);
    registry->counter("read.bytes").add(reader_.counters().bytes);
    registry->counter("read.fast_parses").add(reader_.counters().fast_records);
    registry->counter("read.slow_parses").add(reader_.counters().slow_records);
  }

 private:
  GleipnirReader reader_;
  std::uint64_t records_ = 0;
};

/// din through its line reader, over an owned stream.
class DinCursor final : public SourceCursor {
 public:
  DinCursor(TraceContext& ctx, std::ifstream in, DiagEngine* diags)
      : in_(std::move(in)), reader_(ctx, in_, /*default_size=*/4, diags) {}

  std::size_t next_batch(std::vector<TraceRecord>& out,
                         std::size_t max) override {
    std::size_t got = 0;
    TraceRecord rec;
    while (got < max && reader_.next(rec)) {
      // Copy, not move: `rec` is the reader's reusable output slot.
      out.push_back(rec);
      ++got;
    }
    records_ += got;
    return got;
  }

  void finish(obs::Registry* registry) override {
    if (registry == nullptr) return;
    registry->counter("read.records").add(records_);
    // Through the last line read: the whole file after a complete pass.
    // The end of input set failbit, which tellg() would refuse.
    in_.clear();
    const std::streamoff bytes = in_.tellg();
    if (bytes >= 0) {
      registry->counter("read.bytes").add(static_cast<std::uint64_t>(bytes));
    }
  }

 private:
  std::ifstream in_;
  DinReader reader_;
  std::uint64_t records_ = 0;
};

}  // namespace

std::unique_ptr<SourceCursor> open_trace_cursor(
    TraceContext& ctx, const std::string& path,
    const ViewSourceOptions& options) {
  switch (guess_trace_format(path)) {
    case TraceFormat::Gleipnir:
      return std::make_unique<GleipnirCursor>(
          ctx, open_trace_byte_source(path, options.ingest), options.diags);
    case TraceFormat::Tdtb:
      return open_tdtb_cursor(ctx, path, options);
    case TraceFormat::Din:
      break;
  }
  // Binary mode: din is a text format, but opening it in text mode would
  // let a CRLF-translating runtime silently rewrite byte offsets.
  std::ifstream in(path, std::ios::binary | std::ios::in);
  if (!in) {
    throw_io_error("cannot open trace file '" + path + "'");
  }
  return std::make_unique<DinCursor>(ctx, std::move(in), options.diags);
}

std::unique_ptr<SourceCursor> open_text_cursor(TraceContext& ctx,
                                               std::string_view text,
                                               DiagEngine* diags) {
  return std::make_unique<GleipnirCursor>(ctx, text, diags);
}

}  // namespace tdt::trace
