#include "trace/stream.hpp"

#include <chrono>

#include "trace/binary.hpp"
#include "trace/codec.hpp"
#include "trace/din.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"
#include "util/error.hpp"
#include "util/file_util.hpp"
#include "util/string_util.hpp"

namespace tdt::trace {

TraceFormat guess_trace_format(const std::string& path) noexcept {
  if (ends_with(path, ".tdtb")) return TraceFormat::Tdtb;
  if (ends_with(path, ".din") || ends_with(path, ".din.gz")) {
    return TraceFormat::Din;
  }
  return TraceFormat::Gleipnir;
}

namespace {

/// Gleipnir text (file, stdin or .gz) through the reader's bulk
/// next_batch fast path: records decode straight into the batch.
class GleipnirCursor final : public SourceCursor {
 public:
  GleipnirCursor(TraceContext& ctx, std::unique_ptr<ByteSource> source,
                 DiagEngine* diags)
      : reader_(ctx, std::move(source), diags) {}

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

/// din through its batch reader, over the same byte sources as text.
class DinCursor final : public SourceCursor {
 public:
  DinCursor(TraceContext& ctx, std::unique_ptr<ByteSource> source,
            DiagEngine* diags)
      : reader_(ctx, std::move(source), /*default_size=*/4, diags) {}

  std::size_t next_batch(std::vector<TraceRecord>& out,
                         std::size_t max) override {
    const std::size_t got = reader_.next_batch(out, max);
    records_ += got;
    return got;
  }

  void finish(obs::Registry* registry) override {
    if (registry == nullptr) return;
    registry->counter("read.records").add(records_);
    registry->counter("read.bytes").add(reader_.bytes());
  }

 private:
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
          ctx, open_trace_byte_source(path), options.diags);
    case TraceFormat::Din:
      return std::make_unique<DinCursor>(ctx, open_trace_byte_source(path),
                                         options.diags);
    case TraceFormat::Tdtb:
      break;
  }
  return open_tdtb_cursor(ctx, path, options);
}

TraceWriter::TraceWriter(TraceFormat format, const TraceContext& ctx,
                         std::ostream& out, std::uint64_t pid,
                         const BinaryWriterOptions& binary,
                         obs::Registry* registry)
    : registry_(registry) {
  switch (format) {
    case TraceFormat::Gleipnir: {
      auto text = std::make_unique<WriterSink>(ctx, out, pid);
      text_ = text.get();
      sink_ = std::move(text);
      return;
    }
    case TraceFormat::Din: {
      auto din = std::make_unique<DinSink>(out);
      din_ = din.get();
      sink_ = std::move(din);
      return;
    }
    case TraceFormat::Tdtb:
      break;
  }
  auto tdtb = std::make_unique<BinaryTraceSink>(ctx, out, pid, binary);
  if (registry_ != nullptr) tdtb->time_writes();
  tdtb_ = tdtb.get();
  sink_ = std::move(tdtb);
}

template <typename Write>
void TraceWriter::timed(const Write& write) {
  if (registry_ == nullptr || tdtb_ != nullptr) {
    write();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  write();
  encode_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
}

void TraceWriter::on_record(const TraceRecord& rec) {
  timed([&] { sink_->on_record(rec); });
}

void TraceWriter::push_batch(std::span<const TraceRecord> batch) {
  timed([&] { sink_->push_batch(batch); });
}

void TraceWriter::push_batch_shared(SharedBatch batch) {
  timed([&] { sink_->push_batch_shared(std::move(batch)); });
}

void TraceWriter::on_end() {
  timed([&] { sink_->on_end(); });
}

void TraceWriter::fold_metrics() const {
  if (registry_ == nullptr) return;
  if (tdtb_ != nullptr) {
    fold_write_metrics(*registry_, tdtb_->stats());
    return;
  }
  WriteStats stats;
  stats.records =
      text_ != nullptr ? text_->records_written() : din_->records_written();
  stats.bytes =
      text_ != nullptr ? text_->bytes_written() : din_->bytes_written();
  stats.encode_seconds = encode_seconds_;
  fold_write_metrics(*registry_, stats);
}

TraceOutput::TraceOutput(std::string path, TraceFormat format,
                         std::ostream* stdout_stream)
    : path_(std::move(path)), to_stdout_(path_.empty() || path_ == "-") {
  if (to_stdout_) {
    if (stdout_stream == nullptr) {
      throw_config_error("'-': standard output carries this tool's report; "
                         "name a file for the trace");
    }
    stream_.rdbuf(stdout_stream->rdbuf());
    return;
  }
  const bool gzip = path_.size() > 3 && ends_with(path_, ".gz");
  if (gzip && format == TraceFormat::Tdtb) {
    std::string message = "'";
    message += path_;
    message += "': a .gz name gzips text and din; TDTB compresses its "
               "frames with --compress";
    throw_config_error(std::move(message));
  }
  if (gzip && !gzip_available()) {
    std::string message = "'";
    message += path_;
    message += "': gzip output needs zlib, which this build does not carry";
    throw_config_error(std::move(message));
  }
  file_.open(path_, std::ios::out | std::ios::binary);
  if (!file_) throw_io_error("cannot open '" + path_ + "' for writing");
  if (gzip) {
    gzip_ = std::make_unique<GzipDeflater>(file_);
    stream_.rdbuf(gzip_.get());
  } else {
    stream_.rdbuf(file_.rdbuf());
  }
}

TraceOutput::~TraceOutput() = default;

void TraceOutput::finish() {
  if (to_stdout_) return;
  if (gzip_ != nullptr && !gzip_->finish()) {
    throw_io_error("gzip compression failed for '" + path_ + "'");
  }
  file_.close();
  if (!file_) throw_io_error("writing '" + path_ + "' failed");
}

void TraceOutput::discard() noexcept {
  if (to_stdout_) return;
  stream_.rdbuf(nullptr);
  gzip_.reset();
  file_.close();
  remove_partial_file(path_);
}

}  // namespace tdt::trace
