// Pull cursors over trace input, and the writer for each trace format.
// This is the one place that turns a trace — Gleipnir text, classic
// din, or TDTB binary — into record batches. The view DAG's source
// nodes (trace/view.hpp) drive these cursors; nothing else reads a
// trace, so recovery and simulation work on traces larger than memory
// (no whole-file slurp, no whole-trace vector). On the way out,
// TraceWriter picks the writer sink for a format, and TraceOutput the
// stream it writes to.
#pragma once

#include <fstream>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "util/diag.hpp"
#include "util/obs.hpp"

namespace tdt::trace {

/// On-disk trace encodings understood by the pipeline.
enum class TraceFormat : std::uint8_t { Gleipnir, Din, Tdtb };

/// Picks the format from the file name: ".tdtb" -> Tdtb, ".din" or
/// ".din.gz" -> Din, anything else -> Gleipnir text. Text and din inflate
/// gzip input by its magic, whatever the name.
[[nodiscard]] TraceFormat guess_trace_format(const std::string& path) noexcept;

/// Records per batch the view DAG pulls from a source. The TDTB reader
/// cuts decoded v3 frames into slices of this size.
inline constexpr std::size_t kViewBatch = 4096;

/// How a source opens its input.
struct ViewSourceOptions {
  DiagEngine* diags = nullptr;        ///< error-recovery policy (null = strict)
  /// Worker threads decoding TDTB v3 frames concurrently when the
  /// container carries a valid frame index (--jobs N). Frames are bound
  /// and handed out in frame order on the consuming thread, so any job
  /// count yields output byte-identical to the inline decode; <= 1 runs
  /// the same path inline with no threads at all. Ignored for text, din,
  /// v1/v2 blobs, and v3 files whose index fails validation (the reader
  /// walks those frames inline). The effective count is clamped to the
  /// hardware concurrency (see clamp_jobs).
  int jobs = 1;
  /// Clamp the decode workers to std::thread::hardware_concurrency().
  /// Oversubscribing a small machine only adds scheduling overhead;
  /// tests disable the clamp to exercise the threaded machinery on any
  /// host. Output is byte-identical either way.
  bool clamp_jobs = true;
};

/// Pull side of a source: next_batch() appends at most `max` records to
/// `out` and returns how many it appended; 0 means end of input.
/// finish() folds the reader-side read.* counters (read.records and
/// read.bytes, read.fast_parses / read.slow_parses for text, and
/// read.frames / read.compressed_bytes for framed TDTB) into `registry`
/// once the stream is done — at end of input or when the consumer stops
/// early; a null registry folds nothing. Destroying a cursor joins its
/// threads.
class SourceCursor {
 public:
  virtual ~SourceCursor() = default;
  virtual std::size_t next_batch(std::vector<TraceRecord>& out,
                                 std::size_t max) = 0;
  virtual void finish(obs::Registry* registry) = 0;

  /// PID from the START marker or binary header; valid after finish().
  [[nodiscard]] bool have_pid() const noexcept { return have_pid_; }
  [[nodiscard]] std::uint64_t pid() const noexcept { return pid_; }

 protected:
  bool have_pid_ = false;
  std::uint64_t pid_ = 0;
};

/// Opens `path` with the format guessed from its extension. Files open
/// in binary mode for every format. Gleipnir text and din read through
/// open_trace_byte_source (trace/source.hpp): "-" is stdin, and gzip'd
/// input inflates transparently. TDTB goes to the one TDTB reader
/// (open_tdtb_cursor in trace/binary.hpp); a v3 container with a valid
/// frame index decodes on `options.jobs` workers. Throws Error{Io} when
/// the file cannot be opened.
[[nodiscard]] std::unique_ptr<SourceCursor> open_trace_cursor(
    TraceContext& ctx, const std::string& path,
    const ViewSourceOptions& options);

struct BinaryWriterOptions;
class BinaryTraceSink;
class DinSink;
class WriterSink;

/// The writer sink for one trace format: Gleipnir text -> WriterSink,
/// din -> DinSink, TDTB -> BinaryTraceSink laid out by `binary`. Each
/// writer checks `out` at batch boundaries (fault site writer.flush).
/// Nothing is timed without a registry: with one, the writes are timed
/// (the TDTB writer times its own), and fold_metrics() adds the write.*
/// family once the stream has ended.
class TraceWriter final : public TraceSink {
 public:
  TraceWriter(TraceFormat format, const TraceContext& ctx, std::ostream& out,
              std::uint64_t pid, const BinaryWriterOptions& binary,
              obs::Registry* registry);

  void on_record(const TraceRecord& rec) override;
  void push_batch(std::span<const TraceRecord> batch) override;
  void push_batch_shared(SharedBatch batch) override;
  void on_end() override;

  /// Folds the writer's write.* family into the registry: records and
  /// bytes written, and the seconds spent writing. Text and din have no
  /// frames and no compression, and report 0 for them.
  void fold_metrics() const;

 private:
  /// Runs `write`, adding its wall time to encode_seconds_ when a text or
  /// din write is timed.
  template <typename Write>
  void timed(const Write& write);

  std::unique_ptr<TraceSink> sink_;
  BinaryTraceSink* tdtb_ = nullptr;  // sink_, when it writes TDTB
  WriterSink* text_ = nullptr;       // sink_, when it writes text
  DinSink* din_ = nullptr;           // sink_, when it writes din
  obs::Registry* registry_;
  double encode_seconds_ = 0;
};

class GzipDeflater;

/// Where a written trace goes: the named file, through a streaming gzip
/// deflater when the name ends in ".gz" (text and din only; TDTB
/// compresses its own frames), or a tool's standard output for "-" or an
/// empty path. A tool whose standard output carries its report passes a
/// null `stdout_stream`, and then "-" is a configuration error. A run
/// that fails calls discard(), which removes the partial file, so a
/// trace cut short never reads back as a shorter, valid one.
class TraceOutput {
 public:
  /// Opens the destination. Throws Error{Config} for a name the format
  /// or the build cannot write, and Error{Io} when the file cannot be
  /// opened.
  TraceOutput(std::string path, TraceFormat format,
              std::ostream* stdout_stream);
  ~TraceOutput();
  TraceOutput(const TraceOutput&) = delete;
  TraceOutput& operator=(const TraceOutput&) = delete;

  [[nodiscard]] std::ostream& stream() noexcept { return stream_; }

  /// Ends the gzip member and closes the file. Throws Error{Io} when the
  /// last bytes did not reach it.
  void finish();

  /// After a failure: closes the output and removes it when it is a
  /// regular file.
  void discard() noexcept;

 private:
  std::string path_;
  bool to_stdout_;
  std::ofstream file_;
  std::unique_ptr<GzipDeflater> gzip_;  // writes into file_
  std::ostream stream_{nullptr};
};

}  // namespace tdt::trace
