// Byte sources and the line splitter feeding the text trace readers
// (Gleipnir text and din).
//
// The readers consume input as a sequence of chunks — contiguous byte
// runs whose lifetime lasts until the next chunk is requested — and a
// ByteSource decides where those chunks come from:
//
//   MemorySource      caller-owned text, one zero-copy chunk
//   OverlappedSource  double-buffered reads from a file, pipe, device or
//                     stdin: a pool thread prefetches block N+1 while
//                     the parser consumes block N
//   GzipSource        transparent inflation over another source
//
// LineSplitter turns any of them into lines. Every I/O-backed source
// passes the fault::Site::ReaderRead injection point once per read
// (MemorySource excepted — in-memory text has no I/O to fail), and the
// splitter owns the torn-read recovery contract (diagnostic T004,
// docs/robustness.md), so both text formats honour it identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <string_view>

#include "trace/codec.hpp"
#include "util/diag.hpp"
#include "util/ordered_pool.hpp"
#include "util/simd_scan.hpp"

namespace tdt::trace {

/// Block size for streaming sources. Each block is one hand-off between
/// OverlappedSource's prefetch thread and the parser, and a hand-off
/// that waits for a thread to be scheduled costs wall time on a busy
/// host. On a shared 4-vCPU VM, reading a 103 MB text trace in 256 KiB
/// blocks ran up to 20% slower than mapping the file; 1 MiB blocks ran
/// on par (docs/PERF.md). Two blocks stay small beside the rest of a run.
inline constexpr std::size_t kIngestBlock = 1024 * 1024;

/// Pull interface: next_chunk() returns the next run of input bytes,
/// valid until the following next_chunk() call; an empty view means end
/// of input. failed() distinguishes an I/O failure from clean EOF once
/// the source is exhausted.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Next byte run; empty at end of input. The returned view is
  /// invalidated by the next call.
  [[nodiscard]] virtual std::string_view next_chunk() = 0;

  /// True when input ended because a read failed (istream badbit, or an
  /// injected reader.read fault) rather than clean EOF.
  [[nodiscard]] virtual bool failed() const noexcept = 0;
};

/// Caller-owned text delivered as one zero-copy chunk. No fault
/// opportunities: in-memory text cannot tear.
class MemorySource final : public ByteSource {
 public:
  explicit MemorySource(std::string_view text) noexcept : text_(text) {}

  [[nodiscard]] std::string_view next_chunk() override {
    const std::string_view chunk = text_;
    text_ = {};
    return chunk;
  }
  [[nodiscard]] bool failed() const noexcept override { return false; }

 private:
  std::string_view text_;
};

/// Double-buffered overlapped reads: an OrderedPool with one thread fills
/// block N+1 while the consumer parses block N, hiding read latency
/// behind parse time. The one source for text that is not already in
/// memory. That thread alone touches the istream, and it passes the
/// ReaderRead fault site before every read, the last (end-of-file) one
/// included, in read order, so fault schedules are deterministic.
class OverlappedSource final : public ByteSource {
 public:
  /// Borrows `in`; the stream must outlive the source. `block` is the
  /// read size; tests pass small blocks to make lines straddle chunks.
  explicit OverlappedSource(std::istream& in,
                            std::size_t block = kIngestBlock);

  /// Opens `path` in binary mode. Throws Error{Io} when it cannot.
  static std::unique_ptr<OverlappedSource> open(const std::string& path);

  OverlappedSource(const OverlappedSource&) = delete;
  OverlappedSource& operator=(const OverlappedSource&) = delete;

  [[nodiscard]] std::string_view next_chunk() override;

  /// Valid once next_chunk() returned empty, which orders it after the end.
  [[nodiscard]] bool failed() const noexcept override { return failed_; }

 private:
  struct Block {
    std::string data;
    std::size_t len = 0;
  };

  bool read_block(Block& block);  // the pool's job; false at the end

  std::unique_ptr<std::istream> owned_;  // set by open()
  std::istream* in_;
  std::size_t block_;
  bool failed_ = false;  // set by the job that ends the stream
  OrderedPool<Block> pool_;  // last: its thread uses the members above
};

/// Transparent gzip inflation over any inner source. Construction is
/// driven by open_trace_byte_source(): it sniffs the first bytes of the
/// stream for the gzip magic and wraps compressed text (a `trace.out.gz`,
/// whether named so or not) so the text reader never knows. Handles
/// concatenated members (`cat a.gz b.gz`). A truncated or corrupt stream
/// surfaces through failed() — the same torn-read contract (T004) as
/// every other source.
class GzipSource final : public ByteSource {
 public:
  /// Takes ownership of `inner`. `head` holds bytes already pulled from
  /// the inner source by the sniffer; they are inflated first. Throws
  /// Error{Config} when zlib support is not built in.
  GzipSource(std::unique_ptr<ByteSource> inner, std::string head);
  ~GzipSource() override;
  GzipSource(const GzipSource&) = delete;
  GzipSource& operator=(const GzipSource&) = delete;

  [[nodiscard]] std::string_view next_chunk() override;
  [[nodiscard]] bool failed() const noexcept override;

 private:
  bool refill();  // feeds the next compressed chunk to the inflater

  std::unique_ptr<ByteSource> inner_;
  std::unique_ptr<GzipInflater> inflater_;
  std::string head_;  // sniffed bytes, inflated before the inner source
  std::string out_;
  bool done_ = false;
  bool failed_ = false;
};

/// Read-only view of one whole file: a regular file is mmap'd when
/// possible; anything else (a pipe, a device) is read whole into a
/// buffer. The TDTB reader decodes in place from it.
class FileView {
 public:
  /// nullptr when the file cannot be opened or read. An empty file
  /// yields an empty view.
  [[nodiscard]] static std::unique_ptr<FileView> open(const std::string& path);

  ~FileView();
  FileView(const FileView&) = delete;
  FileView& operator=(const FileView&) = delete;

  [[nodiscard]] std::string_view bytes() const noexcept {
    return {base_, size_};
  }

  /// Gives the whole pages of bytes()[0, n) back to the kernel: a
  /// sequential reader that is done with them keeps its resident set
  /// small. They stay readable (a mapped page faults back in from the
  /// file). No-op on a buffered view.
  void release_prefix(std::size_t n) noexcept;

  /// Gives every resident page back without moving the release point,
  /// for a reader that touched pages far ahead of where it reads (the
  /// v3 index probe). No-op on a buffered view.
  void drop_resident() noexcept;

 private:
  FileView() = default;

  const char* base_ = nullptr;
  std::size_t size_ = 0;
  std::size_t released_ = 0;  // bytes already given back
  bool mapped_ = false;
  std::string buf_;  // fallback storage when mmap is impossible
};

/// Opens `path` for the text readers: "-" is stdin, anything else a
/// file, pipe or device, all read through an OverlappedSource. Input
/// starting with the gzip magic (0x1f 0x8b) is wrapped in a GzipSource
/// whatever the file name, so `.gz` traces ingest transparently. Throws
/// Error{Io} when the path cannot be opened, Error{Config} for gzip
/// input without built-in zlib.
[[nodiscard]] std::unique_ptr<ByteSource> open_trace_byte_source(
    const std::string& path);

/// Splits a ByteSource into lines for the text readers. Lines are
/// located with the SIMD newline scan and handed out in place; only a
/// line straddling two chunks is copied.
///
/// Line terminators: '\n' ends a line; a '\r' immediately before the
/// '\n' belongs to the terminator (CRLF) and is stripped. bytes() counts
/// terminator bytes only when they were actually consumed, so it matches
/// the input size for terminated and unterminated input alike.
///
/// When the source dies mid-stream (istream badbit, or fault site
/// reader.read), the complete lines already buffered still drain, a
/// torn partial tail is dropped rather than parsed, and
/// report_io_failure() raises T004.
class LineSplitter {
 public:
  /// `diags` receives the T004 report (nullptr = strict: it throws).
  LineSplitter(std::unique_ptr<ByteSource> source, DiagEngine* diags);

  /// Produces the next line, terminator stripped; false at end of
  /// input. The view is valid until the next call. Inline for the
  /// common case, a whole line inside the current chunk.
  bool next(std::string_view& out) {
    if (!carry_active_ && chunk_pos_ < chunk_.size()) {
      const std::size_t nl =
          chunk_pos_ + find_nl_(chunk_.data() + chunk_pos_,
                                chunk_.size() - chunk_pos_);
      if (nl < chunk_.size()) {
        out = take_line(chunk_.substr(chunk_pos_, nl - chunk_pos_));
        chunk_pos_ = nl + 1;
        return true;
      }
    }
    return next_slow(out);
  }

  /// 1-based number of the line most recently produced.
  [[nodiscard]] std::uint32_t line_number() const noexcept { return line_; }

  /// Input bytes consumed so far (terminators counted only when present).
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

  /// Raises T004 once when the source died mid-stream: throws
  /// Error{Io} when strict, reports and returns otherwise. No-op on clean
  /// EOF or when already reported. Readers call it once next() has
  /// returned false and the records decoded so far have been handed out.
  void report_io_failure();

 private:
  /// next() past a chunk end: assembles a straddling line, refills, and
  /// handles the end of input.
  bool next_slow(std::string_view& out);

  /// Counts one '\n'-terminated line and strips it for the caller: a
  /// '\r' before the '\n' belongs to the terminator (CRLF), not to the
  /// last field.
  std::string_view take_line(std::string_view line) noexcept {
    std::size_t term = 1;
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
      term = 2;
    }
    bytes_ += line.size() + term;
    ++line_;
    return line;
  }

  std::unique_ptr<ByteSource> source_;
  DiagEngine* diags_;
  // Active-tier scanner, resolved once so the per-line call skips the
  // dispatch lookup.
  simd::FindNewlineFn find_nl_;
  std::uint32_t line_ = 0;
  std::uint64_t bytes_ = 0;
  // Unconsumed remainder of the current source chunk.
  std::string_view chunk_;
  std::size_t chunk_pos_ = 0;
  // Assembly buffer for lines straddling chunk boundaries. When the view
  // handed out by next() aliases carry_, carry_active_ is set and the
  // buffer is reclaimed on the following call.
  std::string carry_;
  bool carry_active_ = false;
  bool eof_ = false;
  bool io_failed_ = false;
  bool io_reported_ = false;
  // A torn partial tail was dropped (it is a fragment, not a final
  // line); mentioned in the T004 diagnostic.
  bool tail_discarded_ = false;
};

}  // namespace tdt::trace
