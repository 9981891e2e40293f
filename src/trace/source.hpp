// Pluggable byte sources feeding the Gleipnir text reader.
//
// The reader consumes input as a sequence of chunks — contiguous byte
// runs whose lifetime lasts until the next chunk is requested — and a
// ByteSource decides where those chunks come from:
//
//   MemorySource      caller-owned text, one zero-copy chunk
//   MmapSource        a regular file mapped read-only; chunks are
//                     newline-aligned slices of the mapping, so line
//                     parsing is zero-copy end to end
//   StreamSource      blocking block reads from any std::istream (the
//                     reference source; also the mmap fallback)
//   OverlappedSource  double-buffered reads from a pipe/stdin/socket
//                     stream: a helper thread prefetches block N+1
//                     while the parser consumes block N
//
// Every source passes the fault::Site::ReaderRead injection point once
// per chunk request (MemorySource excepted — in-memory text has no I/O
// to fail), so the torn-read recovery contract (diagnostic T004,
// docs/robustness.md) is exercised identically on all ingest paths.
#pragma once

#include <cstddef>
#include <istream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include <condition_variable>
#include <mutex>

#include "trace/codec.hpp"

namespace tdt::trace {

/// Block size for streaming sources. Large enough that refills are
/// rare, small enough to stay cache-friendly.
inline constexpr std::size_t kIngestBlock = 256 * 1024;

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

  /// Backend name for diagnostics and metrics ("memory", "mmap",
  /// "stream", "overlapped").
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
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
  [[nodiscard]] std::string_view name() const noexcept override {
    return "memory";
  }

 private:
  std::string_view text_;
};

/// Blocking block reads from a std::istream. The reference streaming
/// source: one read per chunk, fault site checked before each read.
class StreamSource final : public ByteSource {
 public:
  /// Borrows `in`; the stream must outlive the source. `block` is a
  /// test knob (small blocks force lines to straddle chunks).
  explicit StreamSource(std::istream& in, std::size_t block = kIngestBlock);

  /// Opens `path` in binary mode. Throws Error{Io} when it cannot.
  static std::unique_ptr<StreamSource> open(const std::string& path);

  [[nodiscard]] std::string_view next_chunk() override;
  [[nodiscard]] bool failed() const noexcept override { return failed_; }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "stream";
  }

 private:
  std::unique_ptr<std::istream> owned_;  // set by open()
  std::istream* in_;
  std::string buf_;
  bool failed_ = false;
  bool done_ = false;
};

/// A regular file mapped read-only. Chunks are slices of the mapping
/// cut at the last newline inside each slice (the final slice, or a
/// slice containing no newline at all, is delivered whole), so the
/// reader never has to copy a straddling line. Unavailable on
/// non-POSIX builds; open() then returns nullptr and callers fall back
/// to StreamSource.
class MmapSource final : public ByteSource {
 public:
  /// Maps `path` when it names a non-empty regular file; nullptr when
  /// mapping is impossible (missing file, pipe/device, empty file,
  /// platform without mmap) — never throws for fallback-able causes. A
  /// pipe is never opened here, so the fallback's open is its only one.
  /// `chunk` is a test knob bounding slice size.
  static std::unique_ptr<MmapSource> open(const std::string& path,
                                          std::size_t chunk = kDefaultChunk);

  ~MmapSource() override;
  MmapSource(const MmapSource&) = delete;
  MmapSource& operator=(const MmapSource&) = delete;

  [[nodiscard]] std::string_view next_chunk() override;
  [[nodiscard]] bool failed() const noexcept override { return failed_; }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "mmap";
  }

  /// Default slice size (16 read blocks): big enough to amortize the
  /// per-chunk bookkeeping, small enough that the ReaderRead fault site
  /// sees several opportunities on multi-MiB traces.
  static constexpr std::size_t kDefaultChunk = 16 * kIngestBlock;

 private:
  MmapSource(const char* base, std::size_t size, std::size_t chunk) noexcept
      : base_(base), size_(size), chunk_(chunk) {}

  const char* base_;
  std::size_t size_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  bool done_ = false;
};

/// Double-buffered overlapped reads: a helper thread fills block N+1
/// while the consumer parses block N, hiding pipe/stdin latency behind
/// parse time. The prefetch thread is the only one touching the
/// istream, and it passes the ReaderRead fault site before every read,
/// in read order — fault schedules are as deterministic as the
/// synchronous source's.
class OverlappedSource final : public ByteSource {
 public:
  /// Borrows `in`; the stream must outlive the source.
  explicit OverlappedSource(std::istream& in,
                            std::size_t block = kIngestBlock);

  /// Opens `path` in binary mode. Throws Error{Io} when it cannot.
  static std::unique_ptr<OverlappedSource> open(const std::string& path);

  ~OverlappedSource() override;
  OverlappedSource(const OverlappedSource&) = delete;
  OverlappedSource& operator=(const OverlappedSource&) = delete;

  [[nodiscard]] std::string_view next_chunk() override;
  [[nodiscard]] bool failed() const noexcept override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "overlapped";
  }

 private:
  struct Slot {
    std::string data;
    std::size_t len = 0;
    bool ready = false;  // filled by the prefetcher, not yet consumed
  };

  void prefetch_main();

  std::unique_ptr<std::istream> owned_;  // set by open()
  std::istream* in_;
  Slot slots_[2];
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t produce_ = 0;  // slot the prefetcher fills next
  std::size_t consume_ = 0;  // slot next_chunk() delivers next
  bool eof_ = false;         // prefetcher finished (under mu_)
  bool failed_ = false;      // under mu_ until eof_, then stable
  bool stop_ = false;        // destructor tells the prefetcher to quit
  std::size_t delivered_ = 0;  // chunks handed out (consumer thread only)
  std::thread prefetcher_;
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
  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;  // "gzip+<inner>", e.g. "gzip+mmap"
  }

 private:
  bool refill();  // feeds the next compressed chunk to the inflater

  std::unique_ptr<ByteSource> inner_;
  std::unique_ptr<GzipInflater> inflater_;
  std::string head_;  // sniffed bytes, inflated before the inner source
  std::string name_;
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

 private:
  FileView() = default;

  const char* base_ = nullptr;
  std::size_t size_ = 0;
  std::size_t released_ = 0;  // bytes already given back
  bool mapped_ = false;
  std::string buf_;  // fallback storage when mmap is impossible
};

/// How open_trace_byte_source picks a backend.
enum class IngestMode : std::uint8_t {
  Auto,        ///< mmap for regular files, overlapped for pipes/stdin
  Stream,      ///< force synchronous StreamSource
  Mmap,        ///< force MmapSource (throws Error{Io} when impossible)
  Overlapped,  ///< force OverlappedSource
};

/// Opens the best byte source for `path`: "-" reads stdin through an
/// OverlappedSource; regular files map via MmapSource (set TDT_NO_MMAP=1
/// to disable); pipes/devices and mmap failures fall back to streams.
/// Input starting with the gzip magic (0x1f 0x8b) is wrapped in a
/// GzipSource regardless of backend or file name, so `.gz` traces ingest
/// transparently. Throws Error{Io} when the path cannot be opened at
/// all, Error{Config} for gzip input without built-in zlib.
[[nodiscard]] std::unique_ptr<ByteSource> open_trace_byte_source(
    const std::string& path, IngestMode mode = IngestMode::Auto);

/// Backend selection without the gzip sniff (open_trace_byte_source is
/// this plus transparent decompression). Exposed for tests and callers
/// that must see raw bytes.
[[nodiscard]] std::unique_ptr<ByteSource> open_raw_byte_source(
    const std::string& path, IngestMode mode = IngestMode::Auto);

}  // namespace tdt::trace
