// Compact binary trace format ("TDTB"). The textual Gleipnir format is
// human-readable but ~40 bytes/record; long workloads (millions of
// records) read an order of magnitude faster from this varint-packed
// encoding. Strings are emitted once, on first use, as inline definitions.
//
// Version 2 appends a 12-byte footer after the end tag — the record
// count (8-byte little-endian) and a CRC-32 of every byte from the magic
// through the end tag (4-byte little-endian) — so truncation and bit
// corruption are detected instead of silently producing a wrong trace.
// Version 1 blobs (no footer) remain readable.
//
// Version 3 is the framed container (docs/FORMATS.md): records are
// grouped into independently-decodable frames — each frame carries its
// codec id, record count, compressed/uncompressed byte lengths, and a
// CRC-32 of the stored bytes — compressed per frame with zstd, lz4, or
// stored verbatim (codec none). Every frame redefines the strings it
// uses, so any frame decodes without the ones before it. After the end
// tag a frame index plus a fixed 28-byte footer (ending in the "TDTX"
// magic) make the container seekable: a reader jumps straight to any
// frame, and `--jobs N` decodes disjoint frames on worker threads while
// the consuming thread binds and hands them out in frame order —
// bit-identical to the sequential decode.
//
// The writer encodes each record with pointer stores into a staging
// buffer sized once for the record's worst case. On v3 that buffer is
// the frame payload; with a codec and `jobs` > 1 one pool thread
// compresses each full frame while the caller encodes the next, and the
// bytes are identical to the inline writer's.
//
// One reader decodes every version in place from one byte view: the
// file's FileView, or the caller's blob. v1/v2 bodies and v3 frame
// payloads go through one entry decoder; v3 frames through one ladder of
// checks (CRC, codec, decompression, payload, record count).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/codec.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "trace/stream.hpp"
#include "util/crc32.hpp"
#include "util/diag.hpp"

namespace tdt {
template <class Slot>
class OrderedPool;
}  // namespace tdt

namespace tdt::obs {
class Registry;
}  // namespace tdt::obs

namespace tdt::trace {

/// Default TDTB format version written by BinaryTraceWriter: plain v2.
/// Writers opt into the framed container (v3) via BinaryWriterOptions —
/// the CLI spelling is `--compress zstd|lz4|none[:level]`.
inline constexpr std::uint8_t kTdtbVersion = 2;

/// The framed, seekable, optionally-compressed container version.
inline constexpr std::uint8_t kTdtbVersionFramed = 3;

/// Default records per v3 frame. Big enough that per-frame codec and
/// symbol-redefinition overhead amortizes, small enough that a multi-MB
/// trace yields plenty of frames for parallel decode.
inline constexpr std::uint32_t kDefaultFrameRecords = 64 * 1024;

// Format caps shared by writer and reader. The reader treats a larger
// value as corruption (so a corrupt varint cannot drive a huge
// allocation), and the writer refuses to emit one.
inline constexpr std::uint64_t kMaxStringLen = 1u << 20;  ///< bytes per name
inline constexpr std::uint64_t kMaxSymbolId = 1u << 24;   ///< string id
inline constexpr std::uint64_t kMaxVarSteps = 1u << 12;   ///< selector steps

/// Writer-side format selection.
struct BinaryWriterOptions {
  std::uint8_t version = kTdtbVersion;  ///< 1, 2, or 3
  Codec codec = Codec::None;            ///< v3 frame codec
  int level = 0;                        ///< 0 = codec default
  std::uint32_t frame_records = kDefaultFrameRecords;  ///< v3 frame target
  /// Threads the writer may use (the tools' --jobs). Above 1, a v3
  /// writer with a codec compresses full frames on one pool thread; the
  /// output bytes are the same at any value.
  std::uint64_t jobs = 1;
};

/// What one writer did, for the write.* metrics (docs/OBSERVABILITY.md).
/// The seconds stay 0 unless BinaryTraceWriter::time_writes() was called.
struct WriteStats {
  std::uint64_t records = 0;
  std::uint64_t frames = 0;     ///< v3 frames (0 for v1/v2)
  std::uint64_t bytes = 0;      ///< bytes handed to the stream
  double encode_seconds = 0;    ///< calling thread, inside the writer
  double compress_seconds = 0;  ///< compressing and writing v3 frames
};

/// Adds `stats` to the write.* family of `registry`: the counters and
/// the seconds gauges both add up, so several writers in one run report
/// their sums (docs/OBSERVABILITY.md).
void fold_write_metrics(obs::Registry& registry, const WriteStats& stats);

/// One frame's index entry (v3).
struct TdtbFrameInfo {
  std::uint64_t offset = 0;   ///< file offset of the frame's tag byte
  std::uint64_t records = 0;  ///< records encoded in the frame
  std::uint64_t usize = 0;    ///< payload bytes before compression
  std::uint64_t csize = 0;    ///< stored (possibly compressed) payload bytes
  std::uint32_t crc = 0;      ///< CRC-32 of the stored payload bytes
  std::uint8_t codec = 0;     ///< Codec id for this frame
};

/// Container-level metadata delivered by probe_tdtb(). For v1/v2 blobs
/// only version/pid (and the v2 footer count) are known; for v3 with a
/// valid footer the full frame index is parsed and validated.
struct TdtbContainerInfo {
  std::uint8_t version = 0;
  std::uint64_t pid = 0;
  std::uint8_t default_codec = 0;    ///< v3 header codec byte
  bool has_index = false;            ///< v3 footer + index validated
  std::uint64_t total_records = 0;   ///< footer record count (v2/v3)
  std::uint64_t file_bytes = 0;
  std::vector<TdtbFrameInfo> frames; ///< populated only when has_index
};

/// Parses container metadata without decoding records. Returns nullopt
/// when `blob` is not a TDTB trace at all. A v3 blob gets has_index only
/// when its frames tile the body exactly — the first right after the
/// header, each next one where the last ended, the end tag right after
/// the last one and right before an index that agrees with every frame
/// header; otherwise the reader walks the frames in place and produces
/// the precise diagnostic.
[[nodiscard]] std::optional<TdtbContainerInfo> probe_tdtb(
    std::string_view blob) noexcept;

/// File variant of probe_tdtb() (maps or reads the file). nullopt when
/// the file cannot be opened or is not TDTB.
[[nodiscard]] std::optional<TdtbContainerInfo> probe_tdtb_file(
    const std::string& path) noexcept;

/// Why TDTB entries or a frame header failed to decode. The decoders
/// fill it without formatting anything; message() builds the diagnostic
/// text on the error path.
struct TdtbDecodeError {
  enum class Kind : std::uint8_t {
    VarintEof,          ///< input ends inside the varint field `what`
    BadVarint,          ///< `what` overflows 64 bits or runs past 10 bytes
    OverLimit,          ///< `what` holds `value`, above `limit`
    Invalid,            ///< `what` holds `value`, which no record may hold
    ShortString,        ///< input ends inside a string definition
    Redefined,          ///< string id `value` redefined within a frame
    BadTag,             ///< unknown entry tag `value`
    ShortRecord,        ///< input ends after a record tag
    Undefined,          ///< reference to undefined string id `value`
    ShortSteps,         ///< input ends inside selector steps
    NoEnd,              ///< input ends before the end tag
    ShortFrameHeader,   ///< input ends inside a frame header
    ShortFramePayload,  ///< input ends inside a frame's stored bytes
  };
  DiagCode code = DiagCode::BinTruncated;
  Kind kind = Kind::NoEnd;
  bool in_frame = false;    ///< inside a v3 frame payload
  const char* what = "";    ///< the field, for varint and limit errors
  std::uint64_t value = 0;  ///< offending value, tag or string id
  std::uint64_t limit = 0;

  [[nodiscard]] std::string message() const;
};

/// Parses the v3 frame header whose tag byte sits at `blob[offset]`.
/// On success `*payload_offset` receives the file offset of the stored
/// payload bytes. nullopt on structural corruption; `*why`, when given,
/// then says what failed.
[[nodiscard]] std::optional<TdtbFrameInfo> parse_frame_header(
    std::string_view blob, std::uint64_t offset,
    std::uint64_t* payload_offset, TdtbDecodeError* why = nullptr) noexcept;

/// The TDTB reader over a whole file: mapped, or read whole when it is a
/// pipe. The version byte picks the layout, so tools never need a format
/// flag:
///
/// - v3 with a valid frame index decodes its frames on `options.jobs`
///   workers (inline at 1) and hands them out in frame order;
/// - v3 without one walks its frames in place, inline;
/// - v1/v2 decode their body in place and release the pages behind the
///   decode point as they go.
///
/// Without a DiagEngine (or with a Strict one) any corruption throws
/// Error{Parse}. With Skip, corruption is reported and the trace ends
/// with every record decoded so far. With Repair, a v3 frame that fails
/// in isolation (CRC, codec, decompression, payload, record count) is
/// reported and dropped, and reading resumes at the next frame; v1/v2
/// Repair behaves like Skip. A footer or index that disagrees with what
/// was decoded is reported without discarding records. A bad magic or
/// version is always fatal. Throws Error{Io} when the file cannot be
/// opened.
[[nodiscard]] std::unique_ptr<SourceCursor> open_tdtb_cursor(
    TraceContext& ctx, const std::string& path,
    const ViewSourceOptions& options);

/// Streaming binary writer (v1, v2, or the v3 framed container).
///
/// Records are encoded into a staging buffer: on v3 it is the current
/// frame's payload; on v1/v2 it reaches the stream and the running CRC
/// in blocks. An OrderedPool compresses and checksums each full v3 frame,
/// on one thread for a codec and `jobs` > 1, else inline, while the
/// caller encodes the next into a second payload buffer. The caller then
/// writes the frame and its index entry, so only the calling thread
/// touches the stream, and a job's error is rethrown there.
class BinaryTraceWriter {
 public:
  /// `version` selects the on-disk format (1 = legacy footer-less, 2 =
  /// count+CRC footer); anything else throws Error{Config}.
  BinaryTraceWriter(const TraceContext& ctx, std::ostream& out,
                    std::uint64_t pid = 0, std::uint8_t version = kTdtbVersion);

  /// Full-options constructor; version 3 enables framing/compression.
  /// Throws Error{Config} for an unsupported version, a codec on a
  /// non-v3 version, or a codec unavailable in this process.
  BinaryTraceWriter(const TraceContext& ctx, std::ostream& out,
                    std::uint64_t pid, const BinaryWriterOptions& options);

  /// Joins the pool thread, if one runs; frames not yet written are
  /// dropped with the rest of an unfinished container.
  ~BinaryTraceWriter();

  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  /// Appends one record. Throws Error{Semantic} for a record the format
  /// cannot carry (a name over kMaxStringLen bytes, a symbol id over
  /// kMaxSymbolId, or more than kMaxVarSteps selector steps).
  void write(const TraceRecord& rec);

  /// Appends a batch of records (timed when time_writes() is on).
  void write_batch(std::span<const TraceRecord> batch);

  /// Writes the last frames, the end marker and the version's trailer
  /// (v2: count+CRC footer; v3: frame index + container footer); further
  /// writes are invalid.
  void finish();

  /// Throws Error{Io} when the stream has failed.
  void check();

  /// Times encoding and frame compression for stats() from now on.
  void time_writes() noexcept { timed_ = true; }

  /// Counts and times; complete once finish() has returned.
  [[nodiscard]] WriteStats stats() const noexcept;

  /// Records written so far.
  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return record_count_;
  }

  /// Frames flushed so far (v3; 0 otherwise).
  [[nodiscard]] std::uint64_t frames_written() const noexcept {
    return frames_;
  }

 private:
  struct Frame;

  void encode(const TraceRecord& rec);
  void define_symbol_if_new(Symbol s) {
    if (s.id() < defined_.size() && defined_[s.id()] != 0) return;
    define_symbol(s);
  }
  void define_symbol(Symbol s);
  char* reserve(std::size_t n) {
    if (buf_.size() - len_ < n) [[unlikely]] grow(n);
    return buf_.data() + len_;
  }
  void grow(std::size_t n);
  void commit(const char* end) noexcept {
    len_ = static_cast<std::size_t>(end - buf_.data());
  }
  void flush_block();                 // v1/v2: staging buffer -> stream
  void raw_bytes(const char* data, std::size_t len);  // v3: straight out
  void end_frame();                   // v3: feed the frame to the pool
  bool pack_frame(Frame& frame) const;  // v3: the pool's job
  void write_pending_frame();         // v3: take the frame fed before

  const TraceContext* ctx_;
  std::ostream* out_;
  std::uint8_t version_;
  Codec codec_ = Codec::None;
  int level_ = 0;
  std::uint32_t frame_target_ = kDefaultFrameRecords;
  std::vector<std::uint8_t> defined_;  // by symbol id: definition emitted
  std::vector<std::uint32_t> frame_defined_ids_;  // v3: reset per frame
  std::string buf_;      // staging buffer; bytes [0, len_) are encoded
  std::size_t len_ = 0;
  std::uint64_t frame_record_count_ = 0;
  std::uint64_t prev_addr_ = 0;  // v3: address delta base, reset per frame
  std::uint64_t record_count_ = 0;
  std::uint64_t frames_ = 0;
  Crc32 crc_;            // v1/v2
  bool finished_ = false;
  bool timed_ = false;
  double encode_seconds_ = 0;
  std::vector<TdtbFrameInfo> index_;  // v3: one entry per frame written
  std::uint64_t offset_ = 0;  // bytes written to out_
  double compress_seconds_ = 0;
  std::unique_ptr<OrderedPool<Frame>> pool_;  // v3; last: joined first
};

/// TraceSink adapter writing a TDTB trace as records stream through, so
/// a pipeline (reader -> transformer -> ...) can emit a binary trace
/// without materializing the record vector. finish() runs at on_end();
/// batch boundaries check stream health (ENOSPC surfaces as Error{Io}),
/// on the calling thread, so the writer.flush fault schedule is the
/// same with or without a pool thread.
class BinaryTraceSink final : public TraceSink {
 public:
  BinaryTraceSink(const TraceContext& ctx, std::ostream& out,
                  std::uint64_t pid = 0, const BinaryWriterOptions& options =
                                             BinaryWriterOptions{})
      : writer_(ctx, out, pid, options), out_(&out) {}

  void on_record(const TraceRecord& rec) override { writer_.write(rec); }
  void push_batch(std::span<const TraceRecord> batch) override {
    writer_.write_batch(batch);
    check_health();
  }
  void on_end() override {
    writer_.finish();
    out_->flush();
    check_health();
  }

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return writer_.records_written();
  }

  /// See BinaryTraceWriter::time_writes() / stats().
  void time_writes() noexcept { writer_.time_writes(); }
  [[nodiscard]] WriteStats stats() const noexcept { return writer_.stats(); }

 private:
  void check_health();

  BinaryTraceWriter writer_;
  std::ostream* out_;
};

/// Serializes a whole trace to a binary blob.
std::vector<char> write_binary_trace(const TraceContext& ctx,
                                     std::span<const TraceRecord> records,
                                     std::uint64_t pid = 0,
                                     std::uint8_t version = kTdtbVersion);

/// Options variant (framed container, compression).
std::vector<char> write_binary_trace(const TraceContext& ctx,
                                     std::span<const TraceRecord> records,
                                     std::uint64_t pid,
                                     const BinaryWriterOptions& options);

/// Parses a whole binary blob in place through the same reader, inline.
/// `diags` selects the recovery policy (nullptr = strict).
std::vector<TraceRecord> read_binary_trace(TraceContext& ctx,
                                           std::span<const char> blob,
                                           std::uint64_t* pid = nullptr,
                                           DiagEngine* diags = nullptr);

}  // namespace tdt::trace
