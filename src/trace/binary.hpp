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
// the frame payload; with a codec and `jobs` > 1 one writer thread
// compresses, checksums and writes each full frame while the caller
// encodes the next, and the bytes are identical to the inline writer's.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/codec.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "util/crc32.hpp"
#include "util/diag.hpp"

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
  /// writer with a codec hands full frames to one writer thread; the
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
/// when `blob` is not a TDTB trace at all; a v3 blob whose index or
/// footer fails validation comes back with has_index == false (the
/// sequential reader will produce the precise diagnostic).
[[nodiscard]] std::optional<TdtbContainerInfo> probe_tdtb(
    std::string_view blob) noexcept;

/// File variant of probe_tdtb() (maps or reads the file). nullopt when
/// the file cannot be opened or is not TDTB.
[[nodiscard]] std::optional<TdtbContainerInfo> probe_tdtb_file(
    const std::string& path) noexcept;

/// Parses the v3 frame header whose tag byte sits at `blob[offset]`.
/// On success `*payload_offset` receives the file offset of the stored
/// payload bytes. nullopt on structural corruption.
[[nodiscard]] std::optional<TdtbFrameInfo> parse_frame_header(
    std::string_view blob, std::uint64_t offset,
    std::uint64_t* payload_offset) noexcept;

/// A frame decoded without touching the shared string pool (phase one of
/// the two-phase decode): record symbol fields carry *frame-local string
/// ids* (not interned symbols) and `defs` lists the frame's string
/// definitions in definition order, viewing into the payload buffer.
/// Worker threads produce DecodedFrames concurrently; a single consumer
/// thread calls bind_frame() in frame order, which makes interning
/// single-writer and keeps symbol ids identical to a sequential decode.
struct DecodedFrame {
  std::vector<TraceRecord> records;
  std::vector<std::pair<std::uint64_t, std::string_view>> defs;
  bool ok = true;            ///< false: `error_code`/`error` describe why,
                             ///< `records` holds the decoded prefix
  DiagCode error_code = DiagCode::BinTruncated;
  std::string error;

  // Decoder scratch (definition-seen map), reused across frames.
  std::vector<std::uint32_t> seen_defs;
  std::vector<std::uint64_t> seen_ids;
};

/// Phase one: decodes one uncompressed frame payload into `out`.
/// Thread-safe (no shared state); `payload` must outlive `out.defs`.
/// Every symbol a record references must be defined earlier in the same
/// frame (frames are independently decodable); a mid-frame redefinition
/// with different text is corruption.
void decode_frame_payload(std::string_view payload, DecodedFrame& out);

/// Phase two: interns `frame.defs` in definition order and rewrites the
/// frame-local ids in `frame.records` to interned symbols. `symbol_map`
/// is caller-owned scratch reused across frames. Call in frame order
/// from a single thread.
void bind_frame(TraceContext& ctx, DecodedFrame& frame,
                std::vector<Symbol>& symbol_map);

/// bind_frame() in two steps, for callers that keep the frame's records
/// elsewhere: intern_frame_defs() interns the definitions (same calling
/// rules) and returns true when every id interned to itself, in which
/// case the records need no rewrite; otherwise remap_frame_records()
/// rewrites them.
bool intern_frame_defs(TraceContext& ctx, const DecodedFrame& frame,
                       std::vector<Symbol>& symbol_map);
void remap_frame_records(std::span<TraceRecord> records,
                         const std::vector<Symbol>& symbol_map);

/// Streaming binary writer (v1, v2, or the v3 framed container).
///
/// Records are encoded into a staging buffer: on v3 it is the current
/// frame's payload; on v1/v2 it reaches the stream and the running CRC
/// in blocks. A v3 writer with a codec and `jobs` > 1 starts one writer
/// thread at its first full frame. From then until finish() (or the
/// destructor) joins it, that thread alone touches the stream: it
/// compresses, checksums and writes the frames in order and records
/// their index entries, while the caller encodes into the second of two
/// recycled payload buffers. An error on the writer thread is rethrown
/// by the next write_batch(), check(), or finish().
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

  /// Joins the writer thread, if one runs; frames not yet written are
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

  /// Writes the end marker and the version's trailer (v2: count+CRC
  /// footer; v3: frame index + container footer); further writes are
  /// invalid. Joins the writer thread first.
  void finish();

  /// Throws Error{Io} when the stream has failed or the writer thread
  /// stopped on an error. Reads the stream state only while no writer
  /// thread owns it.
  void check();

  /// Fails the stream as a full disk would (fault injection): joins the
  /// writer thread, then sets the stream's failbit.
  void fail_stream();

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
  struct FrameThread;

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
  void end_frame(bool last);          // v3: hand off or store the frame
  void store_frame(std::string_view payload, std::uint64_t records);
  void submit_frame();                // to the writer thread
  void frame_thread_main();
  void stop_thread() noexcept;

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
  // Frame output state: the writer thread's while it runs, else the
  // caller's.
  std::string comp_buf_;  // v3: compression scratch
  std::vector<TdtbFrameInfo> index_;
  std::uint64_t offset_ = 0;  // bytes written to out_
  double compress_seconds_ = 0;
  std::unique_ptr<FrameThread> thread_;  // v3 with a codec and jobs > 1
};

/// Streaming binary reader for v1, v2, and v3 blobs (the version byte is
/// auto-detected; tools never need a format flag).
///
/// Without a DiagEngine (or with a Strict one) any corruption throws
/// Error{Parse}. With Skip, mid-stream corruption (truncation, bad
/// varint, undefined symbol, unknown tag, corrupt frame) is reported and
/// the trace ends early with every record decoded so far salvaged. With
/// Repair, a v3 frame that fails in isolation (CRC mismatch, unknown
/// codec, failed decompression, undecodable payload) is reported and
/// *dropped*, and reading resumes at the next frame — frame isolation is
/// exactly what the framed container buys; v1/v2 Repair behaves like
/// Skip. Footer/index mismatches are reported but do not discard decoded
/// records. A bad magic or unsupported version is always fatal.
class BinaryTraceReader {
 public:
  BinaryTraceReader(TraceContext& ctx, std::istream& in,
                    DiagEngine* diags = nullptr);

  /// Reads the next record; returns false at the end of the trace.
  bool next(TraceRecord& out);

  [[nodiscard]] std::uint64_t pid() const noexcept { return pid_; }

  /// Format version of the open blob (1, 2, or 3).
  [[nodiscard]] std::uint8_t version() const noexcept { return version_; }

  /// Header codec byte (v3); Codec::None otherwise.
  [[nodiscard]] Codec default_codec() const noexcept { return default_codec_; }

  /// Records decoded so far.
  [[nodiscard]] std::uint64_t records_read() const noexcept {
    return record_count_;
  }

  /// Input bytes consumed so far (obs integration).
  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return bytes_read_;
  }

  /// v3 frames decoded so far (read.frames counter).
  [[nodiscard]] std::uint64_t frames_read() const noexcept {
    return frames_read_;
  }

  /// v3 stored (compressed) payload bytes consumed so far
  /// (read.compressed_bytes counter).
  [[nodiscard]] std::uint64_t compressed_bytes() const noexcept {
    return compressed_bytes_;
  }

 private:
  struct RecoverEnd;  // unwinds next() when a recoverable error was reported

  [[noreturn]] void fail(DiagCode code, std::string message);
  void frame_error(DiagCode code, std::string message);  // v3 frame-local
  int next_byte();  // -1 at eof; feeds the CRC
  bool read_exact(char* dst, std::size_t len);
  std::uint64_t get_varint();
  std::uint64_t get_varint_max(std::uint64_t max_value, DiagCode code,
                               const char* what);
  void check_footer();            // v2 count+CRC footer
  void check_container_footer();  // v3 index + footer
  Symbol map_symbol(std::uint64_t file_id);
  bool next_v12(TraceRecord& out);
  bool next_v3(TraceRecord& out);
  bool load_frame();  // v3: fills pending_; false = frame dropped (Repair)

  TraceContext* ctx_;
  std::istream* in_;
  DiagEngine* diags_;
  std::uint64_t pid_ = 0;
  std::uint8_t version_ = 1;
  Codec default_codec_ = Codec::None;
  std::uint64_t record_count_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t frames_read_ = 0;
  std::uint64_t compressed_bytes_ = 0;
  Crc32 crc_;
  bool done_ = false;
  std::vector<Symbol> symbol_map_;  // file id -> ctx symbol
  // v3 state: decoded records of the current frame, served in order.
  std::vector<TraceRecord> pending_;
  std::size_t pending_pos_ = 0;
  std::string stored_;   // current frame's stored bytes
  std::string payload_;  // decompression scratch
  DecodedFrame frame_;   // phase-one scratch
};

/// TraceSink adapter writing a TDTB trace as records stream through, so
/// a pipeline (reader -> transformer -> ...) can emit a binary trace
/// without materializing the record vector. finish() runs at on_end();
/// batch boundaries check stream health (ENOSPC surfaces as Error{Io}),
/// on the calling thread, so the writer.flush fault schedule is the
/// same with or without a writer thread.
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

/// Parses a whole binary blob. `diags` selects the recovery policy
/// (nullptr = strict).
std::vector<TraceRecord> read_binary_trace(TraceContext& ctx,
                                           std::span<const char> blob,
                                           std::uint64_t* pid = nullptr,
                                           DiagEngine* diags = nullptr);

}  // namespace tdt::trace
