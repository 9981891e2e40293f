#include "trace/binary.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "trace/source.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/obs.hpp"
#include "util/ordered_pool.hpp"

namespace tdt::trace {
namespace {

constexpr char kMagic[4] = {'T', 'D', 'T', 'B'};
constexpr char kIndexMagic[4] = {'T', 'D', 'T', 'X'};

// Entry tags.
constexpr std::uint8_t kTagRecord = 0;
constexpr std::uint8_t kTagString = 1;
constexpr std::uint8_t kTagEnd = 2;
constexpr std::uint8_t kTagFrame = 3;  // v3 shard

// Sanity caps beyond the shared ones in binary.hpp: a corrupt varint
// must not drive a huge allocation or an unbounded loop before the
// corruption is noticed.
constexpr int kMaxVarintBytes = 10;  // ceil(64 / 7)
constexpr std::uint64_t kMaxFrameRecords = 1u << 27;
constexpr std::uint64_t kMaxFrameBytes = 1u << 30;

constexpr std::size_t kFooterSize = 12;  // v2: u64 count + u32 crc, both LE
// v3: u64 records + u64 frames + u32 index len + u32 index crc + "TDTX".
constexpr std::size_t kContainerFooterSize = 28;

void put_le(char* out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

std::uint64_t get_le(const char* in, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  return v;
}

// Zigzag maps the two's-complement address delta to an unsigned value
// whose varint stays short for small steps in either direction. The
// subtraction/addition wrap mod 2^64, so every (prev, next) pair round
// trips regardless of magnitude.
constexpr std::uint64_t zigzag(std::uint64_t delta) noexcept {
  const auto s = static_cast<std::int64_t>(delta);
  return (static_cast<std::uint64_t>(s) << 1) ^
         static_cast<std::uint64_t>(s >> 63);
}

constexpr std::uint64_t unzigzag(std::uint64_t z) noexcept {
  return (z >> 1) ^ (~(z & 1) + 1);
}

// Bounded varint from memory. False on truncation or 64-bit overflow.
bool mem_varint(const char*& p, const char* end, std::uint64_t& v) noexcept {
  if (p != end) {
    // Single-byte values dominate delta-coded frames; settle them
    // without entering the shift loop.
    const std::uint8_t b0 = static_cast<std::uint8_t>(*p);
    if ((b0 & 0x80) == 0) {
      v = b0;
      ++p;
      return true;
    }
  }
  v = 0;
  int shift = 0;
  for (int n = 0; n < kMaxVarintBytes; ++n) {
    if (p == end) return false;
    const std::uint8_t b = static_cast<std::uint8_t>(*p++);
    if (n == kMaxVarintBytes - 1 && (b & 0x7F) > 1) return false;
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}

}  // namespace

// --- writer -----------------------------------------------------------------

namespace {

// Worst-case encoded sizes. A record is a tag, the packed kind|scope
// byte and at most seven varints (address, size, function, frame,
// thread, variable base, step count), plus a flag byte and a varint per
// selector step; kMaxVarSteps bounds the steps, so one record never
// needs more than about 45 KB of headroom.
constexpr std::size_t kRecordHeadBytes = 2 + 7 * kMaxVarintBytes;
constexpr std::size_t kStepBytes = 1 + kMaxVarintBytes;
// Frame header: tag, codec, three varints and the CRC.
constexpr std::size_t kFrameHeadBytes = 2 + 3 * kMaxVarintBytes + 4;
// v1/v2 hand the staging buffer to the stream (and the CRC) in blocks of
// about this many bytes.
constexpr std::size_t kBlockBytes = 64 * 1024;

char* put_varint(char* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

[[noreturn]] void throw_cap_error(std::uint64_t record, const char* what,
                                  std::uint64_t value, std::uint64_t cap,
                                  const char* cap_name) {
  throw Error(ErrorKind::Semantic,
              "cannot write record " + std::to_string(record) +
                  " as TDTB: " + what + " value " + std::to_string(value) +
                  " exceeds limit " + std::to_string(cap) + " (" + cap_name +
                  "; TDTB readers reject it)");
}

[[noreturn, gnu::cold]] void throw_illegal_field(std::uint64_t record,
                                                 const char* what,
                                                 std::uint64_t value) {
  throw Error(ErrorKind::Semantic,
              "cannot write record " + std::to_string(record) +
                  " as TDTB: " + what + " value " + std::to_string(value) +
                  " is invalid (TDTB readers reject it)");
}

[[noreturn]] void throw_write_failed() {
  throw Error(ErrorKind::Io,
              "binary trace write failed (disk full or closed stream?)");
}

double seconds_since(std::chrono::steady_clock::time_point t0) noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

/// One v3 frame on its way out: the caller encodes `payload`, a pool
/// job compresses and checksums it into `stored`, and the caller writes
/// it in frame order.
struct BinaryTraceWriter::Frame {
  std::string payload;  // bytes [0, len) are the encoded records
  std::size_t len = 0;
  std::uint64_t records = 0;
  std::string packed;       // compressed payload, when there is a codec
  std::string_view stored;  // payload or packed
  std::uint32_t crc = 0;
  double seconds = 0;       // compressing and checksumming
};

BinaryTraceWriter::BinaryTraceWriter(const TraceContext& ctx,
                                     std::ostream& out, std::uint64_t pid,
                                     std::uint8_t version)
    : BinaryTraceWriter(ctx, out, pid, BinaryWriterOptions{.version = version}) {
}

BinaryTraceWriter::BinaryTraceWriter(const TraceContext& ctx,
                                     std::ostream& out, std::uint64_t pid,
                                     const BinaryWriterOptions& options)
    : ctx_(&ctx),
      out_(&out),
      version_(options.version),
      codec_(options.codec),
      level_(options.level),
      frame_target_(options.frame_records == 0 ? kDefaultFrameRecords
                                               : options.frame_records) {
  if (version_ != 1 && version_ != 2 && version_ != kTdtbVersionFramed) {
    throw_config_error("unsupported TDTB writer version " +
                       std::to_string(version_));
  }
  if (codec_ != Codec::None && version_ != kTdtbVersionFramed) {
    throw_config_error(
        "compression requires the framed container (TDTB v3); "
        "writer version " +
        std::to_string(version_) + " cannot carry codec '" +
        std::string(codec_name(codec_)) + "'");
  }
  if (codec_ != Codec::None && !codec_available(codec_)) {
    throw_config_error("codec '" + std::string(codec_name(codec_)) +
                       "' is unavailable in this process (shared library "
                       "not found or TDT_NO_CODEC set); use --compress "
                       "none or install the codec library");
  }
  char* p = reserve(4 + 1 + kMaxVarintBytes + 1);
  std::memcpy(p, kMagic, 4);
  p += 4;
  *p++ = static_cast<char>(version_);
  p = put_varint(p, pid);
  if (version_ >= kTdtbVersionFramed) {
    *p++ = static_cast<char>(codec_);  // container default codec
    // The v3 header sits outside every frame: straight to the stream.
    raw_bytes(buf_.data(), static_cast<std::size_t>(p - buf_.data()));
    // Only compression is worth a thread; stored frames pack inline. The
    // window of one frame keeps two payload buffers: one compresses
    // while the caller encodes into the other.
    const std::size_t threads =
        codec_ != Codec::None && options.jobs > 1 ? 1 : 0;
    pool_ = std::make_unique<OrderedPool<Frame>>(
        threads, 1, [this](std::uint64_t, Frame& f) { return pack_frame(f); },
        OrderedPool<Frame>::Start::Fed);
  } else {
    commit(p);
  }
}

BinaryTraceWriter::~BinaryTraceWriter() = default;

void BinaryTraceWriter::grow(std::size_t n) {
  buf_.resize(std::max(buf_.size() * 2, len_ + n));
}

void BinaryTraceWriter::flush_block() {
  out_->write(buf_.data(), static_cast<std::streamsize>(len_));
  crc_.update(buf_.data(), len_);
  offset_ += len_;
  len_ = 0;
}

void BinaryTraceWriter::raw_bytes(const char* data, std::size_t len) {
  out_->write(data, static_cast<std::streamsize>(len));
  offset_ += len;
}

void BinaryTraceWriter::define_symbol(Symbol s) {
  if (s.id() > kMaxSymbolId) {
    throw_cap_error(record_count_, "string id", s.id(), kMaxSymbolId,
                    "kMaxSymbolId");
  }
  const std::string_view text = ctx_->name(s);
  if (text.size() > kMaxStringLen) {
    throw_cap_error(record_count_, "string length", text.size(),
                    kMaxStringLen, "kMaxStringLen");
  }
  if (s.id() >= defined_.size()) defined_.resize(s.id() + 1, 0);
  defined_[s.id()] = 1;
  if (version_ >= kTdtbVersionFramed) frame_defined_ids_.push_back(s.id());
  char* p = reserve(1 + 2 * kMaxVarintBytes + text.size());
  *p++ = static_cast<char>(kTagString);
  p = put_varint(p, s.id());
  p = put_varint(p, text.size());
  std::memcpy(p, text.data(), text.size());
  commit(p + text.size());
}

void BinaryTraceWriter::encode(const TraceRecord& rec) {
  const auto kind = static_cast<unsigned>(rec.kind);
  const auto scope = static_cast<unsigned>(rec.scope);
  if (!legal_kind_code(kind)) [[unlikely]] {
    throw_illegal_field(record_count_, "access kind", kind);
  }
  if (!legal_scope_code(scope)) [[unlikely]] {
    throw_illegal_field(record_count_, "scope", scope);
  }
  if (!legal_access_size(rec.size)) [[unlikely]] {
    throw_illegal_field(record_count_, "access size", rec.size);
  }
  const bool has_var = rec.scope != VarScope::Unknown;
  const std::size_t nsteps = rec.var.steps.size();
  if (has_var && nsteps > kMaxVarSteps) [[unlikely]] {
    throw_cap_error(record_count_, "step count", nsteps, kMaxVarSteps,
                    "kMaxVarSteps");
  }
  define_symbol_if_new(rec.function);
  if (!rec.var.empty()) {
    define_symbol_if_new(rec.var.base);
    for (const VarStep& step : rec.var.steps) {
      if (step.is_field) define_symbol_if_new(step.field);
    }
  }
  const bool framed = version_ >= kTdtbVersionFramed;
  char* p = reserve(kRecordHeadBytes + (has_var ? nsteps * kStepBytes : 0));
  *p++ = static_cast<char>(kTagRecord);
  *p++ = static_cast<char>(kind | (scope << 3));
  // v3 frames store addresses as zigzag deltas from the previous record
  // in the same frame; strided access patterns collapse to one-byte
  // varints.
  p = put_varint(p, framed ? zigzag(rec.address - prev_addr_) : rec.address);
  prev_addr_ = rec.address;
  p = put_varint(p, rec.size);
  p = put_varint(p, rec.function.id());
  p = put_varint(p, rec.frame);
  p = put_varint(p, rec.thread);
  if (has_var) {
    p = put_varint(p, rec.var.base.id());
    p = put_varint(p, nsteps);
    for (const VarStep& step : rec.var.steps) {
      *p++ = static_cast<char>(step.is_field ? 1 : 0);
      p = put_varint(p, step.is_field ? step.field.id() : step.index);
    }
  }
  commit(p);
  ++record_count_;
  if (framed) {
    if (++frame_record_count_ >= frame_target_) end_frame();
  } else if (len_ >= kBlockBytes) {
    flush_block();
  }
}

void BinaryTraceWriter::write(const TraceRecord& rec) {
  internal_check(!finished_, "write after finish");
  encode(rec);
}

void BinaryTraceWriter::write_batch(std::span<const TraceRecord> batch) {
  internal_check(!finished_, "write after finish");
  const auto t0 = timed_ ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  for (const TraceRecord& rec : batch) encode(rec);
  if (timed_) encode_seconds_ += seconds_since(t0);
}

void BinaryTraceWriter::end_frame() {
  if (frame_record_count_ == 0 && len_ == 0) return;
  write_pending_frame();
  Frame& frame = pool_->feed_slot();
  buf_.swap(frame.payload);
  frame.len = len_;
  frame.records = frame_record_count_;
  pool_->feed();
  ++frames_;
  len_ = 0;
  frame_record_count_ = 0;
  // The next frame must decode on its own: forget this frame's symbol
  // definitions so first use re-emits them.
  for (std::uint32_t id : frame_defined_ids_) defined_[id] = 0;
  frame_defined_ids_.clear();
  prev_addr_ = 0;
}

bool BinaryTraceWriter::pack_frame(Frame& frame) const {
  const auto t0 = std::chrono::steady_clock::now();
  const std::string_view payload(frame.payload.data(), frame.len);
  frame.stored = payload;
  if (codec_ != Codec::None) {
    if (!codec_compress(codec_, level_, payload, frame.packed)) {
      throw Error(ErrorKind::Io,
                  "TDTB frame compression failed (codec " +
                      std::string(codec_name(codec_)) + ")");
    }
    frame.stored = frame.packed;
  }
  frame.crc = crc32(frame.stored.data(), frame.stored.size());
  frame.seconds = seconds_since(t0);
  return true;  // the owner ends a fed pool by not feeding it
}

void BinaryTraceWriter::write_pending_frame() {
  if (index_.size() == frames_) return;
  const Frame& frame = *pool_->take();
  const auto t0 = timed_ ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  const TdtbFrameInfo info{.offset = offset_,
                           .records = frame.records,
                           .usize = frame.len,
                           .csize = frame.stored.size(),
                           .crc = frame.crc,
                           .codec = static_cast<std::uint8_t>(codec_)};

  char head[kFrameHeadBytes];
  char* p = head;
  *p++ = static_cast<char>(kTagFrame);
  *p++ = static_cast<char>(info.codec);
  p = put_varint(p, info.records);
  p = put_varint(p, info.usize);
  p = put_varint(p, info.csize);
  put_le(p, info.crc, 4);
  raw_bytes(head, static_cast<std::size_t>(p + 4 - head));
  raw_bytes(frame.stored.data(), frame.stored.size());
  index_.push_back(info);
  if (timed_) compress_seconds_ += frame.seconds + seconds_since(t0);
  pool_->release();
}

void BinaryTraceWriter::check() {
  if (!*out_) throw_write_failed();
}

void fold_write_metrics(obs::Registry& registry, const WriteStats& stats) {
  registry.counter("write.records").add(stats.records);
  registry.counter("write.frames").add(stats.frames);
  registry.counter("write.bytes").add(stats.bytes);
  obs::Gauge& encode = registry.gauge("write.encode_seconds");
  encode.set(encode.value() + stats.encode_seconds);
  obs::Gauge& compress = registry.gauge("write.compress_seconds");
  compress.set(compress.value() + stats.compress_seconds);
}

WriteStats BinaryTraceWriter::stats() const noexcept {
  WriteStats s;
  s.records = record_count_;
  s.frames = frames_;
  s.bytes = offset_;
  s.encode_seconds = encode_seconds_;
  s.compress_seconds = compress_seconds_;
  return s;
}

void BinaryTraceWriter::finish() {
  internal_check(!finished_, "double finish");
  const auto t0 = timed_ ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  if (version_ >= kTdtbVersionFramed) {
    end_frame();
    write_pending_frame();
    check();
    std::string index;
    index.resize(index_.size() * (4 * kMaxVarintBytes + 5));
    char* p = index.data();
    for (const TdtbFrameInfo& f : index_) {
      p = put_varint(p, f.offset);
      p = put_varint(p, f.records);
      p = put_varint(p, f.usize);
      p = put_varint(p, f.csize);
      put_le(p, f.crc, 4);
      p[4] = static_cast<char>(f.codec);
      p += 5;
    }
    index.resize(static_cast<std::size_t>(p - index.data()));
    char footer[kContainerFooterSize];
    put_le(footer, record_count_, 8);
    put_le(footer + 8, index_.size(), 8);
    put_le(footer + 16, index.size(), 4);
    put_le(footer + 20, crc32(index.data(), index.size()), 4);
    std::memcpy(footer + 24, kIndexMagic, 4);
    const char end_tag = static_cast<char>(kTagEnd);
    raw_bytes(&end_tag, 1);
    raw_bytes(index.data(), index.size());
    raw_bytes(footer, kContainerFooterSize);
  } else {
    *reserve(1) = static_cast<char>(kTagEnd);
    ++len_;
    flush_block();
    if (version_ >= 2) {
      // Footer is not part of its own checksum: the CRC covers
      // everything from the magic through the end tag.
      char footer[kFooterSize];
      put_le(footer, record_count_, 8);
      put_le(footer + 8, crc_.value(), 4);
      out_->write(footer, kFooterSize);
      offset_ += kFooterSize;
    }
  }
  finished_ = true;
  if (timed_) encode_seconds_ += seconds_since(t0);
}

// --- entry decoder ----------------------------------------------------------

[[gnu::cold, gnu::noinline]] std::string TdtbDecodeError::message() const {
  const std::string where = in_frame ? "frame payload" : "binary trace";
  switch (kind) {
    case Kind::VarintEof:
      return "truncated " + where + " (eof inside " + what + ")";
    case Kind::BadVarint:
      return "bad varint in " + where + " (" + what + ")";
    case Kind::OverLimit:
      return std::string(what) + " value " + std::to_string(value) +
             " exceeds limit " + std::to_string(limit) + " in " + where;
    case Kind::Invalid:
      return std::string(what) + " value " + std::to_string(value) +
             " is invalid in " + where;
    case Kind::ShortString:
      return "truncated string in " + where;
    case Kind::Redefined:
      return "string id " + std::to_string(value) +
             " redefined within a frame";
    case Kind::BadTag:
      return "unknown entry tag " + std::to_string(value) + " in " + where;
    case Kind::ShortRecord:
      return "truncated record in " + where;
    case Kind::Undefined:
      return std::string(in_frame ? "frame" : "binary trace") +
             " references undefined string id " + std::to_string(value);
    case Kind::ShortSteps:
      return "truncated var steps in " + where;
    case Kind::NoEnd:
      return "truncated binary trace (missing end marker)";
    case Kind::ShortFrameHeader:
      return "truncated frame header in binary trace";
    case Kind::ShortFramePayload:
      return "truncated frame payload in binary trace";
  }
  return "corrupt binary trace";
}

namespace {

using DecodeKind = TdtbDecodeError::Kind;

/// Reads one varint field no larger than `limit`. On failure fills
/// `err` (truncated, bad varint, or above the limit with code `over`)
/// and returns false.
inline bool read_field(const char*& p, const char* end, std::uint64_t& v,
                       std::uint64_t limit, DiagCode over, const char* what,
                       bool in_frame, TdtbDecodeError& err) noexcept {
  const char* const before = p;
  if (mem_varint(p, end, v)) [[likely]] {
    if (v <= limit) [[likely]] return true;
    err = {over, DecodeKind::OverLimit, in_frame, what, v, limit};
    return false;
  }
  // mem_varint stops short of ten bytes only at the end of the input.
  const bool eof = p == end && p - before < kMaxVarintBytes;
  err = {eof ? DiagCode::BinTruncated : DiagCode::BinBadVarint,
         eof ? DecodeKind::VarintEof : DecodeKind::BadVarint, in_frame, what};
  return false;
}

/// One v3 frame in the reader's decode pool, decoded without touching the
/// shared string pool: its index entry; its records, which carry
/// frame-local string ids, in slices of at most kViewBatch; `defs`, its
/// string definitions in definition order, viewing into `payload`; or,
/// when `bad`, why it failed. Workers decode frames concurrently; the
/// consuming thread interns `defs` in frame order (intern_frame_defs), so
/// the pool stays single-writer and symbol ids match the inline decode.
/// Slots are recycled, so steady-state decoding allocates nothing per
/// frame — a large fresh vector per frame would serialize every worker
/// on the allocator's mmap/page-zero path and erase the parallel speedup.
struct FrameBuf {
  /// The pool builds its slots on the thread that opens the cursor,
  /// before any worker starts. Reserving one writer-default frame of
  /// slices here keeps slot storage in that thread's malloc arena, where
  /// the evaluator frees the batches it trades in and reserves the next.
  /// A slice a worker allocated would be freed into the worker's arena,
  /// which never allocates again, and stay resident: 6–8 MB at --jobs 3.
  FrameBuf() : slices(kDefaultFrameRecords / kViewBatch) {
    for (std::vector<TraceRecord>& slice : slices) slice.reserve(kViewBatch);
  }

  TdtbFrameInfo info;
  // slices[0, nslices) hold the frame's records, decoded in place. The
  // consumer trades each for the evaluator's empty batch vector, which
  // the next frame in this slot decodes into.
  std::vector<std::vector<TraceRecord>> slices;
  std::size_t nslices = 0;
  std::vector<std::pair<std::uint64_t, std::string_view>> defs;
  // Definition-seen map (id -> 1 + index into defs), reused across frames.
  std::vector<std::uint32_t> seen_defs;
  std::vector<std::uint64_t> seen_ids;
  // Decompressed bytes, grown without zero-fill: only what the codec
  // writes becomes resident, whatever payload size a header declares.
  std::unique_ptr<char[]> payload;
  std::size_t payload_capacity = 0;
  bool bad = false;
  DiagCode code = DiagCode::BinFrameCorrupt;
  std::string error;
};

/// v3 payload strings: ids are local to the frame, and records keep them
/// until the consuming thread binds the frame.
struct FrameStrings {
  static constexpr bool kInFrame = true;
  FrameBuf& frame;
  std::uint64_t prev_addr = 0;  // zigzag-delta base, carried across slices

  bool resolve(std::uint64_t id, Symbol& out) const noexcept {
    if (id >= frame.seen_defs.size() || frame.seen_defs[id] == 0) {
      return false;
    }
    out = Symbol(static_cast<std::uint32_t>(id));
    return true;
  }
  /// False for a redefinition with different text: there is no single
  /// answer for the frame's records. The same text again is harmless.
  bool define(std::uint64_t id, std::string_view text) {
    if (id < frame.seen_defs.size() && frame.seen_defs[id] != 0) {
      return frame.defs[frame.seen_defs[id] - 1].second == text;
    }
    frame.defs.emplace_back(id, text);
    if (id >= frame.seen_defs.size()) frame.seen_defs.resize(id + 1, 0);
    frame.seen_defs[id] = static_cast<std::uint32_t>(frame.defs.size());
    frame.seen_ids.push_back(id);
    return true;
  }
  static bool boundary(const char* /*p*/) noexcept { return true; }
};

/// v1/v2 body strings: ids hold for the whole trace and intern as they
/// are defined. Entry boundaries are the binary.short-read and
/// binary.crc-flip fault sites.
struct TraceStrings {
  static constexpr bool kInFrame = false;
  TraceContext& ctx;
  std::vector<Symbol>& symbols;  // file id -> interned symbol
  Crc32& crc;
  const char*& crc_from;  // bytes before it are folded into `crc`

  bool resolve(std::uint64_t id, Symbol& out) const noexcept {
    if (id >= symbols.size() || symbols[id].empty()) return false;
    out = symbols[id];
    return true;
  }
  bool define(std::uint64_t id, std::string_view text) {
    if (id >= symbols.size()) symbols.resize(id + 1);
    symbols[id] = ctx.intern(text);
    return true;
  }
  /// False when a short read ends the body here. A CRC flip folds a
  /// phantom byte into the checksum where a byte-at-a-time reader would.
  bool boundary(const char* p) {
    if (!fault::FaultInjector::enabled()) [[likely]] return true;
    if (fault::should_fire(fault::Site::BinaryShortRead)) return false;
    if (fault::should_fire(fault::Site::BinaryCrcFlip)) {
      crc.update(crc_from, static_cast<std::size_t>(p - crc_from));
      crc.update_byte(0xA5);
      crc_from = p;
    }
    return true;
  }
};

/// Where decode_entries() stopped.
enum class EntryStop : std::uint8_t { Limit, End, Error };

/// The entry decoder of v1/v2 bodies and v3 frame payloads: decodes
/// string definitions and records from [p, end) into `out` until `limit`
/// records were appended, the entries end, or one is corrupt. `Strings`
/// makes the three differences. A v3 payload (FrameStrings) delta-codes
/// its addresses from the base `strings` carries from call to call,
/// defines strings per frame and ends at `end`. A v1/v2 body
/// (TraceStrings) stores absolute addresses, defines strings for the
/// whole trace and ends at its end tag, which is consumed. On error `p`
/// stays inside the bad entry, its partial record is not kept, and `err`
/// says why.
template <class Strings>
EntryStop decode_entries(Strings& strings, const char*& p, const char* end,
                         std::vector<TraceRecord>& out, std::size_t limit,
                         TdtbDecodeError& err) {
  constexpr bool kInFrame = Strings::kInFrame;
  const auto fail = [&err](DiagCode code, DecodeKind kind,
                           std::uint64_t value = 0) {
    err = {code, kind, kInFrame, "", value};
    return EntryStop::Error;
  };
  const auto field = [&](std::uint64_t& v, std::uint64_t max,
                         const char* what) {
    return read_field(p, end, v, max, DiagCode::BinFieldOverflow, what,
                      kInFrame, err);
  };
  // A value the text and din readers would refuse as well.
  const auto invalid = [&err](const char* what, std::uint64_t value) {
    err = {DiagCode::BinFieldOverflow, DecodeKind::Invalid, kInFrame, what,
           value};
    return false;
  };
  const auto symbol = [&](Symbol& s, const char* what) {
    std::uint64_t id = 0;
    if (!field(id, kMaxSymbolId, what)) return false;
    if (strings.resolve(id, s)) [[likely]] return true;
    err = {DiagCode::BinBadSymbol, DecodeKind::Undefined, kInFrame, what, id};
    return false;
  };
  // The fields after a record's tag and kind|scope byte.
  const auto fields = [&](TraceRecord& rec) {
    std::uint64_t v = 0;
    if (!field(v, ~std::uint64_t{0}, "address")) return false;
    if constexpr (kInFrame) {
      strings.prev_addr += unzigzag(v);
      rec.address = strings.prev_addr;
    } else {
      rec.address = v;
    }
    if (!field(v, 0xFFFFFFFFull, "access size")) return false;
    if (!legal_access_size(v)) [[unlikely]] return invalid("access size", v);
    rec.size = static_cast<std::uint32_t>(v);
    if (!symbol(rec.function, "function id")) return false;
    if (!field(v, 0xFFFFull, "frame")) return false;
    rec.frame = static_cast<std::uint16_t>(v);
    if (!field(v, 0xFFFFull, "thread")) return false;
    rec.thread = static_cast<std::uint16_t>(v);
    if (rec.scope == VarScope::Unknown) return true;
    if (!symbol(rec.var.base, "variable id")) return false;
    std::uint64_t nsteps = 0;
    if (!field(nsteps, kMaxVarSteps, "step count")) return false;
    for (std::uint64_t i = 0; i < nsteps; ++i) {
      if (p == end) {
        fail(DiagCode::BinTruncated, DecodeKind::ShortSteps);
        return false;
      }
      if (*p++ != 0) {
        Symbol name;
        if (!symbol(name, "field id")) return false;
        rec.var.steps.push_back(VarStep::make_field(name));
      } else {
        if (!field(v, ~std::uint64_t{0}, "step index")) return false;
        rec.var.steps.push_back(VarStep::make_index(v));
      }
    }
    return true;
  };

  for (std::size_t produced = 0;;) {
    if (produced == limit) return EntryStop::Limit;
    if (!strings.boundary(p)) [[unlikely]] {
      return fail(DiagCode::BinTruncated, DecodeKind::NoEnd);
    }
    if (p == end) {
      if constexpr (kInFrame) return EntryStop::End;
      return fail(DiagCode::BinTruncated, DecodeKind::NoEnd);
    }
    const auto tag = static_cast<std::uint8_t>(*p++);
    if (tag == kTagRecord) [[likely]] {
      if (p == end) return fail(DiagCode::BinTruncated, DecodeKind::ShortRecord);
      // The kind is in bits 0-2 and the scope in bits 3-7.
      const auto packed = static_cast<std::uint8_t>(*p++);
      const unsigned kind = packed & 0x7u;
      const unsigned scope = packed >> 3;
      if (!legal_kind_code(kind) || !legal_scope_code(scope)) [[unlikely]] {
        const bool bad_kind = !legal_kind_code(kind);
        invalid(bad_kind ? "access kind" : "scope", bad_kind ? kind : scope);
        return EntryStop::Error;
      }
      TraceRecord& rec = out.emplace_back();
      rec.kind = static_cast<AccessKind>(kind);
      rec.scope = static_cast<VarScope>(scope);
      if (!fields(rec)) [[unlikely]] {
        out.pop_back();
        return EntryStop::Error;
      }
      ++produced;
      continue;
    }
    if (tag == kTagString) {
      std::uint64_t id = 0;
      std::uint64_t len = 0;
      if (!field(id, kMaxSymbolId, "string id") ||
          !read_field(p, end, len, kMaxStringLen, DiagCode::BinStringTooLong,
                      "string length", kInFrame, err)) {
        return EntryStop::Error;
      }
      if (static_cast<std::uint64_t>(end - p) < len) {
        return fail(DiagCode::BinTruncated, DecodeKind::ShortString);
      }
      const std::string_view text(p, static_cast<std::size_t>(len));
      p += len;
      if (!strings.define(id, text)) {
        return fail(DiagCode::BinBadSymbol, DecodeKind::Redefined, id);
      }
      continue;
    }
    if (!kInFrame && tag == kTagEnd) return EntryStop::End;
    return fail(DiagCode::BinBadTag, DecodeKind::BadTag, tag);
  }
}

/// Decodes one uncompressed frame payload straight into `frame`'s slices,
/// kViewBatch records each but the last; `decoded` counts them. Touches
/// only `frame`, so workers run it concurrently; `payload` must outlive
/// `frame.defs`. Every symbol a record references must be defined
/// earlier in the same frame. False on a corrupt entry: `err` says why,
/// and the slices keep the records before it.
bool decode_frame_payload(std::string_view payload, FrameBuf& frame,
                          std::uint64_t& decoded, TdtbDecodeError& err) {
  frame.defs.clear();
  for (std::uint64_t id : frame.seen_ids) frame.seen_defs[id] = 0;
  frame.seen_ids.clear();
  frame.nslices = 0;
  decoded = 0;
  FrameStrings strings{frame};
  const char* p = payload.data();
  const char* const end = payload.data() + payload.size();
  for (;;) {
    if (frame.nslices == frame.slices.size()) frame.slices.emplace_back();
    std::vector<TraceRecord>& slice = frame.slices[frame.nslices];
    slice.clear();
    slice.reserve(kViewBatch);  // a no-op on a recycled or traded-in slice
    const EntryStop stop = decode_entries(strings, p, end, slice, kViewBatch,
                                          err);
    decoded += slice.size();
    if (!slice.empty()) ++frame.nslices;
    if (stop != EntryStop::Limit) return stop == EntryStop::End;
  }
}

/// Interns `frame.defs` in definition order into `symbol_map` (frame id
/// -> symbol); true when every id interned to itself, so the records
/// need no remap_frame_records(). Call in frame order from one thread.
bool intern_frame_defs(TraceContext& ctx, const FrameBuf& frame,
                       std::vector<Symbol>& symbol_map) {
  bool identity = true;
  for (const auto& [id, text] : frame.defs) {
    if (id >= symbol_map.size()) symbol_map.resize(id + 1);
    symbol_map[id] = ctx.intern(text);
    identity = identity && symbol_map[id].id() == id;
  }
  return identity;
}

void remap_frame_records(std::span<TraceRecord> records,
                         const std::vector<Symbol>& symbol_map) {
  for (TraceRecord& rec : records) {
    rec.function = symbol_map[rec.function.id()];
    if (rec.scope == VarScope::Unknown) continue;
    rec.var.base = symbol_map[rec.var.base.id()];
    for (VarStep& step : rec.var.steps) {
      if (step.is_field) step.field = symbol_map[step.field.id()];
    }
  }
}

}  // namespace

// --- container probe --------------------------------------------------------

std::optional<TdtbFrameInfo> parse_frame_header(
    std::string_view blob, std::uint64_t offset,
    std::uint64_t* payload_offset, TdtbDecodeError* why) noexcept {
  TdtbDecodeError err;
  const char* const end = blob.data() + blob.size();
  const char* p = offset < blob.size() ? blob.data() + offset : end;
  const auto field = [&](std::uint64_t& v, std::uint64_t limit,
                         const char* what) {
    return read_field(p, end, v, limit, DiagCode::BinFieldOverflow, what,
                      false, err);
  };
  TdtbFrameInfo info;
  info.offset = offset;
  if (p == end) {
    err.kind = DecodeKind::NoEnd;
  } else if (static_cast<std::uint8_t>(*p) != kTagFrame) {
    err = {DiagCode::BinBadTag, DecodeKind::BadTag, false, "",
           static_cast<std::uint8_t>(*p)};
  } else if (++p == end) {
    err.kind = DecodeKind::ShortFrameHeader;
  } else {
    info.codec = static_cast<std::uint8_t>(*p++);
    if (field(info.records, kMaxFrameRecords, "frame record count") &&
        field(info.usize, kMaxFrameBytes, "frame payload size") &&
        field(info.csize, kMaxFrameBytes, "frame stored size")) {
      if (end - p < 4) {
        err.kind = DecodeKind::ShortFrameHeader;
      } else {
        info.crc = static_cast<std::uint32_t>(get_le(p, 4));
        p += 4;
        if (static_cast<std::uint64_t>(end - p) < info.csize) {
          err.kind = DecodeKind::ShortFramePayload;
        } else {
          if (payload_offset != nullptr) {
            *payload_offset = static_cast<std::uint64_t>(p - blob.data());
          }
          return info;
        }
      }
    }
  }
  if (why != nullptr) *why = err;
  return std::nullopt;
}

std::optional<TdtbContainerInfo> probe_tdtb(std::string_view blob) noexcept {
  if (blob.size() < 5 ||
      std::string_view(blob.data(), 4) != std::string_view(kMagic, 4)) {
    return std::nullopt;
  }
  TdtbContainerInfo info;
  info.version = static_cast<std::uint8_t>(blob[4]);
  info.file_bytes = blob.size();
  if (info.version < 1 || info.version > kTdtbVersionFramed) {
    return std::nullopt;
  }
  const char* p = blob.data() + 5;
  const char* end = blob.data() + blob.size();
  if (!mem_varint(p, end, info.pid)) return std::nullopt;
  if (info.version < kTdtbVersionFramed) {
    // v2 carries its record count in the 12-byte footer.
    const std::size_t header = static_cast<std::size_t>(p - blob.data());
    if (info.version == 2 && blob.size() >= header + 1 + kFooterSize) {
      info.total_records = get_le(blob.data() + blob.size() - kFooterSize, 8);
    }
    return info;
  }
  if (p == end) return std::nullopt;
  info.default_codec = static_cast<std::uint8_t>(*p++);
  // From here every validation failure returns `info` with has_index
  // still false: the reader then walks the frames in place and produces
  // the precise diagnostic under the chosen error policy.
  const std::uint64_t body_start = static_cast<std::uint64_t>(p - blob.data());
  if (blob.size() < body_start + 1 + kContainerFooterSize) return info;
  const char* f = blob.data() + blob.size() - kContainerFooterSize;
  if (std::string_view(f + 24, 4) != std::string_view(kIndexMagic, 4)) {
    return info;
  }
  const std::uint64_t total = get_le(f, 8);
  const std::uint64_t frames = get_le(f + 8, 8);
  const std::uint64_t index_len = get_le(f + 16, 4);
  const std::uint32_t index_crc =
      static_cast<std::uint32_t>(get_le(f + 20, 4));
  if (index_len > blob.size() - kContainerFooterSize) return info;
  const std::uint64_t index_start =
      blob.size() - kContainerFooterSize - index_len;
  if (index_start < body_start + 1) return info;  // room for the end tag
  if (crc32(blob.data() + index_start,
            static_cast<std::size_t>(index_len)) != index_crc) {
    return info;
  }
  const char* ip = blob.data() + index_start;
  const char* iend = ip + index_len;
  // Cross-check each index entry against the frame header it points at.
  // The frames must tile the body exactly: the first right after the
  // header, each next one where the last ended, and the end tag right
  // after the last one, directly before the index.
  std::uint64_t next = body_start;
  std::uint64_t record_sum = 0;
  while (ip != iend) {
    TdtbFrameInfo fi;
    if (!mem_varint(ip, iend, fi.offset) ||
        !mem_varint(ip, iend, fi.records) ||
        !mem_varint(ip, iend, fi.usize) || !mem_varint(ip, iend, fi.csize) ||
        iend - ip < 5) {
      info.frames.clear();
      return info;
    }
    fi.crc = static_cast<std::uint32_t>(get_le(ip, 4));
    ip += 4;
    fi.codec = static_cast<std::uint8_t>(*ip++);
    std::uint64_t payload_off = 0;
    const std::optional<TdtbFrameInfo> parsed =
        parse_frame_header(blob, fi.offset, &payload_off);
    if (fi.offset != next || !parsed || parsed->records != fi.records ||
        parsed->usize != fi.usize || parsed->csize != fi.csize ||
        parsed->crc != fi.crc || parsed->codec != fi.codec) {
      info.frames.clear();
      return info;
    }
    next = payload_off + fi.csize;
    record_sum += fi.records;
    info.frames.push_back(fi);
  }
  if (next + 1 != index_start ||
      static_cast<std::uint8_t>(blob[next]) != kTagEnd ||
      info.frames.size() != frames || record_sum != total) {
    info.frames.clear();
    return info;
  }
  info.total_records = total;
  info.has_index = true;
  return info;
}

std::optional<TdtbContainerInfo> probe_tdtb_file(
    const std::string& path) noexcept {
  try {
    const std::unique_ptr<FileView> view = FileView::open(path);
    if (view == nullptr) return std::nullopt;
    return probe_tdtb(view->bytes());
  } catch (...) {
    return std::nullopt;
  }
}

// --- reader -----------------------------------------------------------------

namespace {

/// The reader gives back the pages behind its decode point (v1/v2) or
/// behind the frame it hands out (v3) in steps of this many bytes.
constexpr std::size_t kReleaseBytes = 1u << 20;

/// Decode threads for `workers` requested on an indexed container. Each
/// thread decodes one frame ahead of the one the consumer drains, so the
/// window is threads + 1 frames, and those frames hold at most
/// (workers + 1) x kDefaultFrameRecords records: a largest frame above
/// the writer's default runs fewer threads, down to 0, where the
/// consumer decodes inline. One requested worker decodes inline too.
std::size_t decode_threads(const std::vector<TdtbFrameInfo>& frames,
                           std::size_t workers) {
  if (workers <= 1) return 0;
  std::uint64_t largest = 1;
  for (const TdtbFrameInfo& f : frames) largest = std::max(largest, f.records);
  const std::uint64_t window = (workers + 1) * kDefaultFrameRecords / largest;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(workers, window > 0 ? window - 1 : 0));
}

/// The frame ladder: checks and decodes frame `frame_no`, described by
/// `fi`, into the slot — its header against `fi`, then the CRC of the
/// stored bytes, the codec, decompression, the payload and the record
/// count. Touches only the slot, so workers run it concurrently. A
/// failure marks the slot bad; a payload failure keeps the decoded
/// prefix, which Skip salvages.
void decode_frame(std::string_view blob, const TdtbFrameInfo& fi,
                  bool injected, std::uint64_t frame_no, FrameBuf& slot) {
  slot.info = fi;
  slot.nslices = 0;
  slot.defs.clear();
  slot.bad = false;
  auto bad = [&slot](DiagCode code, std::string msg) {
    slot.bad = true;
    slot.code = code;
    slot.error = std::move(msg);
  };
  if (injected) [[unlikely]] {
    bad(DiagCode::BinFrameCorrupt, "injected frame-decode fault: frame " +
                                       std::to_string(frame_no) + " dropped");
    return;
  }
  std::uint64_t payload_off = 0;
  const std::optional<TdtbFrameInfo> parsed =
      parse_frame_header(blob, fi.offset, &payload_off);
  if (!parsed || parsed->csize != fi.csize || parsed->usize != fi.usize ||
      parsed->codec != fi.codec) {
    // The header matched the index when the probe ran; a disagreement
    // now means the file changed underneath the mapping.
    bad(DiagCode::BinFrameCorrupt,
        "frame " + std::to_string(frame_no) +
            " header disagrees with the container index");
    return;
  }
  const std::string_view stored =
      blob.substr(static_cast<std::size_t>(payload_off),
                  static_cast<std::size_t>(fi.csize));
  if (crc32(stored.data(), stored.size()) != fi.crc) {
    bad(DiagCode::BinFrameCorrupt, "frame " + std::to_string(frame_no) +
                                       " checksum mismatch (bit corruption)");
    return;
  }
  const std::optional<Codec> codec = codec_from_id(fi.codec);
  if (!codec) {
    bad(DiagCode::BinBadCodec, "frame " + std::to_string(frame_no) +
                                   " names unknown codec id " +
                                   std::to_string(fi.codec));
    return;
  }
  std::string_view payload;
  if (*codec == Codec::None) {
    if (stored.size() != fi.usize) {
      bad(DiagCode::BinFrameCorrupt,
          "frame " + std::to_string(frame_no) +
              " stored size disagrees with payload size");
      return;
    }
    payload = stored;
  } else {
    if (!codec_available(*codec)) {
      bad(DiagCode::BinBadCodec,
          "codec '" + std::string(codec_name(*codec)) +
              "' unavailable in this process (shared library not found or "
              "TDT_NO_CODEC set); cannot decode frame " +
              std::to_string(frame_no));
      return;
    }
    const auto usize = static_cast<std::size_t>(fi.usize);
    if (slot.payload == nullptr || slot.payload_capacity < usize) {
      slot.payload.reset();  // freed first: its bytes are not needed
      slot.payload = std::make_unique_for_overwrite<char[]>(usize);
      slot.payload_capacity = usize;
    }
    if (!codec_decompress(*codec, stored, {slot.payload.get(), usize})) {
      bad(DiagCode::BinFrameCorrupt,
          "frame " + std::to_string(frame_no) + " decompression failed (codec " +
              std::string(codec_name(*codec)) + ")");
      return;
    }
    payload = std::string_view(slot.payload.get(), usize);
  }
  std::uint64_t decoded = 0;
  TdtbDecodeError err;
  if (!decode_frame_payload(payload, slot, decoded, err)) {
    bad(err.code, err.message());
    return;
  }
  if (decoded != fi.records) {
    slot.nslices = 0;
    bad(DiagCode::BinCountMismatch,
        "frame " + std::to_string(frame_no) +
            " record count mismatch: header says " + std::to_string(fi.records) +
            ", decoded " + std::to_string(decoded));
  }
}

/// The TDTB reader (open_tdtb_cursor). It decodes in place from one byte
/// view, in the layout the header and probe_tdtb() pick:
///
/// - Indexed: a v3 container whose frame index validated. Job k of an
///   OrderedPool runs the thread-safe frame ladder on frame k, ahead of
///   the consumer, and decodes the records straight into the slot's
///   slices; next_batch() binds (interns) frames strictly in frame order
///   on the calling thread and hands out one slice per call — by swapping
///   it with the caller's empty batch vector, so no record is copied
///   after decode. So the string pool stays single-writer, symbol ids
///   match the inline decode, and the batches are byte-identical at any
///   job count. A batch never spans two frames. The pool's window is one
///   frame per decode thread plus the one being drained, and
///   decode_threads() sizes it from the index so those frames hold at
///   most (workers + 1) x 65,536 records. With no thread, the consumer
///   decodes inline, on a pool with no threads.
/// - Walked: a v3 container without a valid index. The frame headers are
///   parsed in place from the first frame on, each frame goes through
///   the same ladder on a pool with no threads, and the index and footer
///   after the end tag are checked at the end.
/// - Flat: a v1/v2 body, decoded in place in batches by the entry decoder
///   v3 payloads use. The CRC is folded over each consumed range, the v2
///   footer is checked at the end tag, and the pages behind the decode
///   point are released every kReleaseBytes.
///
/// Strict throws on any corruption; Repair drops a frame that fails the
/// ladder and resumes at the next one; Skip, and every structural
/// failure, ends the trace with the records decoded before it. At the
/// end of a full v3 pass the footer's record total is compared with the
/// records delivered, which tells a Repair drop (B011). Each v3 frame
/// handed out releases the pages before it. The destructor cancels and
/// joins the workers, so no decode thread outlives the cursor.
class TdtbCursor final : public SourceCursor {
 public:
  /// Decodes `blob`, which `view` owns when given.
  TdtbCursor(TraceContext& ctx, std::unique_ptr<FileView> view,
             std::string_view blob, const ViewSourceOptions& options)
      : ctx_(&ctx),
        view_(std::move(view)),
        blob_(blob),
        diags_(options.diags) {
    read_header();
    have_pid_ = true;
    if (version_ < kTdtbVersionFramed) return;
    std::optional<TdtbContainerInfo> info = probe_tdtb(blob_);
    // The probe read every frame header; the kernel mapped the pages
    // around each. Give them back: decode faults in what it reads.
    if (view_ != nullptr) view_->drop_resident();
    std::size_t threads = 0;  // the walk decodes inline
    if (info && info->has_index) {
      info_ = std::move(*info);
      indexed_ = true;
      const std::size_t nframes = info_.frames.size();
      // Pre-sample the frame-decode fault site here, once per frame in
      // frame order — the draw sequence a walk makes — so injected
      // schedules are identical at any job count.
      injected_.assign(nframes, 0);
      if (fault::FaultInjector::enabled()) {
        for (char& fire : injected_) {
          fire = fault::should_fire(fault::Site::FrameDecode) ? 1 : 0;
        }
      }
      const std::size_t requested =
          std::min(static_cast<std::size_t>(std::clamp(options.jobs, 1, 256)),
                   std::max<std::size_t>(nframes, 1));
      // More decode workers than cores is pure scheduling overhead; clamp
      // unless a test explicitly wants the threaded machinery exercised.
      const std::size_t hw =
          std::max<std::size_t>(1, std::thread::hardware_concurrency());
      threads = decode_threads(
          info_.frames, options.clamp_jobs ? std::min(requested, hw) : requested);
    }
    pool_.emplace(threads, threads + 1, [this](std::uint64_t k, FrameBuf& buf) {
      return decode_job(k, buf);
    });
  }

  TdtbCursor(const TdtbCursor&) = delete;
  TdtbCursor& operator=(const TdtbCursor&) = delete;

  std::size_t next_batch(std::vector<TraceRecord>& out,
                         std::size_t max) override {
    if (version_ < kTdtbVersionFramed) return next_flat(out, max);
    while (buf_ == nullptr || slice_ == buf_->nslices) {
      if (!advance()) return 0;
    }
    std::vector<TraceRecord>& slice = buf_->slices[slice_];
    std::size_t n = 0;
    if (slice_pos_ == 0 && out.empty() && slice.size() <= max) {
      out.swap(slice);  // the caller's empty vector takes the slice's place
      n = out.size();
    } else {
      n = std::min(max, slice.size() - slice_pos_);
      const auto first =
          slice.begin() + static_cast<std::ptrdiff_t>(slice_pos_);
      out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(n));
      slice_pos_ += n;
    }
    if (slice_pos_ == slice.size()) {  // handed over whole, or to its end
      ++slice_;
      slice_pos_ = 0;
    }
    records_ += n;
    return n;
  }

  void finish(obs::Registry* registry) override {
    if (registry == nullptr) return;
    // read.bytes: a complete pass consumed the whole input; an early stop
    // counts through the last entry or frame handed out (for an indexed
    // container, the start of the first untouched frame).
    std::uint64_t bytes = pos_;
    if (indexed_) {
      bytes = next_frame_ == info_.frames.size()
                  ? blob_.size()
                  : info_.frames[next_frame_].offset;
    }
    registry->counter("read.records").add(records_);
    registry->counter("read.bytes").add(bytes);
    if (version_ >= kTdtbVersionFramed) {
      registry->counter("read.frames").add(next_frame_);
      registry->counter("read.compressed_bytes").add(stored_bytes_);
    }
  }

 private:
  /// Parses magic, version, pid and (v3) the advisory codec byte; leaves
  /// pos_ at the first entry or frame. Nothing before the first entry can
  /// be salvaged, so a failure here throws under every policy.
  void read_header() {
    if (blob_.size() < 4 ||
        std::string_view(blob_.data(), 4) != std::string_view(kMagic, 4)) {
      fatal(DiagCode::BinBadMagic, "not a TDTB binary trace (bad magic)");
    }
    const int version =
        blob_.size() > 4 ? static_cast<std::uint8_t>(blob_[4]) : -1;
    if (version != 1 && version != 2 && version != kTdtbVersionFramed) {
      fatal(DiagCode::BinBadVersion,
            "unsupported TDTB version " + std::to_string(version));
    }
    version_ = static_cast<std::uint8_t>(version);
    const char* p = blob_.data() + 5;
    const char* end = blob_.data() + blob_.size();
    TdtbDecodeError err;
    if (!read_field(p, end, pid_, ~std::uint64_t{0},
                    DiagCode::BinFieldOverflow, "pid", false, err)) {
      std::string message = err.message();
      end_trace(err.code, message);
      throw_parse_error(std::move(message));
    }
    if (version_ >= kTdtbVersionFramed) {
      // Frames carry their own codec id; the header byte is advisory.
      if (p == end) {
        fatal(DiagCode::BinTruncated,
              "truncated binary trace (missing codec byte)");
      }
      ++p;
    }
    pos_ = static_cast<std::size_t>(p - blob_.data());
    crc_.update(blob_.data(), pos_);  // the v2 CRC starts at the magic
  }

  [[noreturn]] void fatal(DiagCode code, std::string message) {
    if (diags_ != nullptr) {
      diags_->report(DiagSeverity::Fatal, code, message);
    }
    throw_parse_error(std::move(message));
  }

  /// Ends the trace on a failure: Strict (or no engine) throws, Skip and
  /// Repair report it and keep every record decoded before it.
  void end_trace(DiagCode code, std::string message) {
    ended_ = true;
    if (diags_ == nullptr || diags_->strict()) {
      throw_parse_error(std::move(message));
    }
    diags_->report(DiagSeverity::Error, code, std::move(message));
  }

  /// The footer's record total must match the records delivered; false
  /// (reported) when it does not.
  bool check_total(std::uint64_t total) {
    if (total == records_) return true;
    end_trace(DiagCode::BinCountMismatch,
              "binary trace record count mismatch: footer says " +
                  std::to_string(total) + ", decoded " +
                  std::to_string(records_));
    return false;
  }

  // --- flat (v1/v2) ---

  std::size_t next_flat(std::vector<TraceRecord>& out, std::size_t max) {
    if (ended_) return 0;
    const std::size_t before = out.size();
    const char* p = blob_.data() + pos_;
    const char* crc_from = p;
    TraceStrings strings{*ctx_, symbol_map_, crc_, crc_from};
    TdtbDecodeError err;
    const EntryStop stop = decode_entries(
        strings, p, blob_.data() + blob_.size(), out, max, err);
    crc_.update(crc_from, static_cast<std::size_t>(p - crc_from));
    pos_ = static_cast<std::size_t>(p - blob_.data());
    const std::size_t got = out.size() - before;
    records_ += got;
    if (stop == EntryStop::End) {
      check_footer();
    } else if (stop == EntryStop::Error) {
      end_trace(err.code, err.message());
    } else if (view_ != nullptr) {
      view_->release_prefix(pos_ / kReleaseBytes * kReleaseBytes);
    }
    return got;
  }

  /// At the end tag: the v2 footer holds the record count and the CRC of
  /// every byte from the magic through the end tag.
  void check_footer() {
    ended_ = true;
    const std::string_view footer = blob_.substr(pos_);
    pos_ = blob_.size();
    if (version_ < 2) return;
    if ((fault::FaultInjector::enabled() &&
         fault::should_fire(fault::Site::BinaryBadFooter)) ||
        footer.size() < kFooterSize) {
      end_trace(DiagCode::BinBadFooter,
                "truncated binary trace (v2 footer missing or short)");
      return;
    }
    if (!check_total(get_le(footer.data(), 8))) return;
    const auto stored = static_cast<std::uint32_t>(get_le(footer.data() + 8, 4));
    if (stored != crc_.value()) {
      end_trace(DiagCode::BinCrcMismatch,
                "binary trace checksum mismatch (bit corruption): footer "
                "crc32 " +
                    std::to_string(stored) + ", computed " +
                    std::to_string(crc_.value()));
    }
  }

  // --- v3 frames ---

  /// Moves to the next frame in frame order and applies the error policy
  /// to it. Returns false at the end of the trace.
  bool advance() {
    buf_ = ended_ ? nullptr : pool_->take();
    if (buf_ == nullptr) {
      // A walk checks the index and footer itself, at the end tag.
      if (!std::exchange(ended_, true)) check_total(info_.total_records);
      return false;
    }
    ++next_frame_;
    stored_bytes_ += buf_->info.csize;
    // The pool decodes only this frame and the ones after it.
    if (view_ != nullptr) {
      view_->release_prefix(static_cast<std::size_t>(buf_->info.offset) /
                            kReleaseBytes * kReleaseBytes);
    }
    slice_ = 0;
    slice_pos_ = 0;
    if (buf_->bad) {
      if (diags_ == nullptr || diags_->strict()) {
        throw_parse_error(std::move(buf_->error));
      }
      diags_->report(DiagSeverity::Error, buf_->code, buf_->error);
      if (diags_->repair()) {
        // Repair: frame isolation — drop it, resume at the next frame.
        buf_->nslices = 0;
        return true;
      }
      // Skip: salvage the decoded prefix of the bad frame, then end.
      ended_ = true;
    }
    if (!intern_frame_defs(*ctx_, *buf_, symbol_map_)) {
      for (std::size_t k = 0; k < buf_->nslices; ++k) {
        remap_frame_records(buf_->slices[k], symbol_map_);
      }
    }
    return true;
  }

  /// Job k: decodes frame k into `buf`; false past the last frame. The
  /// indexed layout reads frame k's index entry, on any thread. The walk
  /// has no workers, so it runs on the consumer: it parses the header at
  /// pos_ in place, and at the end tag checks the index and footer.
  bool decode_job(std::uint64_t k, FrameBuf& buf) {
    if (indexed_) {
      if (k >= info_.frames.size()) return false;
      decode_frame(blob_, info_.frames[k], injected_[k] != 0, k, buf);
      return true;
    }
    if (pos_ < blob_.size() &&
        static_cast<std::uint8_t>(blob_[pos_]) == kTagEnd) {
      ++pos_;
      check_container_footer();
      return false;
    }
    // Sampled once per frame, in frame order, as the indexed layout
    // pre-samples it.
    const bool injected =
        pos_ < blob_.size() &&
        static_cast<std::uint8_t>(blob_[pos_]) == kTagFrame &&
        fault::FaultInjector::enabled() &&
        fault::should_fire(fault::Site::FrameDecode);
    std::uint64_t payload_off = 0;
    TdtbDecodeError why;
    const std::optional<TdtbFrameInfo> fi =
        parse_frame_header(blob_, pos_, &payload_off, &why);
    if (!fi) {
      end_trace(why.code, why.message());
      return false;
    }
    pos_ = static_cast<std::size_t>(payload_off + fi->csize);
    decode_frame(blob_, *fi, injected, k, buf);
    return true;
  }

  /// After a walk's end tag: the rest of the input must be exactly an
  /// index that passes its CRC plus a footer whose totals match.
  void check_container_footer() {
    ended_ = true;
    const std::string_view tail = blob_.substr(pos_);
    pos_ = blob_.size();
    if ((fault::FaultInjector::enabled() &&
         fault::should_fire(fault::Site::BinaryBadFooter)) ||
        tail.size() < kContainerFooterSize) {
      end_trace(DiagCode::BinBadIndex,
                "truncated binary trace (container footer missing or short)");
      return;
    }
    const std::size_t index_len = tail.size() - kContainerFooterSize;
    const char* f = tail.data() + index_len;
    if (std::string_view(f + 24, 4) != std::string_view(kIndexMagic, 4)) {
      end_trace(DiagCode::BinBadIndex,
                "container footer magic mismatch (expected TDTX)");
      return;
    }
    if (get_le(f + 16, 4) != index_len) {
      end_trace(DiagCode::BinBadIndex,
                "frame index length mismatch: footer says " +
                    std::to_string(get_le(f + 16, 4)) + " bytes, found " +
                    std::to_string(index_len));
      return;
    }
    if (crc32(tail.data(), index_len) != get_le(f + 20, 4)) {
      end_trace(DiagCode::BinBadIndex,
                "frame index checksum mismatch (bit corruption)");
      return;
    }
    if (get_le(f + 8, 8) != next_frame_) {
      end_trace(DiagCode::BinCountMismatch,
                "binary trace frame count mismatch: footer says " +
                    std::to_string(get_le(f + 8, 8)) + ", decoded " +
                    std::to_string(next_frame_));
      return;
    }
    check_total(get_le(f, 8));
  }

  TraceContext* ctx_;
  std::unique_ptr<FileView> view_;  // owns the bytes blob_ views, if set
  std::string_view blob_;
  DiagEngine* diags_;
  std::uint8_t version_ = 0;
  std::vector<Symbol> symbol_map_;  // file or frame string id -> symbol

  // Consumer state (calling thread only).
  std::size_t pos_ = 0;         // flat/walked: bytes consumed so far
  bool ended_ = false;          // no more records: end tag, or a failure
  std::uint64_t records_ = 0;   // records handed out
  Crc32 crc_;                   // flat: through pos_
  std::size_t next_frame_ = 0;  // v3: frames handed out or dropped so far
  std::uint64_t stored_bytes_ = 0;
  FrameBuf* buf_ = nullptr;     // the frame being drained, held from pool_
  std::size_t slice_ = 0;       // next slice of buf_ to hand out
  std::size_t slice_pos_ = 0;   // records of that slice already copied out

  // Indexed layout; read-only once constructed.
  bool indexed_ = false;
  TdtbContainerInfo info_;
  std::vector<char> injected_;  // pre-sampled frame-decode faults

  // v3: job k decodes frame k. Last: its workers use the members above.
  std::optional<OrderedPool<FrameBuf>> pool_;
};

}  // namespace

std::unique_ptr<SourceCursor> open_tdtb_cursor(
    TraceContext& ctx, const std::string& path,
    const ViewSourceOptions& options) {
  std::unique_ptr<FileView> view = FileView::open(path);
  if (view == nullptr) {
    throw_io_error("cannot open trace file '" + path + "'");
  }
  const std::string_view bytes = view->bytes();
  return std::make_unique<TdtbCursor>(ctx, std::move(view), bytes, options);
}

// --- sink + whole-trace helpers ---------------------------------------------

void BinaryTraceSink::check_health() {
  if (fault::FaultInjector::enabled() &&
      fault::should_fire(fault::Site::WriterFlush)) [[unlikely]] {
    out_->setstate(std::ios::failbit);  // as a full disk would
  }
  writer_.check();
}

std::vector<char> write_binary_trace(const TraceContext& ctx,
                                     std::span<const TraceRecord> records,
                                     std::uint64_t pid, std::uint8_t version) {
  return write_binary_trace(ctx, records, pid,
                            BinaryWriterOptions{.version = version});
}

std::vector<char> write_binary_trace(const TraceContext& ctx,
                                     std::span<const TraceRecord> records,
                                     std::uint64_t pid,
                                     const BinaryWriterOptions& options) {
  std::ostringstream out(std::ios::binary);
  BinaryTraceWriter w(ctx, out, pid, options);
  w.write_batch(records);
  w.finish();
  const std::string s = out.str();
  return {s.begin(), s.end()};
}

std::vector<TraceRecord> read_binary_trace(TraceContext& ctx,
                                           std::span<const char> blob,
                                           std::uint64_t* pid,
                                           DiagEngine* diags) {
  TdtbCursor cursor(ctx, nullptr, std::string_view(blob.data(), blob.size()),
                    ViewSourceOptions{.diags = diags});
  if (pid != nullptr) *pid = cursor.pid();
  std::vector<TraceRecord> records;
  while (cursor.next_batch(records, kViewBatch) > 0) {
  }
  return records;
}

}  // namespace tdt::trace
