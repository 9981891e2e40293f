#include "trace/binary.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "trace/source.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

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

[[noreturn]] void throw_write_failed() {
  throw Error(ErrorKind::Io,
              "binary trace write failed (disk full or closed stream?)");
}

double seconds_since(std::chrono::steady_clock::time_point t0) noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

/// The writer thread of a threaded v3 writer and the one frame buffer
/// the caller is not filling. That buffer is either free (`pending`
/// false: the caller may swap it for the frame it just filled) or holds
/// a frame of `len` bytes and `records` records that the thread owns
/// until it has written it.
struct BinaryTraceWriter::FrameThread {
  std::mutex mu;
  std::condition_variable cv;
  std::string buf;
  std::size_t len = 0;
  std::uint64_t records = 0;
  bool pending = false;
  bool closing = false;        // no more frames: exit once idle
  std::exception_ptr error;    // the thread stopped on this
  std::thread thread;          // started at the first full frame
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
    // Only compression is worth a thread; stored frames stay inline.
    if (codec_ != Codec::None && options.jobs > 1) {
      thread_ = std::make_unique<FrameThread>();
    }
  } else {
    commit(p);
  }
}

BinaryTraceWriter::~BinaryTraceWriter() { stop_thread(); }

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
  *p++ = static_cast<char>((static_cast<unsigned>(rec.kind) & 0x7) |
                           ((static_cast<unsigned>(rec.scope) & 0x7) << 3));
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
    if (++frame_record_count_ >= frame_target_) end_frame(false);
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

void BinaryTraceWriter::end_frame(bool last) {
  if (frame_record_count_ == 0 && len_ == 0) return;
  // A writer thread starts at the first full frame; a trace that fits
  // one frame never starts it.
  if (thread_ != nullptr && (!last || thread_->thread.joinable())) {
    submit_frame();
  } else {
    store_frame(std::string_view(buf_.data(), len_), frame_record_count_);
  }
  ++frames_;
  len_ = 0;
  frame_record_count_ = 0;
  // The next frame must decode on its own: forget this frame's symbol
  // definitions so first use re-emits them.
  for (std::uint32_t id : frame_defined_ids_) defined_[id] = 0;
  frame_defined_ids_.clear();
  prev_addr_ = 0;
}

void BinaryTraceWriter::store_frame(std::string_view payload,
                                    std::uint64_t records) {
  const auto t0 = timed_ ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  std::string_view stored = payload;
  if (codec_ != Codec::None) {
    if (!codec_compress(codec_, level_, payload, comp_buf_)) {
      throw Error(ErrorKind::Io,
                  "TDTB frame compression failed (codec " +
                      std::string(codec_name(codec_)) + ")");
    }
    stored = comp_buf_;
  }
  TdtbFrameInfo info;
  info.offset = offset_;
  info.records = records;
  info.usize = payload.size();
  info.csize = stored.size();
  info.crc = crc32(stored.data(), stored.size());
  info.codec = static_cast<std::uint8_t>(codec_);

  char head[kFrameHeadBytes];
  char* p = head;
  *p++ = static_cast<char>(kTagFrame);
  *p++ = static_cast<char>(info.codec);
  p = put_varint(p, info.records);
  p = put_varint(p, info.usize);
  p = put_varint(p, info.csize);
  put_le(p, info.crc, 4);
  raw_bytes(head, static_cast<std::size_t>(p + 4 - head));
  raw_bytes(stored.data(), stored.size());
  index_.push_back(info);
  if (timed_) compress_seconds_ += seconds_since(t0);
}

void BinaryTraceWriter::submit_frame() {
  FrameThread& t = *thread_;
  if (!t.thread.joinable()) {
    t.thread = std::thread([this] { frame_thread_main(); });
  }
  std::unique_lock<std::mutex> lock(t.mu);
  t.cv.wait(lock, [&t] { return !t.pending; });
  if (t.error) std::rethrow_exception(t.error);
  buf_.swap(t.buf);
  t.len = len_;
  t.records = frame_record_count_;
  t.pending = true;
  lock.unlock();
  t.cv.notify_all();
}

void BinaryTraceWriter::frame_thread_main() {
  FrameThread& t = *thread_;
  std::unique_lock<std::mutex> lock(t.mu);
  for (;;) {
    t.cv.wait(lock, [&t] { return t.pending || t.closing; });
    if (!t.pending) return;  // closing and idle
    lock.unlock();
    std::exception_ptr error;
    try {
      store_frame(std::string_view(t.buf.data(), t.len), t.records);
      if (!*out_) throw_write_failed();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    t.pending = false;
    t.error = error;
    t.cv.notify_all();
    if (error) return;
  }
}

void BinaryTraceWriter::stop_thread() noexcept {
  if (thread_ == nullptr || !thread_->thread.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(thread_->mu);
    thread_->closing = true;
  }
  thread_->cv.notify_all();
  thread_->thread.join();
}

void BinaryTraceWriter::check() {
  if (thread_ != nullptr) {
    std::lock_guard<std::mutex> lock(thread_->mu);
    if (thread_->error) std::rethrow_exception(thread_->error);
    if (thread_->thread.joinable()) return;  // the thread owns the stream
  }
  if (!*out_) throw_write_failed();
}

void BinaryTraceWriter::fail_stream() {
  stop_thread();
  out_->setstate(std::ios::failbit);
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
    end_frame(true);
    // Join before touching the stream: the writer thread owns it.
    stop_thread();
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

// --- two-phase frame decode -------------------------------------------------

namespace {

struct PayloadCursor {
  const char* p;
  const char* end;

  bool byte(std::uint8_t& b) noexcept {
    if (p == end) return false;
    b = static_cast<std::uint8_t>(*p++);
    return true;
  }
};

}  // namespace

void decode_frame_payload(std::string_view payload, DecodedFrame& out) {
  out.records.clear();
  out.defs.clear();
  out.ok = true;
  out.error.clear();
  for (std::uint64_t id : out.seen_ids) out.seen_defs[id] = 0;
  out.seen_ids.clear();

  PayloadCursor cur{payload.data(), payload.data() + payload.size()};
  // Records are built in place at the back of out.records; when decoding
  // fails mid-record the partial entry must not be surfaced.
  bool mid_record = false;
  const auto fail = [&out, &mid_record](DiagCode code, std::string msg) {
    if (mid_record) out.records.pop_back();
    out.ok = false;
    out.error_code = code;
    out.error = std::move(msg);
  };
  const auto read_varint = [&](std::uint64_t& v, const char* what) {
    const char* before = cur.p;
    if (mem_varint(cur.p, cur.end, v)) return true;
    if (cur.p == cur.end && cur.p - before < kMaxVarintBytes) {
      fail(DiagCode::BinTruncated,
           std::string("truncated frame payload (eof inside ") + what + ")");
    } else {
      fail(DiagCode::BinBadVarint,
           std::string("bad varint in frame payload (") + what + ")");
    }
    return false;
  };
  const auto read_capped = [&](std::uint64_t& v, std::uint64_t max,
                               DiagCode code, const char* what) {
    if (!read_varint(v, what)) return false;
    if (v > max) {
      fail(code, std::string(what) + " value " + std::to_string(v) +
                     " exceeds limit " + std::to_string(max) +
                     " in frame payload");
      return false;
    }
    return true;
  };
  const auto defined = [&out](std::uint64_t id) {
    return id < out.seen_defs.size() && out.seen_defs[id] != 0;
  };

  std::uint64_t prev_addr = 0;  // zigzag-delta base for record addresses
  while (cur.p != cur.end) {
    std::uint8_t tag = 0;
    cur.byte(tag);
    if (tag == kTagString) {
      std::uint64_t id = 0;
      std::uint64_t len = 0;
      if (!read_capped(id, kMaxSymbolId, DiagCode::BinFieldOverflow,
                       "string id")) {
        return;
      }
      if (!read_capped(len, kMaxStringLen, DiagCode::BinStringTooLong,
                       "string length")) {
        return;
      }
      if (static_cast<std::uint64_t>(cur.end - cur.p) < len) {
        fail(DiagCode::BinTruncated, "truncated string in frame payload");
        return;
      }
      const std::string_view text(cur.p, static_cast<std::size_t>(len));
      cur.p += len;
      if (defined(id)) {
        // A duplicate definition with identical text is harmless; with
        // different text there is no single answer for the frame's
        // records, so treat it as corruption.
        if (out.defs[out.seen_defs[id] - 1].second != text) {
          fail(DiagCode::BinBadSymbol,
               "string id " + std::to_string(id) +
                   " redefined within a frame");
          return;
        }
        continue;
      }
      out.defs.emplace_back(id, text);
      if (id >= out.seen_defs.size()) out.seen_defs.resize(id + 1, 0);
      out.seen_defs[id] = static_cast<std::uint32_t>(out.defs.size());
      out.seen_ids.push_back(id);
      continue;
    }
    if (tag != kTagRecord) {
      fail(DiagCode::BinBadTag,
           "unknown entry tag " + std::to_string(tag) + " in frame payload");
      return;
    }
    std::uint8_t packed = 0;
    if (!cur.byte(packed)) {
      fail(DiagCode::BinTruncated, "truncated record in frame payload");
      return;
    }
    TraceRecord& rec = out.records.emplace_back();
    mid_record = true;
    rec.kind = static_cast<AccessKind>(packed & 0x7);
    rec.scope = static_cast<VarScope>((packed >> 3) & 0x7);
    std::uint64_t v = 0;
    if (!read_varint(v, "address")) return;
    prev_addr += unzigzag(v);
    rec.address = prev_addr;
    if (!read_capped(v, 0xFFFFFFFFull, DiagCode::BinFieldOverflow,
                     "access size")) {
      return;
    }
    rec.size = static_cast<std::uint32_t>(v);
    if (!read_capped(v, kMaxSymbolId, DiagCode::BinFieldOverflow,
                     "function id")) {
      return;
    }
    if (!defined(v)) {
      fail(DiagCode::BinBadSymbol,
           "frame references undefined string id " + std::to_string(v));
      return;
    }
    rec.function = Symbol(static_cast<std::uint32_t>(v));
    if (!read_capped(v, 0xFFFFull, DiagCode::BinFieldOverflow, "frame")) {
      return;
    }
    rec.frame = static_cast<std::uint16_t>(v);
    if (!read_capped(v, 0xFFFFull, DiagCode::BinFieldOverflow, "thread")) {
      return;
    }
    rec.thread = static_cast<std::uint16_t>(v);
    if (rec.scope != VarScope::Unknown) {
      if (!read_capped(v, kMaxSymbolId, DiagCode::BinFieldOverflow,
                       "variable id")) {
        return;
      }
      if (!defined(v)) {
        fail(DiagCode::BinBadSymbol,
             "frame references undefined string id " + std::to_string(v));
        return;
      }
      rec.var.base = Symbol(static_cast<std::uint32_t>(v));
      std::uint64_t nsteps = 0;
      if (!read_capped(nsteps, kMaxVarSteps, DiagCode::BinFieldOverflow,
                       "step count")) {
        return;
      }
      for (std::uint64_t i = 0; i < nsteps; ++i) {
        std::uint8_t is_field = 0;
        if (!cur.byte(is_field)) {
          fail(DiagCode::BinTruncated, "truncated var steps in frame payload");
          return;
        }
        if (is_field != 0) {
          if (!read_capped(v, kMaxSymbolId, DiagCode::BinFieldOverflow,
                           "field id")) {
            return;
          }
          if (!defined(v)) {
            fail(DiagCode::BinBadSymbol,
                 "frame references undefined string id " + std::to_string(v));
            return;
          }
          rec.var.steps.push_back(
              VarStep::make_field(Symbol(static_cast<std::uint32_t>(v))));
        } else {
          if (!read_varint(v, "step index")) return;
          rec.var.steps.push_back(VarStep::make_index(v));
        }
      }
    }
    mid_record = false;
  }
}

bool intern_frame_defs(TraceContext& ctx, const DecodedFrame& frame,
                       std::vector<Symbol>& symbol_map) {
  bool identity = true;
  for (const auto& [id, text] : frame.defs) {
    if (id >= symbol_map.size()) symbol_map.resize(id + 1);
    symbol_map[id] = ctx.intern(text);
    identity = identity && symbol_map[id].id() == id;
  }
  return identity;
}

void bind_frame(TraceContext& ctx, DecodedFrame& frame,
                std::vector<Symbol>& symbol_map) {
  // Decode enforces that records only reference ids defined in this
  // frame, so when every definition interned to its wire id (the common
  // fresh-context decode) the rewrite pass would be a no-op — skip the
  // walk over every record.
  if (!intern_frame_defs(ctx, frame, symbol_map)) {
    remap_frame_records(frame.records, symbol_map);
  }
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

// --- reader -----------------------------------------------------------------

/// Private unwind token: the diagnostic is already reported; next() turns
/// this into a clean end-of-trace. Derives from Error so it stays a
/// classified tdt error if it ever escapes (e.g. corruption inside the
/// header, where there is nothing to salvage).
struct BinaryTraceReader::RecoverEnd : Error {
  explicit RecoverEnd(std::string message)
      : Error(ErrorKind::Parse, std::move(message)) {}
};

BinaryTraceReader::BinaryTraceReader(TraceContext& ctx, std::istream& in,
                                     DiagEngine* diags)
    : ctx_(&ctx), in_(&in), diags_(diags) {
  char magic[4];
  in_->read(magic, 4);
  if (!*in_ || std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    if (diags_ != nullptr) {
      diags_->report(DiagSeverity::Fatal, DiagCode::BinBadMagic,
                     "not a TDTB binary trace (bad magic)");
    }
    throw_parse_error("not a TDTB binary trace (bad magic)");
  }
  crc_.update(magic, 4);
  bytes_read_ += 4;
  const int version = next_byte();
  if (version != 1 && version != 2 && version != kTdtbVersionFramed) {
    if (diags_ != nullptr) {
      diags_->report(DiagSeverity::Fatal, DiagCode::BinBadVersion,
                     "unsupported TDTB version " + std::to_string(version));
    }
    throw_parse_error("unsupported TDTB version " + std::to_string(version));
  }
  version_ = static_cast<std::uint8_t>(version);
  pid_ = get_varint();
  if (version_ >= kTdtbVersionFramed) {
    const int codec_byte = next_byte();
    if (codec_byte == std::istream::traits_type::eof()) {
      if (diags_ != nullptr) {
        diags_->report(DiagSeverity::Fatal, DiagCode::BinTruncated,
                       "truncated binary trace (missing codec byte)");
      }
      throw_parse_error("truncated binary trace (missing codec byte)");
    }
    // Frames carry their own codec id; the header byte is advisory, so an
    // unknown value here is not an error.
    default_codec_ =
        codec_from_id(static_cast<std::uint8_t>(codec_byte)).value_or(
            Codec::None);
  }
}

void BinaryTraceReader::fail(DiagCode code, std::string message) {
  if (diags_ == nullptr || diags_->strict()) {
    throw_parse_error(std::move(message));
  }
  diags_->report(DiagSeverity::Error, code, message);
  throw RecoverEnd(std::move(message));
}

void BinaryTraceReader::frame_error(DiagCode code, std::string message) {
  if (diags_ == nullptr || diags_->strict()) {
    throw_parse_error(std::move(message));
  }
  diags_->report(DiagSeverity::Error, code, message);
  // Repair exploits frame isolation: the caller resumes at the next
  // frame. Skip ends the trace with every earlier frame salvaged.
  if (!diags_->repair()) throw RecoverEnd(std::move(message));
}

int BinaryTraceReader::next_byte() {
  const int byte = in_->get();
  if (byte != std::istream::traits_type::eof()) {
    ++bytes_read_;
    crc_.update_byte(static_cast<std::uint8_t>(byte));
  }
  return byte;
}

bool BinaryTraceReader::read_exact(char* dst, std::size_t len) {
  in_->read(dst, static_cast<std::streamsize>(len));
  const std::streamsize got = in_->gcount();
  if (got > 0) bytes_read_ += static_cast<std::uint64_t>(got);
  return got == static_cast<std::streamsize>(len);
}

std::uint64_t BinaryTraceReader::get_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (int n = 0; n < kMaxVarintBytes; ++n) {
    const int byte = next_byte();
    if (byte == std::istream::traits_type::eof()) {
      fail(DiagCode::BinTruncated, "truncated binary trace (eof inside varint)");
    }
    if (n == kMaxVarintBytes - 1 && (byte & 0x7F) > 1) {
      // The 10th byte may only contribute bit 63.
      fail(DiagCode::BinBadVarint, "varint overflows 64 bits in binary trace");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  fail(DiagCode::BinBadVarint, "overlong varint in binary trace (>10 bytes)");
}

std::uint64_t BinaryTraceReader::get_varint_max(std::uint64_t max_value,
                                                DiagCode code,
                                                const char* what) {
  const std::uint64_t v = get_varint();
  if (v > max_value) {
    fail(code, std::string(what) + " value " + std::to_string(v) +
                   " exceeds limit " + std::to_string(max_value) +
                   " in binary trace");
  }
  return v;
}

Symbol BinaryTraceReader::map_symbol(std::uint64_t file_id) {
  if (file_id >= symbol_map_.size() || symbol_map_[file_id].empty()) {
    fail(DiagCode::BinBadSymbol,
         "binary trace references undefined string id " +
             std::to_string(file_id));
  }
  return symbol_map_[file_id];
}

void BinaryTraceReader::check_footer() {
  if (version_ < 2) return;
  if (fault::FaultInjector::enabled() &&
      fault::should_fire(fault::Site::BinaryBadFooter)) [[unlikely]] {
    fail(DiagCode::BinBadFooter,
         "truncated binary trace (v2 footer missing or short)");
  }
  // The CRC covers everything through the end tag, which next_byte() has
  // already folded in; the footer itself is read outside the checksum.
  const std::uint32_t computed = crc_.value();
  char footer[kFooterSize];
  in_->read(footer, kFooterSize);
  if (in_->gcount() != static_cast<std::streamsize>(kFooterSize)) {
    fail(DiagCode::BinBadFooter,
         "truncated binary trace (v2 footer missing or short)");
  }
  const std::uint64_t count = get_le(footer, 8);
  const std::uint32_t stored = static_cast<std::uint32_t>(get_le(footer + 8, 4));
  if (count != record_count_) {
    fail(DiagCode::BinCountMismatch,
         "binary trace record count mismatch: footer says " +
             std::to_string(count) + ", decoded " +
             std::to_string(record_count_));
  }
  if (stored != computed) {
    fail(DiagCode::BinCrcMismatch,
         "binary trace checksum mismatch (bit corruption): footer crc32 " +
             std::to_string(stored) + ", computed " + std::to_string(computed));
  }
}

void BinaryTraceReader::check_container_footer() {
  if (fault::FaultInjector::enabled() &&
      fault::should_fire(fault::Site::BinaryBadFooter)) [[unlikely]] {
    fail(DiagCode::BinBadIndex,
         "truncated binary trace (container footer missing or short)");
  }
  // Everything after the end tag is index + footer; stream it in.
  std::string tail;
  char buf[4096];
  for (;;) {
    in_->read(buf, sizeof buf);
    const std::streamsize got = in_->gcount();
    if (got <= 0) break;
    bytes_read_ += static_cast<std::uint64_t>(got);
    tail.append(buf, static_cast<std::size_t>(got));
    if (!*in_) break;
  }
  if (tail.size() < kContainerFooterSize) {
    fail(DiagCode::BinBadIndex,
         "truncated binary trace (container footer missing or short)");
  }
  const char* f = tail.data() + tail.size() - kContainerFooterSize;
  if (std::string_view(f + 24, 4) != std::string_view(kIndexMagic, 4)) {
    fail(DiagCode::BinBadIndex,
         "container footer magic mismatch (expected TDTX)");
  }
  const std::uint64_t total = get_le(f, 8);
  const std::uint64_t frames = get_le(f + 8, 8);
  const std::uint64_t index_len = get_le(f + 16, 4);
  const std::uint32_t index_crc =
      static_cast<std::uint32_t>(get_le(f + 20, 4));
  if (index_len != tail.size() - kContainerFooterSize) {
    fail(DiagCode::BinBadIndex,
         "frame index length mismatch: footer says " +
             std::to_string(index_len) + " bytes, found " +
             std::to_string(tail.size() - kContainerFooterSize));
  }
  if (crc32(tail.data(), static_cast<std::size_t>(index_len)) != index_crc) {
    fail(DiagCode::BinBadIndex,
         "frame index checksum mismatch (bit corruption)");
  }
  if (frames != frames_read_) {
    fail(DiagCode::BinCountMismatch,
         "binary trace frame count mismatch: footer says " +
             std::to_string(frames) + ", decoded " +
             std::to_string(frames_read_));
  }
  if (total != record_count_) {
    fail(DiagCode::BinCountMismatch,
         "binary trace record count mismatch: footer says " +
             std::to_string(total) + ", decoded " +
             std::to_string(record_count_));
  }
}

bool BinaryTraceReader::next(TraceRecord& out) {
  if (version_ >= kTdtbVersionFramed) return next_v3(out);
  if (done_) return false;
  return next_v12(out);
}

bool BinaryTraceReader::next_v12(TraceRecord& out) {
  try {
    for (;;) {
      if (fault::FaultInjector::enabled()) [[unlikely]] {
        // Entry-boundary faults: a short read ends the stream mid-trace
        // (B003, prefix salvageable); a CRC flip folds a phantom byte
        // into the running checksum so the v2 footer check (B010) trips
        // exactly as it would after real bit corruption.
        if (fault::should_fire(fault::Site::BinaryShortRead)) {
          fail(DiagCode::BinTruncated,
               "truncated binary trace (missing end marker)");
        }
        if (fault::should_fire(fault::Site::BinaryCrcFlip)) {
          crc_.update_byte(0xA5);
        }
      }
      const int tag = next_byte();
      if (tag == std::istream::traits_type::eof()) {
        fail(DiagCode::BinTruncated,
             "truncated binary trace (missing end marker)");
      }
      if (tag == kTagEnd) {
        done_ = true;
        check_footer();
        return false;
      }
      if (tag == kTagString) {
        const std::uint64_t id =
            get_varint_max(kMaxSymbolId, DiagCode::BinFieldOverflow,
                           "string id");
        const std::uint64_t len = get_varint_max(
            kMaxStringLen, DiagCode::BinStringTooLong, "string length");
        std::string text(len, '\0');
        in_->read(text.data(), static_cast<std::streamsize>(len));
        if (in_->gcount() != static_cast<std::streamsize>(len)) {
          fail(DiagCode::BinTruncated, "truncated string in binary trace");
        }
        bytes_read_ += len;
        crc_.update(text.data(), len);
        if (id >= symbol_map_.size()) symbol_map_.resize(id + 1);
        symbol_map_[id] = ctx_->intern(text);
        continue;
      }
      if (tag != kTagRecord) {
        fail(DiagCode::BinBadTag, "unknown entry tag " + std::to_string(tag) +
                                      " in binary trace");
      }
      const int packed = next_byte();
      if (packed == std::istream::traits_type::eof()) {
        fail(DiagCode::BinTruncated, "truncated record in binary trace");
      }
      out = TraceRecord{};
      out.kind = static_cast<AccessKind>(packed & 0x7);
      out.scope = static_cast<VarScope>((packed >> 3) & 0x7);
      out.address = get_varint();
      out.size = static_cast<std::uint32_t>(get_varint_max(
          0xFFFFFFFFull, DiagCode::BinFieldOverflow, "access size"));
      out.function = map_symbol(get_varint_max(
          kMaxSymbolId, DiagCode::BinFieldOverflow, "function id"));
      out.frame = static_cast<std::uint16_t>(get_varint_max(
          0xFFFFull, DiagCode::BinFieldOverflow, "frame"));
      out.thread = static_cast<std::uint16_t>(get_varint_max(
          0xFFFFull, DiagCode::BinFieldOverflow, "thread"));
      if (out.scope != VarScope::Unknown) {
        out.var.base = map_symbol(get_varint_max(
            kMaxSymbolId, DiagCode::BinFieldOverflow, "variable id"));
        const std::uint64_t nsteps = get_varint_max(
            kMaxVarSteps, DiagCode::BinFieldOverflow, "step count");
        for (std::uint64_t i = 0; i < nsteps; ++i) {
          const int is_field = next_byte();
          if (is_field == std::istream::traits_type::eof()) {
            fail(DiagCode::BinTruncated, "truncated var steps in binary trace");
          }
          const std::uint64_t v =
              is_field != 0 ? get_varint_max(kMaxSymbolId,
                                             DiagCode::BinFieldOverflow,
                                             "field id")
                            : get_varint();
          out.var.steps.push_back(is_field != 0 ? VarStep::make_field(
                                                      map_symbol(v))
                                                : VarStep::make_index(v));
        }
      }
      ++record_count_;
      return true;
    }
  } catch (const RecoverEnd&) {
    // Diagnostic already reported; salvage the records decoded so far.
    done_ = true;
    return false;
  }
}

bool BinaryTraceReader::next_v3(TraceRecord& out) {
  for (;;) {
    if (pending_pos_ < pending_.size()) {
      out = std::move(pending_[pending_pos_++]);
      ++record_count_;
      return true;
    }
    if (done_) return false;
    try {
      const int tag = next_byte();
      if (tag == std::istream::traits_type::eof()) {
        fail(DiagCode::BinTruncated,
             "truncated binary trace (missing end marker)");
      }
      if (tag == kTagEnd) {
        done_ = true;
        check_container_footer();
        return false;
      }
      if (tag != kTagFrame) {
        fail(DiagCode::BinBadTag, "unknown entry tag " + std::to_string(tag) +
                                      " in binary trace");
      }
      if (!load_frame()) continue;  // frame dropped under Repair
    } catch (const RecoverEnd&) {
      // Diagnostic already reported; the loop serves whatever load_frame
      // salvaged into pending_, then ends the trace.
      done_ = true;
    }
  }
}

bool BinaryTraceReader::load_frame() {
  pending_.clear();
  pending_pos_ = 0;
  // Sample the frame-decode fault here, once per frame in frame order —
  // the parallel decoder pre-samples the same sequence on its consuming
  // thread, so injected schedules match at any job count.
  const bool injected = fault::FaultInjector::enabled() &&
                        fault::should_fire(fault::Site::FrameDecode);
  const std::uint64_t frame_no = frames_read_;
  const int codec_byte = next_byte();
  if (codec_byte == std::istream::traits_type::eof()) {
    fail(DiagCode::BinTruncated, "truncated frame header in binary trace");
  }
  const std::uint64_t records = get_varint_max(
      kMaxFrameRecords, DiagCode::BinFieldOverflow, "frame record count");
  const std::uint64_t usize = get_varint_max(
      kMaxFrameBytes, DiagCode::BinFieldOverflow, "frame payload size");
  const std::uint64_t csize = get_varint_max(
      kMaxFrameBytes, DiagCode::BinFieldOverflow, "frame stored size");
  char crcb[4];
  if (!read_exact(crcb, 4)) {
    fail(DiagCode::BinTruncated, "truncated frame header in binary trace");
  }
  const std::uint32_t want_crc = static_cast<std::uint32_t>(get_le(crcb, 4));
  // Pull the stored bytes in steps so a corrupt length cannot drive a
  // giant allocation before truncation is noticed.
  stored_.clear();
  std::uint64_t remaining = csize;
  while (remaining > 0) {
    const std::size_t step =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, 4u << 20));
    const std::size_t base = stored_.size();
    stored_.resize(base + step);
    if (!read_exact(stored_.data() + base, step)) {
      fail(DiagCode::BinTruncated, "truncated frame payload in binary trace");
    }
    remaining -= step;
  }
  ++frames_read_;
  compressed_bytes_ += csize;
  // Header parsed and payload in memory: everything below fails in
  // isolation, so frame_error() lets Repair resume at the next frame.
  if (injected) [[unlikely]] {
    frame_error(DiagCode::BinFrameCorrupt,
                "injected frame-decode fault: frame " +
                    std::to_string(frame_no) + " dropped");
    return false;
  }
  if (crc32(stored_.data(), stored_.size()) != want_crc) {
    frame_error(DiagCode::BinFrameCorrupt,
                "frame " + std::to_string(frame_no) +
                    " checksum mismatch (bit corruption)");
    return false;
  }
  const std::optional<Codec> codec =
      codec_from_id(static_cast<std::uint8_t>(codec_byte));
  if (!codec) {
    frame_error(DiagCode::BinBadCodec,
                "frame " + std::to_string(frame_no) + " names unknown codec id " +
                    std::to_string(codec_byte));
    return false;
  }
  std::string_view payload;
  if (*codec == Codec::None) {
    if (stored_.size() != usize) {
      frame_error(DiagCode::BinFrameCorrupt,
                  "frame " + std::to_string(frame_no) +
                      " stored size disagrees with payload size");
      return false;
    }
    payload = stored_;
  } else {
    if (!codec_available(*codec)) {
      frame_error(DiagCode::BinBadCodec,
                  "codec '" + std::string(codec_name(*codec)) +
                      "' unavailable in this process (shared library not "
                      "found or TDT_NO_CODEC set); cannot decode frame " +
                      std::to_string(frame_no));
      return false;
    }
    if (!codec_decompress(*codec, stored_, static_cast<std::size_t>(usize),
                          payload_)) {
      frame_error(DiagCode::BinFrameCorrupt,
                  "frame " + std::to_string(frame_no) +
                      " decompression failed (codec " +
                      std::string(codec_name(*codec)) + ")");
      return false;
    }
    payload = payload_;
  }
  decode_frame_payload(payload, frame_);
  if (!frame_.ok) {
    if (diags_ == nullptr || diags_->strict()) {
      throw_parse_error(std::move(frame_.error));
    }
    diags_->report(DiagSeverity::Error, frame_.error_code, frame_.error);
    if (diags_->repair()) return false;  // drop the frame, resume
    // Skip: salvage the decoded prefix of the bad frame, then end.
    bind_frame(*ctx_, frame_, symbol_map_);
    pending_ = std::move(frame_.records);
    pending_pos_ = 0;
    done_ = true;
    return true;
  }
  if (frame_.records.size() != records) {
    frame_error(DiagCode::BinCountMismatch,
                "frame " + std::to_string(frame_no) +
                    " record count mismatch: header says " +
                    std::to_string(records) + ", decoded " +
                    std::to_string(frame_.records.size()));
    return false;
  }
  bind_frame(*ctx_, frame_, symbol_map_);
  pending_ = std::move(frame_.records);
  pending_pos_ = 0;
  return true;
}

// --- container probe --------------------------------------------------------

std::optional<TdtbFrameInfo> parse_frame_header(
    std::string_view blob, std::uint64_t offset,
    std::uint64_t* payload_offset) noexcept {
  if (offset >= blob.size()) return std::nullopt;
  const char* p = blob.data() + offset;
  const char* end = blob.data() + blob.size();
  if (static_cast<std::uint8_t>(*p++) != kTagFrame) return std::nullopt;
  if (p == end) return std::nullopt;
  TdtbFrameInfo info;
  info.offset = offset;
  info.codec = static_cast<std::uint8_t>(*p++);
  if (!mem_varint(p, end, info.records) || info.records > kMaxFrameRecords) {
    return std::nullopt;
  }
  if (!mem_varint(p, end, info.usize) || info.usize > kMaxFrameBytes) {
    return std::nullopt;
  }
  if (!mem_varint(p, end, info.csize) || info.csize > kMaxFrameBytes) {
    return std::nullopt;
  }
  if (end - p < 4) return std::nullopt;
  info.crc = static_cast<std::uint32_t>(get_le(p, 4));
  p += 4;
  if (static_cast<std::uint64_t>(end - p) < info.csize) return std::nullopt;
  if (payload_offset != nullptr) {
    *payload_offset = static_cast<std::uint64_t>(p - blob.data());
  }
  return info;
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
  // still false: callers fall back to the sequential reader, which
  // produces the precise diagnostic under the chosen error policy.
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
  std::uint64_t prev_end = body_start;
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
    // Cross-check the index entry against the frame header it points at
    // and require frames to tile the body left to right.
    std::uint64_t payload_off = 0;
    const std::optional<TdtbFrameInfo> parsed =
        parse_frame_header(blob, fi.offset, &payload_off);
    if (fi.offset < prev_end || !parsed || parsed->records != fi.records ||
        parsed->usize != fi.usize || parsed->csize != fi.csize ||
        parsed->crc != fi.crc || parsed->codec != fi.codec ||
        payload_off + fi.csize >= index_start) {
      info.frames.clear();
      return info;
    }
    prev_end = payload_off + fi.csize;
    record_sum += fi.records;
    info.frames.push_back(fi);
  }
  if (info.frames.size() != frames || record_sum != total) {
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

// --- sink + whole-trace helpers ---------------------------------------------

void BinaryTraceSink::check_health() {
  if (fault::FaultInjector::enabled() &&
      fault::should_fire(fault::Site::WriterFlush)) [[unlikely]] {
    writer_.fail_stream();
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
  std::istringstream in(std::string(blob.data(), blob.size()),
                        std::ios::binary);
  BinaryTraceReader r(ctx, in, diags);
  if (pid != nullptr) *pid = r.pid();
  std::vector<TraceRecord> records;
  TraceRecord rec;
  while (r.next(rec)) records.push_back(rec);
  return records;
}

}  // namespace tdt::trace
