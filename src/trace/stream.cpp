#include "trace/stream.hpp"

#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <optional>
#include <thread>

#include "trace/binary.hpp"
#include "trace/din.hpp"
#include "trace/reader.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/string_util.hpp"

namespace tdt::trace {

TraceFormat guess_trace_format(const std::string& path) noexcept {
  if (ends_with(path, ".tdtb")) return TraceFormat::Tdtb;
  if (ends_with(path, ".din")) return TraceFormat::Din;
  return TraceFormat::Gleipnir;
}

namespace {

/// Folds the reader-side ingestion counters into the metrics registry
/// (the documented read.* counter family). A null registry is a no-op so
/// uninstrumented runs stay byte-identical.
void fold_read_counters(obs::Registry* registry, std::uint64_t records,
                        std::uint64_t bytes, std::uint64_t fast_parses,
                        std::uint64_t slow_parses) {
  if (registry == nullptr) return;
  registry->counter("read.records").add(records);
  registry->counter("read.bytes").add(bytes);
  registry->counter("read.fast_parses").add(fast_parses);
  registry->counter("read.slow_parses").add(slow_parses);
}

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
    fold_read_counters(registry, records_, reader_.counters().bytes,
                       reader_.counters().fast_records,
                       reader_.counters().slow_records);
  }

 private:
  GleipnirReader reader_;
  std::uint64_t records_ = 0;
};

/// Sequential din / TDTB decode over an owned stream.
class RecordLoopCursor final : public SourceCursor {
 public:
  RecordLoopCursor(TraceContext& ctx, std::ifstream in, TraceFormat format,
                   DiagEngine* diags)
      : in_(std::move(in)) {
    if (format == TraceFormat::Din) {
      din_.emplace(ctx, in_, /*default_size=*/4, diags);
    } else {
      binary_.emplace(ctx, in_, diags);
      have_pid_ = true;
      pid_ = binary_->pid();
    }
  }

  std::size_t next_batch(std::vector<TraceRecord>& out,
                         std::size_t max) override {
    std::size_t got = 0;
    TraceRecord rec;
    while (got < max && (din_ ? din_->next(rec) : binary_->next(rec))) {
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
    if (binary_) {
      registry->counter("read.bytes").add(binary_->bytes_read());
      if (binary_->version() >= kTdtbVersionFramed) {
        registry->counter("read.frames").add(binary_->frames_read());
        registry->counter("read.compressed_bytes")
            .add(binary_->compressed_bytes());
      }
    }
  }

 private:
  std::ifstream in_;
  std::optional<DinReader> din_;
  std::optional<BinaryTraceReader> binary_;
  std::uint64_t records_ = 0;
};

// --- TDTB v3 parallel (seekable) decode -------------------------------------

/// One decoded frame waiting for the consumer: its string definitions,
/// the decompression buffer they view into, and its records cut into
/// slices of at most kViewBatch. Buffers cycle worker -> consumer -> free
/// list, so steady-state decoding performs no per-frame allocation — a
/// large fresh vector per frame would serialize every worker on the
/// allocator's mmap/page-zero path and erase the parallel speedup.
struct FrameBuf {
  DecodedFrame frame;   // defs; its records vector is lent by the decoder
  std::string payload;  // decompressed bytes frame.defs views into
  std::vector<std::vector<TraceRecord>> slices;
  std::size_t nslices = 0;  // slices[0, nslices) hold the frame's records
};

/// One frame's decode state in the parallel pipeline. Workers fill a
/// slot; the consumer drains it. `done` is guarded by the pool mutex.
struct FrameSlot {
  FrameBuf* buf = nullptr;
  bool bad = false;
  DiagCode code = DiagCode::BinFrameCorrupt;
  std::string error;
  bool done = false;
};

/// Phase-one decode of one indexed frame (worker context; touches only
/// the slot). Mirrors BinaryTraceReader::load_frame's frame-local error
/// ladder — same codes, same messages — so diagnostics are identical to
/// the sequential reader's at any job count.
void decode_indexed_frame(std::string_view blob, const TdtbFrameInfo& fi,
                          bool injected, std::uint64_t frame_no,
                          FrameSlot& slot) {
  DecodedFrame& frame = slot.buf->frame;
  std::string& payload_buf = slot.buf->payload;
  frame.records.clear();
  frame.defs.clear();
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
    // probe_tdtb validated every entry; a disagreement now means the
    // file changed underneath the mapping.
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
    if (!codec_decompress(*codec, stored, static_cast<std::size_t>(fi.usize),
                          payload_buf)) {
      bad(DiagCode::BinFrameCorrupt,
          "frame " + std::to_string(frame_no) + " decompression failed (codec " +
              std::string(codec_name(*codec)) + ")");
      return;
    }
    payload = payload_buf;
  }
  decode_frame_payload(payload, frame);
  if (!frame.ok) {
    // Keep the decoded prefix: Skip salvages it, Repair/Strict discard.
    slot.bad = true;
    slot.code = frame.error_code;
    slot.error = frame.error;
    return;
  }
  if (frame.records.size() != fi.records) {
    const std::size_t decoded = frame.records.size();
    frame.records.clear();
    bad(DiagCode::BinCountMismatch,
        "frame " + std::to_string(frame_no) +
            " record count mismatch: header says " + std::to_string(fi.records) +
            ", decoded " + std::to_string(decoded));
  }
}

/// Decodes frame `frame_no` into `slot`'s buffer and cuts its records
/// into kViewBatch slices, on the decoding thread. The frame decodes
/// into the thread's own `scratch` vector, so a buffer waiting for the
/// consumer holds its records once, in the slices; the slices' storage
/// is whatever empty batch vectors the consumer traded for earlier ones.
void decode_frame_slices(std::string_view blob, const TdtbFrameInfo& fi,
                         bool injected, std::uint64_t frame_no,
                         FrameSlot& slot, std::vector<TraceRecord>& scratch) {
  FrameBuf& buf = *slot.buf;
  std::vector<TraceRecord>& records = buf.frame.records;
  records.swap(scratch);
  // Warm the scratch vector once per thread; a hostile index cannot
  // drive a giant allocation (the cap).
  records.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(fi.records, 64 * 1024)));
  decode_indexed_frame(blob, fi, injected, frame_no, slot);
  buf.nslices = (records.size() + kViewBatch - 1) / kViewBatch;
  if (buf.slices.size() < buf.nslices) buf.slices.resize(buf.nslices);
  for (std::size_t i = 0; i < buf.nslices; ++i) {
    const auto first =
        records.begin() + static_cast<std::ptrdiff_t>(i * kViewBatch);
    const std::size_t n = std::min(kViewBatch, records.size() - i * kViewBatch);
    buf.slices[i].assign(first, first + static_cast<std::ptrdiff_t>(n));
  }
  records.swap(scratch);
}

/// Seekable parallel decode of a v3 container whose frame index
/// validated. Workers claim frames in order and run the thread-safe
/// phase-one decode, slices included, ahead of the consumer;
/// next_batch() binds (interns) frames strictly in frame order on the
/// calling thread and hands out one slice per call — by swapping it with
/// the caller's empty batch vector, so no record is copied on the
/// consuming thread. So the string pool stays single-writer, symbol ids
/// match a sequential decode, and the batches are byte-identical at any
/// job count. A batch never spans two frames. A claim window (2x
/// workers) bounds decoded-but-unconsumed memory to window + 1 frames.
/// Error-policy semantics match the sequential reader: Strict throws,
/// Repair drops the corrupt frame and resumes at the next one, Skip
/// salvages the decoded prefix and ends the trace. finish() and the
/// destructor cancel and join the workers, so a run that ends or stops
/// early leaves no decode thread behind.
class IndexedCursor final : public SourceCursor {
 public:
  IndexedCursor(TraceContext& ctx, std::unique_ptr<FileView> view,
                TdtbContainerInfo info, const ViewSourceOptions& options)
      : ctx_(&ctx),
        view_(std::move(view)),
        blob_(view_->bytes()),
        info_(std::move(info)),
        diags_(options.diags),
        injected_(info_.frames.size(), 0) {
    have_pid_ = true;
    pid_ = info_.pid;
    const std::size_t nframes = info_.frames.size();
    // Pre-sample the frame-decode fault site here, once per frame in
    // frame order — the same draw sequence the sequential reader makes —
    // so injected schedules are identical at any job count.
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
    const std::size_t nworkers =
        options.clamp_jobs ? std::min(requested, hw) : requested;
    // One effective worker decodes inline in next_batch(): no slots, no
    // threads, no condition variables.
    if (nworkers <= 1) return;
    slots_.resize(nframes);
    window_ = nworkers * 2;
    pool_.reserve(nworkers);
    for (std::size_t i = 0; i < nworkers; ++i) {
      pool_.emplace_back([this] { worker_main(); });
    }
  }

  ~IndexedCursor() override { stop_workers(); }

  IndexedCursor(const IndexedCursor&) = delete;
  IndexedCursor& operator=(const IndexedCursor&) = delete;

  std::size_t next_batch(std::vector<TraceRecord>& out,
                         std::size_t max) override {
    while (buf_ == nullptr || slice_ == buf_->nslices) {
      if (!advance()) return 0;
    }
    std::vector<TraceRecord>& slice = buf_->slices[slice_];
    std::size_t n = 0;
    if (pos_ == 0 && out.empty() && slice.size() <= max) {
      out.swap(slice);  // the caller's empty vector takes the slice's place
      n = out.size();
    } else {
      n = std::min(max, slice.size() - pos_);
      const auto first = slice.begin() + static_cast<std::ptrdiff_t>(pos_);
      out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(n));
      pos_ += n;
    }
    if (pos_ == slice.size()) {  // handed over whole, or copied to its end
      ++slice_;
      pos_ = 0;
    }
    records_ += n;
    return n;
  }

  void finish(obs::Registry* registry) override {
    stop_workers();
    // read.bytes: a complete pass consumed the whole container; an early
    // stop counts through the end of the last frame handed out (the
    // start of the first untouched frame).
    const std::uint64_t bytes = next_frame_ == info_.frames.size()
                                    ? blob_.size()
                                    : info_.frames[next_frame_].offset;
    fold_read_counters(registry, records_, bytes, 0, 0);
    if (registry != nullptr) {
      registry->counter("read.frames").add(next_frame_);
      registry->counter("read.compressed_bytes").add(stored_bytes_);
    }
  }

 private:
  /// Moves to the next frame in frame order and applies the sequential
  /// reader's error policy to it. Returns false at end of trace.
  bool advance() {
    release_frame();
    if (ended_ || next_frame_ == info_.frames.size()) return false;
    const std::size_t i = next_frame_++;
    FrameSlot& slot = pool_.empty() ? decode_inline(i) : await(i);
    stored_bytes_ += info_.frames[i].csize;
    slot_ = &slot;
    buf_ = slot.buf;
    slice_ = 0;
    pos_ = 0;
    if (slot.bad) {
      if (diags_ == nullptr || diags_->strict()) {
        throw_parse_error(std::move(slot.error));
      }
      diags_->report(DiagSeverity::Error, slot.code, slot.error);
      if (diags_->repair()) {
        // Repair: frame isolation — drop it, resume at the next frame.
        buf_->nslices = 0;
        return true;
      }
      // Skip: salvage the decoded prefix of the bad frame, then end.
      ended_ = true;
    }
    if (!intern_frame_defs(*ctx_, buf_->frame, symbol_map_)) {
      for (std::size_t k = 0; k < buf_->nslices; ++k) {
        remap_frame_records(buf_->slices[k], symbol_map_);
      }
    }
    return true;
  }

  FrameSlot& decode_inline(std::size_t i) {
    solo_slot_ = FrameSlot{};
    solo_slot_.buf = &solo_buf_;
    decode_frame_slices(blob_, info_.frames[i], injected_[i] != 0,
                        static_cast<std::uint64_t>(i), solo_slot_, scratch_);
    return solo_slot_;
  }

  FrameSlot& await(std::size_t i) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return slots_[i].done; });
    return slots_[i];
  }

  /// Hands the drained frame's buffer back to the workers and opens the
  /// claim window by one frame.
  void release_frame() {
    if (slot_ == nullptr) return;
    if (!pool_.empty()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        free_bufs_.push_back(slot_->buf);
        released_ = next_frame_;
      }
      cv_.notify_all();
    }
    slot_->buf = nullptr;
    slot_ = nullptr;
    buf_ = nullptr;
  }

  void worker_main() {
    const std::size_t nframes = info_.frames.size();
    std::vector<TraceRecord> scratch;  // this worker's decode target
    for (;;) {
      std::size_t idx = 0;
      FrameBuf* buf = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return cancel_ || next_claim_ >= nframes ||
                 next_claim_ < released_ + window_;
        });
        if (cancel_ || next_claim_ >= nframes) return;
        idx = next_claim_++;
        if (!free_bufs_.empty()) {
          buf = free_bufs_.back();
          free_bufs_.pop_back();
        }
      }
      if (buf == nullptr) {
        auto fresh = std::make_unique<FrameBuf>();
        buf = fresh.get();
        std::lock_guard<std::mutex> lock(mu_);
        buf_storage_.push_back(std::move(fresh));
      }
      FrameSlot& slot = slots_[idx];
      slot.buf = buf;
      try {
        decode_frame_slices(blob_, info_.frames[idx], injected_[idx] != 0,
                            static_cast<std::uint64_t>(idx), slot, scratch);
      } catch (const std::exception& e) {
        buf->nslices = 0;
        slot.bad = true;
        slot.code = DiagCode::BinFrameCorrupt;
        slot.error = e.what();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        slot.done = true;
      }
      cv_.notify_all();
    }
  }

  void stop_workers() noexcept {
    {
      std::lock_guard<std::mutex> lock(mu_);
      cancel_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : pool_) {
      if (t.joinable()) t.join();
    }
  }

  TraceContext* ctx_;
  std::unique_ptr<FileView> view_;  // owns the bytes blob_ views
  std::string_view blob_;
  TdtbContainerInfo info_;
  DiagEngine* diags_;
  std::vector<char> injected_;  // pre-sampled frame-decode faults
  std::vector<Symbol> symbol_map_;

  // Consumer state (calling thread only).
  std::size_t next_frame_ = 0;   // frames handed out or dropped so far
  FrameSlot* slot_ = nullptr;    // slot of the frame being drained
  FrameBuf* buf_ = nullptr;      // its decoded slices
  std::size_t slice_ = 0;        // next slice of buf_ to hand out
  std::size_t pos_ = 0;          // records of that slice already copied out
  bool ended_ = false;           // Skip salvaged a bad frame
  std::uint64_t records_ = 0;
  std::uint64_t stored_bytes_ = 0;
  FrameBuf solo_buf_;            // inline decode (one worker)
  FrameSlot solo_slot_;
  std::vector<TraceRecord> scratch_;

  // Worker pool (empty when decoding inline). Everything below is
  // guarded by mu_ except the slots' payloads, which `done` publishes.
  std::vector<FrameSlot> slots_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t next_claim_ = 0;  // next frame a worker decodes
  std::size_t released_ = 0;    // frames the consumer is done with
  std::size_t window_ = 0;
  bool cancel_ = false;
  // Decode-buffer pool. After warm-up the pipeline recycles buffers and
  // steady-state decode allocates nothing.
  std::vector<std::unique_ptr<FrameBuf>> buf_storage_;
  std::vector<FrameBuf*> free_bufs_;
  std::vector<std::thread> pool_;
};

}  // namespace

std::unique_ptr<SourceCursor> open_trace_cursor(
    TraceContext& ctx, const std::string& path,
    const ViewSourceOptions& options) {
  const TraceFormat format = guess_trace_format(path);
  if (format == TraceFormat::Gleipnir) {
    return std::make_unique<GleipnirCursor>(
        ctx, open_trace_byte_source(path, options.ingest), options.diags);
  }
  if (format == TraceFormat::Tdtb && path != "-") {
    // Probe and decode read the same mapped bytes (no reopen window). A
    // v3 container with a validated index takes the seekable parallel
    // path; everything else — v1/v2 blobs, a v3 whose index fails
    // validation — falls through to the sequential reader, which
    // produces the precise diagnostic under the chosen error policy.
    if (std::unique_ptr<FileView> view = FileView::open(path)) {
      std::optional<TdtbContainerInfo> info = probe_tdtb(view->bytes());
      if (info && info->has_index) {
        return std::make_unique<IndexedCursor>(ctx, std::move(view),
                                               std::move(*info), options);
      }
    }
  }
  // Binary everywhere: din is a text format, but opening it in text mode
  // would let a CRLF-translating runtime silently rewrite byte offsets.
  std::ifstream in(path, std::ios::binary | std::ios::in);
  if (!in) {
    throw_io_error("cannot open trace file '" + path + "'");
  }
  return std::make_unique<RecordLoopCursor>(ctx, std::move(in), format,
                                            options.diags);
}

std::unique_ptr<SourceCursor> open_text_cursor(TraceContext& ctx,
                                               std::string_view text,
                                               DiagEngine* diags) {
  return std::make_unique<GleipnirCursor>(ctx, text, diags);
}

}  // namespace tdt::trace
