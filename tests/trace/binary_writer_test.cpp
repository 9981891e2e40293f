// Differential oracle for the TDTB writer: a deliberately naive reference
// encoder is run next to BinaryTraceWriter on fixed-seed random records,
// and the two outputs must be byte-identical for every version, codec,
// frame size and job count.
//
// The reference trades all efficiency for transparency: every byte goes
// through put_byte(), which appends one char and, on v1/v2, feeds one
// byte to the running CRC; a v3 frame is a fresh string compressed with
// the same one-shot codec call the container format names. It is a
// direct transcription of docs/FORMATS.md and shares no encoding code
// with the writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "live_threads.hpp"
#include "trace/binary.hpp"
#include "trace/codec.hpp"
#include "trace/view.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/governor.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"

namespace tdt::trace {
namespace {

/// Byte-at-a-time TDTB encoder (v1, v2 and v3).
class ReferenceTdtbWriter {
 public:
  ReferenceTdtbWriter(const TraceContext& ctx, std::uint64_t pid,
                      const BinaryWriterOptions& options)
      : ctx_(ctx), options_(options) {
    for (const char c : {'T', 'D', 'T', 'B'}) put_header_byte(c);
    put_header_byte(static_cast<char>(options_.version));
    if (framed()) {
      std::string pid_bytes;
      append_varint(pid_bytes, pid);
      for (const char c : pid_bytes) put_header_byte(c);
      put_header_byte(static_cast<char>(options_.codec));
    } else {
      put_varint(pid);
    }
  }

  void write(const TraceRecord& rec) {
    define(rec.function);
    if (!rec.var.empty()) {
      define(rec.var.base);
      for (const VarStep& step : rec.var.steps) {
        if (step.is_field) define(step.field);
      }
    }
    put_byte(0);  // record tag
    put_byte(static_cast<char>((static_cast<unsigned>(rec.kind) & 0x7) |
                               ((static_cast<unsigned>(rec.scope) & 0x7) << 3)));
    if (framed()) {
      // Zigzag of the wrapping 64-bit delta from the previous address.
      const auto delta = static_cast<std::int64_t>(rec.address - prev_addr_);
      put_varint((static_cast<std::uint64_t>(delta) << 1) ^
                 static_cast<std::uint64_t>(delta >> 63));
      prev_addr_ = rec.address;
    } else {
      put_varint(rec.address);
    }
    put_varint(rec.size);
    put_varint(rec.function.id());
    put_varint(rec.frame);
    put_varint(rec.thread);
    if (rec.scope != VarScope::Unknown) {
      put_varint(rec.var.base.id());
      put_varint(rec.var.steps.size());
      for (const VarStep& step : rec.var.steps) {
        put_byte(step.is_field ? 1 : 0);
        put_varint(step.is_field ? step.field.id() : step.index);
      }
    }
    ++records_;
    if (framed() && ++frame_records_ >= frame_target()) flush_frame();
  }

  std::string finish() {
    if (!framed()) {
      put_byte(2);  // end tag, inside the CRC
      if (options_.version == 2) {
        put_le(out_, records_, 8);
        put_le(out_, crc_.value(), 4);
      }
      return out_;
    }
    flush_frame();
    out_.push_back(2);  // end tag
    std::string index;
    for (const Entry& e : index_) {
      append_varint(index, e.offset);
      append_varint(index, e.records);
      append_varint(index, e.usize);
      append_varint(index, e.csize);
      put_le(index, e.crc, 4);
      index.push_back(static_cast<char>(options_.codec));
    }
    out_ += index;
    put_le(out_, records_, 8);
    put_le(out_, index_.size(), 8);
    put_le(out_, index.size(), 4);
    put_le(out_, crc32(index.data(), index.size()), 4);
    out_ += "TDTX";
    return out_;
  }

 private:
  struct Entry {
    std::uint64_t offset, records, usize, csize;
    std::uint32_t crc;
  };

  [[nodiscard]] bool framed() const { return options_.version == 3; }

  [[nodiscard]] std::uint64_t frame_target() const {
    return options_.frame_records == 0 ? kDefaultFrameRecords
                                       : options_.frame_records;
  }

  static void append_varint(std::string& out, std::uint64_t v) {
    while (v >= 0x80) {
      out.push_back(static_cast<char>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    out.push_back(static_cast<char>(v));
  }

  static void put_le(std::string& out, std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  void put_header_byte(char c) {
    if (framed()) {
      out_.push_back(c);  // v3 headers sit outside every checksum
    } else {
      put_byte(c);
    }
  }

  /// Entry bytes: the frame payload on v3, the stream plus CRC on v1/v2.
  void put_byte(char c) {
    if (framed()) {
      frame_.push_back(c);
      return;
    }
    out_.push_back(c);
    crc_.update_byte(static_cast<std::uint8_t>(c));
  }

  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      put_byte(static_cast<char>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    put_byte(static_cast<char>(v));
  }

  /// First use in the file (v1/v2) or in the frame (v3) defines a string.
  void define(Symbol s) {
    if (s.id() >= defined_.size()) defined_.resize(s.id() + 1, false);
    if (defined_[s.id()]) return;
    defined_[s.id()] = true;
    const std::string_view text = ctx_.name(s);
    put_byte(1);  // string tag
    put_varint(s.id());
    put_varint(text.size());
    for (const char c : text) put_byte(c);
  }

  void flush_frame() {
    if (frame_records_ == 0) return;
    std::string stored = frame_;
    if (options_.codec != Codec::None) {
      ASSERT_TRUE(codec_compress(options_.codec, options_.level, frame_,
                                 stored));
    }
    const Entry e{out_.size(), frame_records_, frame_.size(), stored.size(),
                  crc32(stored.data(), stored.size())};
    out_.push_back(3);  // frame tag
    out_.push_back(static_cast<char>(options_.codec));
    append_varint(out_, e.records);
    append_varint(out_, e.usize);
    append_varint(out_, e.csize);
    put_le(out_, e.crc, 4);
    out_ += stored;
    index_.push_back(e);
    frame_.clear();
    frame_records_ = 0;
    prev_addr_ = 0;
    defined_.assign(defined_.size(), false);  // frames decode on their own
  }

  const TraceContext& ctx_;
  BinaryWriterOptions options_;
  std::string out_;
  Crc32 crc_;
  std::vector<bool> defined_;
  std::string frame_;
  std::uint64_t frame_records_ = 0;
  std::uint64_t prev_addr_ = 0;
  std::uint64_t records_ = 0;
  std::vector<Entry> index_;
};

/// Fixed-seed records that reach every varint length: full 64-bit
/// addresses and wrapping deltas (1..10 bytes), step indices near 2^24
/// and 2^64, sizes from 1 (the least a reader takes) up to 2^32 - 1,
/// frames and threads up to 0xFFFF, and symbol ids past 2^14 (3-byte
/// varints). Selectors run from 0 to 12 steps, so many spill
/// SmallVector's three inline steps, and every kind and scope appears,
/// VarScope::Unknown included (with and without a variable attached).
std::vector<TraceRecord> random_records(TraceContext& ctx, std::size_t n,
                                        std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Symbol> names;
  for (int i = 0; i < 20000; ++i) {
    names.push_back(ctx.intern("sym" + std::to_string(i)));
  }
  const auto pick_name = [&] {
    // Mostly a small hot set, sometimes any of the 20000 (ids > 2^14).
    return names[rng.next_below(4) != 0 ? rng.next_below(16)
                                        : rng.next_below(names.size())];
  };
  const auto any_width = [&]() -> std::uint64_t {
    const unsigned bits = static_cast<unsigned>(rng.next_below(65));
    return bits == 0 ? 0 : rng.next() >> (64 - bits);
  };
  std::vector<TraceRecord> out;
  out.reserve(n);
  std::uint64_t addr = 0x7ff000000;
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord rec;
    rec.kind = static_cast<AccessKind>(rng.next_below(5));
    rec.scope = static_cast<VarScope>(rng.next_below(5));
    switch (rng.next_below(4)) {
      case 0: addr += 8; break;                       // strided
      case 1: addr -= rng.next_below(1u << 20); break;  // small back step
      case 2: addr = any_width(); break;              // any magnitude
      default: addr = ~std::uint64_t{0} - rng.next_below(4); break;  // wraps
    }
    rec.address = addr;
    rec.size = static_cast<std::uint32_t>(
        rng.next_below(8) == 0 ? std::max<std::uint64_t>(any_width(), 1)
                               : 1u << rng.next_below(4));
    rec.frame = static_cast<std::uint16_t>(any_width());
    rec.thread = static_cast<std::uint16_t>(any_width());
    rec.function = pick_name();
    if (rec.scope != VarScope::Unknown || rng.next_below(8) == 0) {
      rec.var.base = pick_name();
      const std::uint64_t steps =
          rng.next_below(10) == 0 ? 12 : rng.next_below(7);
      for (std::uint64_t s = 0; s < steps; ++s) {
        if (rng.next_below(3) == 0) {
          rec.var.steps.push_back(VarStep::make_field(pick_name()));
        } else {
          const std::uint64_t index =
              rng.next_below(3) == 0
                  ? (std::uint64_t{1} << 24) - 2 + rng.next_below(4)
                  : any_width();
          rec.var.steps.push_back(VarStep::make_index(index));
        }
      }
    }
    out.push_back(std::move(rec));
  }
  return out;
}

struct WriterCase {
  std::uint8_t version;
  Codec codec;
  std::uint32_t frame_records;
  std::uint64_t jobs;

  [[nodiscard]] BinaryWriterOptions options() const {
    BinaryWriterOptions o;
    o.version = version;
    o.codec = codec;
    o.frame_records = frame_records;
    o.jobs = jobs;
    return o;
  }

  [[nodiscard]] std::string name() const {
    std::string n = "v" + std::to_string(version);
    if (version == 3) {
      n += std::string("_") + std::string(codec_name(codec)) + "_f" +
           std::to_string(frame_records);
    }
    return n + "_j" + std::to_string(jobs);
  }
};

// gtest prints a parameter next to each test's name; print the case name
// rather than the struct's bytes, padding included.
void PrintTo(const WriterCase& c, std::ostream* os) { *os << c.name(); }

std::vector<WriterCase> writer_cases() {
  std::vector<WriterCase> cases;
  for (const std::uint64_t jobs : {1u, 3u}) {
    for (const std::uint8_t version : {std::uint8_t{1}, std::uint8_t{2}}) {
      cases.push_back({version, Codec::None, kDefaultFrameRecords, jobs});
    }
    for (const Codec codec : {Codec::None, Codec::Zstd, Codec::Lz4}) {
      for (const std::uint32_t frame_records : {1u, 3u, 65536u}) {
        cases.push_back({kTdtbVersionFramed, codec, frame_records, jobs});
      }
    }
  }
  return cases;
}

class TdtbWriterDiff : public ::testing::TestWithParam<WriterCase> {};

TEST_P(TdtbWriterDiff, BytesMatchTheNaiveReference) {
  const WriterCase& c = GetParam();
  if (!codec_available(c.codec)) {
    GTEST_SKIP() << codec_name(c.codec) << " is not loadable here";
  }
  TraceContext ctx;
  const std::vector<TraceRecord> records = random_records(ctx, 3000, 0x7d7b);
  const BinaryWriterOptions options = c.options();

  ReferenceTdtbWriter reference(ctx, 0xFEEDFACE12345ull, options);
  for (const TraceRecord& rec : records) reference.write(rec);
  const std::string want = reference.finish();

  std::ostringstream out(std::ios::binary);
  BinaryTraceWriter writer(ctx, out, 0xFEEDFACE12345ull, options);
  for (const TraceRecord& rec : records) writer.write(rec);
  writer.finish();
  const std::string got = out.str();

  ASSERT_EQ(got.size(), want.size());
  std::size_t first_diff = 0;
  while (first_diff < got.size() && got[first_diff] == want[first_diff]) {
    ++first_diff;
  }
  EXPECT_EQ(first_diff, got.size()) << "first differing byte";

  // The reference is only worth trusting if the reader accepts it.
  TraceContext back;
  const std::vector<TraceRecord> parsed =
      read_binary_trace(back, std::vector<char>(want.begin(), want.end()));
  ASSERT_EQ(parsed.size(), records.size());
}

INSTANTIATE_TEST_SUITE_P(Matrix, TdtbWriterDiff,
                         ::testing::ValuesIn(writer_cases()),
                         [](const auto& info) { return info.param.name(); });

// --- the reader, on the reference's bytes ------------------------------------

/// Everything TDTB carries of one record, names spelled out, so records
/// decoded into another context compare equal to the originals. A
/// variable travels only with a known scope.
std::vector<std::string> wire_views(const TraceContext& ctx,
                                    const std::vector<TraceRecord>& records) {
  std::vector<std::string> out;
  out.reserve(records.size());
  for (const TraceRecord& rec : records) {
    std::string s = std::to_string(static_cast<int>(rec.kind)) + ' ' +
                    std::to_string(static_cast<int>(rec.scope)) + ' ' +
                    std::to_string(rec.address) + ' ' +
                    std::to_string(rec.size) + ' ' +
                    std::to_string(rec.frame) + ' ' +
                    std::to_string(rec.thread) + ' ' +
                    std::string(ctx.name(rec.function));
    if (rec.scope != VarScope::Unknown) s += ' ' + ctx.format_var(rec.var);
    out.push_back(std::move(s));
  }
  return out;
}

class TdtbReaderDiff : public ::testing::TestWithParam<WriterCase> {};

// The naive reference's bytes read back, in memory and from a file on
// the inline and the threaded decode, give back every record.
TEST_P(TdtbReaderDiff, ReadsBackEveryReferenceRecord) {
  const WriterCase& c = GetParam();
  if (!codec_available(c.codec)) {
    GTEST_SKIP() << codec_name(c.codec) << " is not loadable here";
  }
  TraceContext ctx;
  const std::vector<TraceRecord> records = random_records(ctx, 3000, 0x7d7b);
  ReferenceTdtbWriter reference(ctx, 0xFEEDFACE12345ull, c.options());
  for (const TraceRecord& rec : records) reference.write(rec);
  const std::string blob = reference.finish();
  const std::vector<std::string> want = wire_views(ctx, records);

  TraceContext mem;
  std::uint64_t pid = 0;
  const std::vector<TraceRecord> parsed = read_binary_trace(
      mem, std::vector<char>(blob.begin(), blob.end()), &pid);
  EXPECT_EQ(pid, 0xFEEDFACE12345ull);
  EXPECT_EQ(wire_views(mem, parsed), want);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("tdt_reader_diff_" + c.name() + ".tdtb");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  for (const int jobs : {1, 3}) {
    TraceContext back;
    VectorSink sink;
    (void)View::source(back, path.string(),
                       {.jobs = jobs, .clamp_jobs = false})
        .drain(sink);
    EXPECT_EQ(wire_views(back, sink.records()), want) << "jobs " << jobs;
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Matrix, TdtbReaderDiff,
                         ::testing::ValuesIn(writer_cases()),
                         [](const auto& info) { return info.param.name(); });

// --- format caps -------------------------------------------------------------

std::vector<BinaryWriterOptions> plain_and_framed() {
  BinaryWriterOptions framed;
  framed.version = kTdtbVersionFramed;
  return {BinaryWriterOptions{}, framed};
}

/// A record exactly at a cap is written, and the reader takes it back.
void expect_round_trip(const TraceContext& ctx, const TraceRecord& rec) {
  for (const BinaryWriterOptions& options : plain_and_framed()) {
    const std::vector<char> blob = write_binary_trace(ctx, {&rec, 1}, 0, options);
    TraceContext back;
    const std::vector<TraceRecord> parsed = read_binary_trace(back, blob);
    ASSERT_EQ(parsed.size(), 1u) << "v" << int(options.version);
    EXPECT_EQ(back.format_record(parsed[0]), ctx.format_record(rec));
  }
}

/// A record past a cap is refused with a classified error naming it,
/// instead of becoming a file the reader rejects.
void expect_cap_error(const TraceContext& ctx, const TraceRecord& rec,
                      const std::string& cap) {
  for (const BinaryWriterOptions& options : plain_and_framed()) {
    try {
      (void)write_binary_trace(ctx, {&rec, 1}, 0, options);
      ADD_FAILURE() << "v" << int(options.version) << " wrote past " << cap;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Semantic);
      EXPECT_NE(std::string(e.what()).find(cap), std::string::npos)
          << e.what();
    }
  }
}

TraceRecord structure_access(TraceContext& ctx) {
  TraceRecord rec;
  rec.scope = VarScope::GlobalStructure;
  rec.address = 0x601040;
  rec.size = 4;
  rec.function = ctx.intern("main");
  rec.var.base = ctx.intern("grid");
  return rec;
}

TEST(TdtbWriterCaps, StepCountOverKMaxVarSteps) {
  TraceContext ctx;
  TraceRecord rec = structure_access(ctx);
  for (std::uint64_t i = 0; i < kMaxVarSteps; ++i) {
    rec.var.steps.push_back(VarStep::make_index(i % 7));
  }
  expect_round_trip(ctx, rec);
  rec.var.steps.push_back(VarStep::make_index(0));
  expect_cap_error(ctx, rec, "kMaxVarSteps");
}

TEST(TdtbWriterCaps, NameLongerThanKMaxStringLen) {
  TraceContext ctx;
  TraceRecord rec = structure_access(ctx);
  rec.function = ctx.intern(std::string(kMaxStringLen, 'f'));
  expect_round_trip(ctx, rec);
  rec.function = ctx.intern(std::string(kMaxStringLen + 1, 'f'));
  expect_cap_error(ctx, rec, "kMaxStringLen");
}

TEST(TdtbWriterCaps, SymbolIdOverKMaxSymbolId) {
  // A context holding 2^24 names would take gigabytes, so the symbol is
  // made up; the writer must refuse it before looking up its text.
  TraceContext ctx;
  TraceRecord rec = structure_access(ctx);
  rec.var.base = Symbol(static_cast<std::uint32_t>(kMaxSymbolId + 1));
  expect_cap_error(ctx, rec, "kMaxSymbolId");
}

TEST(TdtbWriterCaps, IllegalKindScopeOrSize) {
  TraceContext ctx;
  TraceRecord rec = structure_access(ctx);
  rec.kind = AccessKind::Misc;
  rec.size = 1;
  expect_round_trip(ctx, rec);
  // A code of 8 or more must not be masked into another kind or scope.
  for (const unsigned code : {5u, 7u, 9u}) {
    rec.kind = static_cast<AccessKind>(code);
    expect_cap_error(ctx, rec,
                     "access kind value " + std::to_string(code) +
                         " is invalid");
  }
  rec.kind = AccessKind::Load;
  for (const unsigned code : {5u, 6u, 8u}) {
    rec.scope = static_cast<VarScope>(code);
    expect_cap_error(ctx, rec,
                     "scope value " + std::to_string(code) + " is invalid");
  }
  rec.scope = VarScope::GlobalStructure;
  rec.size = 0;
  expect_cap_error(ctx, rec, "access size value 0 is invalid");
}

// --- the writer thread -------------------------------------------------------

/// Counts what the graph hands it and the most threads seen; throws on
/// batch number `throw_at` (1-based, 0 = never).
class ThreadProbe final : public TraceSink {
 public:
  void on_record(const TraceRecord& rec) override { push_batch({&rec, 1}); }
  void push_batch(std::span<const TraceRecord> batch) override {
    if (++batches == throw_at) throw std::runtime_error("sink gave up");
    records += batch.size();
    peak_threads = std::max(peak_threads, live_threads());
  }

  std::size_t throw_at = 0;
  std::size_t batches = 0;
  std::size_t records = 0;
  std::size_t peak_threads = 0;
};

/// Accepts `budget` bytes, then fails every write, as a full disk does.
class FullDiskBuf final : public std::streambuf {
 public:
  explicit FullDiskBuf(std::streamsize budget) : budget_(budget) {}

 protected:
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    if (n > budget_) {
      budget_ = 0;
      return 0;
    }
    budget_ -= n;
    return n;
  }
  int_type overflow(int_type /*c*/) override { return traits_type::eof(); }

 private:
  std::streamsize budget_;
};

/// 20000 random records in 500-record zstd frames: 40 frames, so the
/// writer thread is busy with one frame while the caller fills the next
/// when a run stops.
class TdtbWriterThread : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kFrameRecords = 500;

  void SetUp() override {
    if (!codec_available(Codec::Zstd)) {
      GTEST_SKIP() << "zstd is not loadable here";
    }
    records_ = random_records(ctx_, 20000, 0x5eed);
    path_ = std::filesystem::temp_directory_path() /
            (std::string("tdt_writer_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".tdtb");
    // Runtimes such as TSan start a helper thread with the first thread
    // the process creates; start one here so the baseline includes it.
    std::thread([] {}).join();
    baseline_threads_ = live_threads();
  }

  void TearDown() override { std::filesystem::remove(path_); }

  [[nodiscard]] static BinaryWriterOptions options(std::uint64_t jobs) {
    BinaryWriterOptions o;
    o.version = kTdtbVersionFramed;
    o.codec = Codec::Zstd;
    o.frame_records = kFrameRecords;
    o.jobs = jobs;
    return o;
  }

  /// Streams records_ to `probe` with a TDTB writer sink registered on
  /// the source ahead of it. The writer and its file are gone, and so its
  /// thread joined, by the time this returns or throws.
  GraphResult save(std::uint64_t jobs, TraceSink& probe,
                   const EvalOptions& eval = {}) {
    std::ofstream out(path_, std::ios::binary);
    TraceWriter writer(TraceFormat::Tdtb, ctx_, out, 0, options(jobs),
                       eval.registry);
    const View source = View::source_records(ctx_, records_);
    Graph graph;
    graph.add_sink(source, writer);
    graph.add_sink(source, probe);
    const GraphResult result = graph.run(eval);
    writer.fold_metrics();
    return result;
  }

  /// The writer thread ran, and no thread outlived the run.
  void expect_joined(const ThreadProbe& probe) const {
    if (baseline_threads_ == 0) return;  // no /proc: cannot count threads
    EXPECT_GE(probe.peak_threads, baseline_threads_ + 1);
    EXPECT_TRUE(threads_settle(baseline_threads_));
  }

  TraceContext ctx_;
  std::vector<TraceRecord> records_;
  std::filesystem::path path_;
  std::size_t baseline_threads_ = 0;
};

TEST_F(TdtbWriterThread, FinishJoinsAndBytesMatchInline) {
  obs::Registry reg("test");
  ThreadProbe probe;
  (void)save(3, probe, {.registry = &reg});
  EXPECT_EQ(probe.records, records_.size());
  expect_joined(probe);

  std::ifstream in(path_, std::ios::binary);
  const std::string got((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const std::vector<char> inline_bytes =
      write_binary_trace(ctx_, records_, 0, options(1));
  EXPECT_EQ(got, std::string(inline_bytes.begin(), inline_bytes.end()));

  // The writer folds the write.* family.
  EXPECT_EQ(reg.counter("write.records").value(), records_.size());
  EXPECT_EQ(reg.counter("write.frames").value(),
            records_.size() / kFrameRecords);
  EXPECT_EQ(reg.counter("write.bytes").value(), got.size());
  EXPECT_GT(reg.gauge("write.encode_seconds").value(), 0.0);
  EXPECT_GT(reg.gauge("write.compress_seconds").value(), 0.0);
}

TEST_F(TdtbWriterThread, SinkThrowsWithFramesInFlight) {
  ThreadProbe probe;
  probe.throw_at = 3;
  EXPECT_THROW((void)save(3, probe), std::runtime_error);
  expect_joined(probe);
}

TEST_F(TdtbWriterThread, ExpiredDeadlineStillFinishesTheContainer) {
  Governor governor;
  governor.set_deadline(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ThreadProbe probe;
  const GraphResult r = save(3, probe, {.governor = &governor});
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_EQ(probe.records, kViewBatch);  // stopped after the first batch
  expect_joined(probe);
  const auto info = probe_tdtb_file(path_.string());
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->has_index);
  EXPECT_EQ(info->total_records, kViewBatch);
}

TEST_F(TdtbWriterThread, StreamErrorIsRethrownOnTheCallingThread) {
  FullDiskBuf disk(4096);  // the header and a frame or so
  std::ostream out(&disk);
  bool threw = false;
  {
    BinaryTraceWriter writer(ctx_, out, 0, options(3));
    try {
      for (std::size_t i = 0; i < records_.size(); i += 1000) {
        writer.write_batch(std::span(records_).subspan(i, 1000));
        writer.check();
      }
      writer.finish();
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.kind(), ErrorKind::Io);
      EXPECT_NE(std::string(e.what()).find("trace write failed"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(threw);
  if (baseline_threads_ != 0) {
    EXPECT_TRUE(threads_settle(baseline_threads_));
  }
}

}  // namespace
}  // namespace tdt::trace
