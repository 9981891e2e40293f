#include "trace/stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "live_threads.hpp"
#include "trace/binary.hpp"
#include "trace/codec.hpp"
#include "trace/reader.hpp"
#include "trace/sink.hpp"
#include "trace/view.hpp"
#include "trace/writer.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/governor.hpp"
#include "util/obs.hpp"

namespace tdt::trace {
namespace {

std::filesystem::path temp_path(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

void write_file(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Enough records for a healthy frame count at frame_records=16, with
// per-frame symbol churn so v3 string redefinition is exercised.
std::vector<TraceRecord> big_records(TraceContext& ctx, std::size_t n) {
  std::vector<TraceRecord> out;
  out.reserve(n);
  TraceRecord rec;
  rec.size = 8;
  for (std::size_t i = 0; i < n; ++i) {
    rec.kind = i % 3 == 0 ? AccessKind::Store : AccessKind::Load;
    rec.address = 0x7ff0000000ull + i * 16;
    rec.function = ctx.intern("fn_" + std::to_string(i % 17));
    out.push_back(rec);
  }
  return out;
}

std::vector<std::string> formatted(TraceContext& ctx,
                                   const std::vector<TraceRecord>& records) {
  std::vector<std::string> out;
  out.reserve(records.size());
  for (const TraceRecord& r : records) out.push_back(ctx.format_record(r));
  return out;
}

/// Streams `path` with the given job count and returns formatted
/// records. `clamp` false forces the threaded decode pipeline even on
/// single-core hosts, so the concurrent path is exercised everywhere.
std::vector<std::string> stream_formatted(const std::filesystem::path& path,
                                          int jobs, DiagEngine* diags,
                                          obs::Registry* registry = nullptr,
                                          bool clamp = true) {
  TraceContext ctx;
  VectorSink sink;
  const ViewSourceOptions options{
      .diags = diags, .jobs = jobs, .clamp_jobs = clamp};
  (void)View::source(ctx, path.string(), options)
      .drain(sink, {.registry = registry});
  return formatted(ctx, sink.records());
}

TEST(StreamV3, ParallelDecodeIsByteIdenticalToSequential) {
  TraceContext ctx;
  const auto records = big_records(ctx, 400);
  BinaryWriterOptions options;
  options.version = kTdtbVersionFramed;
  options.frame_records = 16;  // 25 frames
  for (const Codec codec : {Codec::None, Codec::Zstd, Codec::Lz4}) {
    if (!codec_available(codec)) continue;
    options.codec = codec;
    const auto blob = write_binary_trace(ctx, records, 1, options);
    const auto path = temp_path("tdt_stream_par.tdtb");
    write_file(path, std::string_view(blob.data(), blob.size()));

    obs::Registry seq_reg("test");
    DiagEngine seq_diags(ErrorPolicy::Strict);
    const auto seq = stream_formatted(path, 1, &seq_diags, &seq_reg);
    ASSERT_EQ(seq.size(), records.size()) << codec_name(codec);
    EXPECT_EQ(seq_reg.counter("read.frames").value(), 25u);
    if (codec != Codec::None) {
      EXPECT_GT(seq_reg.counter("read.compressed_bytes").value(), 0u);
      EXPECT_LT(seq_reg.counter("read.compressed_bytes").value(), blob.size());
    }

    for (const int jobs : {2, 4, 8}) {
      for (const bool clamp : {true, false}) {
        obs::Registry par_reg("test");
        DiagEngine par_diags(ErrorPolicy::Strict);
        const auto par =
            stream_formatted(path, jobs, &par_diags, &par_reg, clamp);
        EXPECT_EQ(par, seq) << codec_name(codec) << " jobs=" << jobs
                            << " clamp=" << clamp;
        EXPECT_EQ(par_reg.counter("read.frames").value(), 25u);
        EXPECT_EQ(par_reg.counter("read.records").value(), records.size());
      }
    }
    std::filesystem::remove(path);
  }
}

TEST(StreamV3, ParallelRepairMatchesSequentialRepair) {
  TraceContext ctx;
  const auto records = big_records(ctx, 400);
  BinaryWriterOptions options;
  options.version = kTdtbVersionFramed;
  options.frame_records = 16;
  const auto blob = write_binary_trace(ctx, records, 1, options);
  std::string bytes(blob.begin(), blob.end());
  const auto info = probe_tdtb(bytes);
  ASSERT_TRUE(info.has_value());
  ASSERT_GE(info->frames.size(), 10u);
  std::uint64_t payload_off = 0;
  ASSERT_TRUE(
      parse_frame_header(bytes, info->frames[7].offset, &payload_off)
          .has_value());
  bytes[static_cast<std::size_t>(payload_off)] ^= 0x01;
  const auto path = temp_path("tdt_stream_repair.tdtb");
  write_file(path, bytes);

  // Strict parallel decode throws just like the sequential reader.
  {
    TraceContext c;
    VectorSink sink;
    const View source =
        View::source(c, path.string(), {.jobs = 4, .clamp_jobs = false});
    EXPECT_THROW((void)source.drain(sink), Error);
  }

  DiagEngine seq_diags(ErrorPolicy::Repair);
  const auto seq = stream_formatted(path, 1, &seq_diags);
  EXPECT_EQ(seq.size(), records.size() - 16);  // one frame dropped
  EXPECT_EQ(seq_diags.count(DiagCode::BinFrameCorrupt), 1u);

  DiagEngine par_diags(ErrorPolicy::Repair);
  const auto par =
      stream_formatted(path, 4, &par_diags, nullptr, /*clamp=*/false);
  EXPECT_EQ(par, seq);
  EXPECT_EQ(par_diags.count(DiagCode::BinFrameCorrupt), 1u);

  // Skip: both decoders salvage the frames before the corruption.
  DiagEngine seq_skip(ErrorPolicy::Skip);
  const auto seq_skipped = stream_formatted(path, 1, &seq_skip);
  DiagEngine par_skip(ErrorPolicy::Skip);
  const auto par_skipped =
      stream_formatted(path, 4, &par_skip, nullptr, /*clamp=*/false);
  EXPECT_EQ(seq_skipped.size(), 7u * 16u);
  EXPECT_EQ(par_skipped, seq_skipped);
  std::filesystem::remove(path);
}

TEST(StreamV3, CursorHonoursSmallBatchLimits) {
  TraceContext ctx;
  const auto records = big_records(ctx, 10000);
  BinaryWriterOptions options;
  options.version = kTdtbVersionFramed;
  options.frame_records = 5000;  // frames span two view-batch slices
  const auto blob = write_binary_trace(ctx, records, 1, options);
  const auto path = temp_path("tdt_stream_limit.tdtb");
  write_file(path, std::string_view(blob.data(), blob.size()));

  // `got` is never empty after the first call, so every batch after it
  // is copied out of a slice rather than handed over whole.
  TraceContext c;
  const auto cursor = open_trace_cursor(
      c, path.string(), {.jobs = 2, .clamp_jobs = false});
  std::vector<TraceRecord> got;
  std::size_t calls = 0;
  for (std::size_t n = 0; (n = cursor->next_batch(got, 1000)) > 0;) {
    EXPECT_LE(n, 1000u);
    ++calls;
  }
  cursor->finish(nullptr);
  EXPECT_EQ(formatted(c, got), formatted(ctx, records));
  EXPECT_EQ(calls, 12u);  // per frame: 4 x 1000 + 96, then 904
  std::filesystem::remove(path);
}

/// Resident bytes of this process's mapping of `path`, from
/// /proc/self/smaps; nullopt when the file is not mapped or there is no
/// /proc.
std::optional<std::uint64_t> mapped_rss(const std::filesystem::path& path) {
  std::ifstream smaps("/proc/self/smaps");
  const std::string name = std::filesystem::canonical(path).string();
  bool in_mapping = false;
  for (std::string line; std::getline(smaps, line);) {
    if (line.size() > name.size() && line.ends_with(" " + name)) {
      in_mapping = true;
    } else if (in_mapping && line.starts_with("Rss:")) {
      return std::stoull(line.substr(4)) * 1024;
    }
  }
  return std::nullopt;
}

// Opening a mapped v3 file checks every index entry against its frame
// header, which faults in the pages around each header. They must be
// given back before decode starts: one batch in, the mapping holds what
// decode read, not a window around every frame of the file.
TEST(StreamV3, IndexProbeLeavesNoFramePagesResident) {
  const auto path = temp_path("tdt_stream_probe_rss.tdtb");
  {
    TraceContext ctx;
    BinaryWriterOptions options;
    options.version = kTdtbVersionFramed;
    options.frame_records = 16384;
    std::ofstream out(path, std::ios::binary);
    BinaryTraceWriter writer(ctx, out, 1, options);
    // One frame per batch, so the test never holds the whole trace.
    for (int frame = 0; frame < 128; ++frame) {
      writer.write_batch(big_records(ctx, options.frame_records));
    }
    writer.finish();
  }
  ASSERT_EQ(probe_tdtb_file(path.string())->frames.size(), 128u);
  const std::uintmax_t file_bytes = std::filesystem::file_size(path);

  TraceContext c;
  const auto cursor = open_trace_cursor(c, path.string(), {.jobs = 1});
  std::vector<TraceRecord> got;
  ASSERT_GT(cursor->next_batch(got, kViewBatch), 0u);
  const std::optional<std::uint64_t> rss = mapped_rss(path);
  if (!rss) GTEST_SKIP() << "no /proc/self/smaps entry for the mapping";
  // Decode has read two of 128 frames. The kernel maps more than the
  // pages read (a fault-around window, or a whole large folio), but not
  // a quarter of the file unless every frame was touched.
  EXPECT_LT(*rss, file_bytes / 4) << "of a " << file_bytes << "-byte file";
  cursor->finish(nullptr);
  std::filesystem::remove(path);
}

TEST(StreamV3, InvalidIndexFallsBackToSequential) {
  TraceContext ctx;
  const auto records = big_records(ctx, 100);
  BinaryWriterOptions options;
  options.version = kTdtbVersionFramed;
  options.frame_records = 16;
  const auto blob = write_binary_trace(ctx, records, 1, options);
  std::string bytes(blob.begin(), blob.end());
  bytes[bytes.size() - 8] ^= 0x11;  // corrupt the stored index CRC
  const auto path = temp_path("tdt_stream_badindex.tdtb");
  write_file(path, bytes);

  // jobs=4 has no valid index to parallelize over; walking the frames
  // still decodes every record and reports the bad index.
  DiagEngine diags(ErrorPolicy::Skip);
  const auto got = stream_formatted(path, 4, &diags);
  EXPECT_EQ(got.size(), records.size());
  EXPECT_EQ(diags.count(DiagCode::BinBadIndex), 1u);
  std::filesystem::remove(path);
}

/// Folds every record it receives, formatted, into one digest, and notes
/// the most threads alive while batches arrive.
class DigestSink final : public TraceSink {
 public:
  explicit DigestSink(TraceContext& ctx) : ctx_(&ctx) {}
  void on_record(const TraceRecord& rec) override {
    ++records;
    digest = (digest ^ std::hash<std::string>{}(ctx_->format_record(rec))) *
             1099511628211ull;
  }
  void push_batch(std::span<const TraceRecord> batch) override {
    peak_threads = std::max(peak_threads, live_threads());
    for (const TraceRecord& rec : batch) on_record(rec);
  }

  std::size_t records = 0;
  std::uint64_t digest = 14695981039346656037ull;
  std::size_t peak_threads = 0;

 private:
  TraceContext* ctx_;
};

// The decode window holds at most (workers + 1) x 65,536 records. At
// jobs 3 (unclamped) that is two frames of 2 x 65,536 records, so one
// decode thread runs, and one frame of 4 x 65,536, so the consumer
// decodes inline. Three frames each, so the frame count does not cap
// the workers. Either way the records match jobs 1.
TEST(StreamV3, LargeFramesRunFewerDecodeThreads) {
  std::thread([] {}).join();  // TSan's helper thread joins the baseline
  const std::size_t baseline = live_threads();
  const auto path = temp_path("tdt_stream_large_frames.tdtb");
  for (const auto& [multiple, threads] :
       {std::pair<std::uint32_t, std::size_t>{2, 1}, {4, 0}}) {
    const std::size_t frame = multiple * std::size_t{kDefaultFrameRecords};
    const std::size_t total = 2 * frame + 1;
    {
      TraceContext ctx;
      BinaryWriterOptions options;
      options.version = kTdtbVersionFramed;
      options.frame_records = static_cast<std::uint32_t>(frame);
      std::ostringstream out(std::ios::binary);
      BinaryTraceWriter writer(ctx, out, 1, options);
      // One frame per batch, so the test never holds the whole trace.
      for (std::size_t first = 0; first < total; first += frame) {
        writer.write_batch(big_records(ctx, std::min(frame, total - first)));
      }
      writer.finish();
      write_file(path, out.str());
    }
    const auto info = probe_tdtb_file(path.string());
    ASSERT_TRUE(info.has_value() && info->has_index);
    ASSERT_EQ(info->frames.size(), 3u);

    std::uint64_t jobs1_digest = 0;
    for (const int jobs : {1, 3}) {
      TraceContext ctx;
      DigestSink sink(ctx);
      (void)View::source(ctx, path.string(), {.jobs = jobs, .clamp_jobs = false})
          .drain(sink);
      const std::string at =
          "frames of " + std::to_string(frame) + ", jobs " + std::to_string(jobs);
      EXPECT_EQ(sink.records, total) << at;
      if (jobs == 1) {
        jobs1_digest = sink.digest;
      } else {
        EXPECT_EQ(sink.digest, jobs1_digest) << at;
      }
      if (baseline != 0) {  // no /proc: cannot count threads
        EXPECT_EQ(sink.peak_threads, baseline + (jobs == 1 ? 0 : threads))
            << at;
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(StreamGz, GzipTextIngestMatchesPlain) {
  if (!gzip_available()) {
    GTEST_LOG_(INFO) << "zlib not built in; skipping";
    return;
  }
  TraceContext ctx;
  const auto records = big_records(ctx, 200);
  const std::string text = write_trace_string(ctx, records);
  const auto plain_path = temp_path("tdt_stream_text.out");
  write_file(plain_path, text);
  std::string gz;
  ASSERT_TRUE(gzip_compress(text, gz));
  const auto gz_path = temp_path("tdt_stream_text.out.gz");
  write_file(gz_path, gz);
  ASSERT_LT(slurp(gz_path).size(), text.size());

  DiagEngine plain_diags(ErrorPolicy::Strict);
  const auto from_plain = stream_formatted(plain_path, 1, &plain_diags);
  DiagEngine gz_diags(ErrorPolicy::Strict);
  const auto from_gz = stream_formatted(gz_path, 1, &gz_diags);
  EXPECT_EQ(from_gz, from_plain);
  EXPECT_EQ(from_gz.size(), records.size());
  std::filesystem::remove(plain_path);
  std::filesystem::remove(gz_path);
}

// --- early stop on the indexed (seekable v3) source ------------------------

/// Counts what the graph hands it and the largest batch; throws on
/// batch number `throw_at` (1-based, 0 = never).
class BatchProbe final : public TraceSink {
 public:
  void on_record(const TraceRecord& rec) override { push_batch({&rec, 1}); }
  void push_batch(std::span<const TraceRecord> batch) override {
    if (++batches == throw_at) throw std::runtime_error("sink gave up");
    records += batch.size();
    largest = std::max(largest, batch.size());
    peak_threads = std::max(peak_threads, live_threads());
  }

  std::size_t throw_at = 0;
  std::size_t batches = 0;
  std::size_t records = 0;
  std::size_t largest = 0;
  std::size_t peak_threads = 0;
};

/// A v3 container of 24 frames x 5000 records, decoded by 4 unclamped
/// workers. Every frame is larger than one 4096-record view batch, and
/// the claim window (5 frames) is shorter than the container, so the
/// workers are alive and waiting when the consumer stops.
class IndexedSourceEarlyStop : public ::testing::Test {
 protected:
  static constexpr std::size_t kFrames = 24;
  static constexpr std::size_t kFrameRecords = 5000;
  static constexpr int kJobs = 4;

  void SetUp() override {
    TraceContext ctx;
    BinaryWriterOptions options;
    options.version = kTdtbVersionFramed;
    options.frame_records = kFrameRecords;
    const auto blob = write_binary_trace(
        ctx, big_records(ctx, kFrames * kFrameRecords), 1, options);
    bytes_.assign(blob.begin(), blob.end());
    const auto info = probe_tdtb(bytes_);
    ASSERT_TRUE(info.has_value() && info->has_index);
    ASSERT_EQ(info->frames.size(), kFrames);
    info_ = *info;
    path_ = temp_path(
        (std::string("tdt_early_stop_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".tdtb")
            .c_str());
    write_file(path_, bytes_);
    // Runtimes such as TSan start a helper thread with the first thread
    // the process creates; start one here so the baseline includes it.
    std::thread([] {}).join();
    baseline_threads_ = live_threads();
  }

  void TearDown() override { std::filesystem::remove(path_); }

  [[nodiscard]] View source(TraceContext& ctx) const {
    return View::source(ctx, path_.string(),
                        {.jobs = kJobs, .clamp_jobs = false});
  }

  /// The run ran threaded, never handed out more than one view batch,
  /// and left no decode worker behind.
  void expect_clean_stop(const BatchProbe& probe) const {
    EXPECT_LE(probe.largest, kViewBatch);
    if (baseline_threads_ == 0) return;  // no /proc: cannot count threads
    EXPECT_GE(probe.peak_threads, baseline_threads_ + kJobs);
    EXPECT_TRUE(threads_settle(baseline_threads_));
  }

  /// read.frames / read.bytes count through frame `frames - 1`.
  void expect_read_through(obs::Registry& reg,
                           std::size_t frames) const {
    EXPECT_EQ(reg.counter("read.frames").value(), frames);
    EXPECT_EQ(reg.counter("read.bytes").value(), info_.frames[frames].offset);
  }

  std::string bytes_;
  TdtbContainerInfo info_;
  std::filesystem::path path_;
  std::size_t baseline_threads_ = 0;
};

TEST_F(IndexedSourceEarlyStop, SinkThrowsMidStream) {
  TraceContext ctx;
  BatchProbe probe;
  probe.throw_at = 4;
  EXPECT_THROW((void)source(ctx).drain(probe), std::runtime_error);
  EXPECT_EQ(probe.records, kFrameRecords + kViewBatch);
  expect_clean_stop(probe);
}

TEST_F(IndexedSourceEarlyStop, StrictCorruptFrame) {
  std::uint64_t payload_off = 0;
  ASSERT_TRUE(parse_frame_header(bytes_, info_.frames[3].offset, &payload_off)
                  .has_value());
  bytes_[static_cast<std::size_t>(payload_off)] ^= 0x01;
  write_file(path_, bytes_);

  TraceContext ctx;
  BatchProbe probe;
  EXPECT_THROW((void)source(ctx).drain(probe), Error);
  // Every record of the frames before the corrupt one was handed out.
  EXPECT_EQ(probe.records, 3 * kFrameRecords);
  expect_clean_stop(probe);
}

TEST_F(IndexedSourceEarlyStop, ExpiredDeadline) {
  Governor governor;
  governor.set_deadline(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));

  TraceContext ctx;
  obs::Registry reg("test");
  BatchProbe probe;
  const GraphResult r =
      source(ctx).drain(probe, {.registry = &reg, .governor = &governor});
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_EQ(probe.records, kViewBatch);  // stopped after the first batch
  EXPECT_EQ(reg.counter("read.records").value(), kViewBatch);
  expect_read_through(reg, 1);
  expect_clean_stop(probe);
}

}  // namespace
}  // namespace tdt::trace
