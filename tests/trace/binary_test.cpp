#include "trace/binary.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

#include "trace/reader.hpp"
#include "trace/sink.hpp"
#include "trace/stream.hpp"
#include "trace/view.hpp"
#include "trace/writer.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/obs.hpp"

namespace tdt::trace {
namespace {

/// `bytes` saved as a .tdtb file named after the running test.
class TempTdtb {
 public:
  explicit TempTdtb(std::string_view bytes)
      : path_(std::filesystem::temp_directory_path() /
              (std::string("tdt_binary_") +
               ::testing::UnitTest::GetInstance()->current_test_info()->name() +
               ".tdtb")) {
    std::ofstream out(path_, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ~TempTdtb() { std::filesystem::remove(path_); }
  TempTdtb(const TempTdtb&) = delete;
  TempTdtb& operator=(const TempTdtb&) = delete;

  [[nodiscard]] std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

/// Drains the file cursor tools read `path` through; returns the records
/// and folds the read.* counters into `registry`.
std::vector<TraceRecord> drain_cursor(TraceContext& ctx,
                                      const std::string& path,
                                      obs::Registry& registry) {
  const auto cursor = open_trace_cursor(ctx, path, ViewSourceOptions{});
  std::vector<TraceRecord> records;
  while (cursor->next_batch(records, kViewBatch) > 0) {
  }
  cursor->finish(&registry);
  return records;
}

std::vector<TraceRecord> sample_records(TraceContext& ctx) {
  const char* text = R"(START PID 1
S 7ff0001b0 8 main LV 0 1 _zzq_result
L 7ff0001b0 8 main
S 000601040 4 main GV glScalar
S 0006010e0 8 foo GS glStructArray[0].dl
M 7ff000044 4 foo LV 0 1 i
S 7ff000060 8 foo LS 1 1 lcStrcArray[0].dl
L 7ff000030 8 foo LV 0 1 StrcParam
)";
  return read_trace_string(ctx, text);
}

TEST(Binary, RoundTripPreservesEverything) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  const auto blob = write_binary_trace(ctx, records, 4242);

  TraceContext ctx2;
  std::uint64_t pid = 0;
  const auto parsed = read_binary_trace(ctx2, blob, &pid);
  EXPECT_EQ(pid, 4242u);
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(ctx2.format_record(parsed[i]), ctx.format_record(records[i]))
        << "record " << i;
  }
}

TEST(Binary, EmptyTraceRoundTrips) {
  TraceContext ctx;
  const auto blob = write_binary_trace(ctx, {}, 7);
  TraceContext ctx2;
  std::uint64_t pid = 0;
  EXPECT_TRUE(read_binary_trace(ctx2, blob, &pid).empty());
  EXPECT_EQ(pid, 7u);
}

TEST(Binary, IsSubstantiallySmallerThanText) {
  TraceContext ctx;
  std::vector<TraceRecord> records;
  const auto base = sample_records(ctx);
  for (int i = 0; i < 200; ++i) {
    for (const TraceRecord& r : base) records.push_back(r);
  }
  const auto blob = write_binary_trace(ctx, records);
  const std::string text = write_trace_string(ctx, records);
  EXPECT_LT(blob.size() * 2, text.size());
}

TEST(Binary, StringsEmittedOnce) {
  TraceContext ctx;
  std::vector<TraceRecord> records;
  TraceRecord rec;
  rec.kind = AccessKind::Load;
  rec.size = 4;
  rec.function = ctx.intern("very_long_function_name_repeated");
  for (int i = 0; i < 100; ++i) {
    rec.address = static_cast<std::uint64_t>(i);
    records.push_back(rec);
  }
  const auto blob = write_binary_trace(ctx, records);
  // 100 records * ~8 bytes + one string definition; far below 100 copies
  // of the 33-char name.
  EXPECT_LT(blob.size(), 100 * 33 / 2);
}

TEST(Binary, BadMagicRejected) {
  TraceContext ctx;
  const std::vector<char> junk{'N', 'O', 'P', 'E', 1, 0, 2};
  EXPECT_THROW((void)read_binary_trace(ctx, junk), Error);
}

TEST(Binary, TruncatedBlobRejected) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  auto blob = write_binary_trace(ctx, records);
  blob.resize(blob.size() / 2);
  TraceContext ctx2;
  EXPECT_THROW((void)read_binary_trace(ctx2, blob), Error);
}

TEST(Binary, MissingEndMarkerRejected) {
  TraceContext ctx;
  auto blob = write_binary_trace(ctx, sample_records(ctx));
  blob.pop_back();  // drop the end tag
  TraceContext ctx2;
  EXPECT_THROW((void)read_binary_trace(ctx2, blob), Error);
}

TEST(Binary, StreamingWriterMatchesOneShot) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  std::ostringstream out(std::ios::binary);
  BinaryTraceWriter w(ctx, out, 4242);
  for (const TraceRecord& r : records) w.write(r);
  w.finish();
  const std::string s = out.str();
  const auto oneshot = write_binary_trace(ctx, records, 4242);
  ASSERT_EQ(s.size(), oneshot.size());
  EXPECT_TRUE(std::equal(s.begin(), s.end(), oneshot.begin()));
}

TEST(Binary, V1BlobStillDecodes) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  const auto blob = write_binary_trace(ctx, records, 99, /*version=*/1);

  TraceContext ctx2;
  std::uint64_t pid = 0;
  const auto parsed = read_binary_trace(ctx2, blob, &pid);
  EXPECT_EQ(pid, 99u);
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(ctx2.format_record(parsed[i]), ctx.format_record(records[i]));
  }
}

TEST(Binary, V2FooterAddsTwelveBytes) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  const auto v1 = write_binary_trace(ctx, records, 0, /*version=*/1);
  const auto v2 = write_binary_trace(ctx, records, 0, /*version=*/2);
  EXPECT_EQ(v2.size(), v1.size() + 12);
}

TEST(Binary, FooterDetectsBitFlip) {
  TraceContext ctx;
  auto blob = write_binary_trace(ctx, sample_records(ctx));
  // Flip a byte inside the "main" string payload: the blob stays
  // structurally valid (same length), only the CRC can notice.
  const char needle[] = {'m', 'a', 'i', 'n'};
  const auto it = std::search(blob.begin(), blob.end(), std::begin(needle),
                              std::end(needle));
  ASSERT_NE(it, blob.end());
  *it = 'w';

  // Strict: throws.
  {
    TraceContext ctx2;
    EXPECT_THROW((void)read_binary_trace(ctx2, blob), Error);
  }
  // Skip: records are salvaged, the corruption is reported and counted.
  {
    TraceContext ctx2;
    DiagEngine diags(ErrorPolicy::Skip);
    const auto parsed = read_binary_trace(ctx2, blob, nullptr, &diags);
    EXPECT_EQ(parsed.size(), sample_records(ctx).size());
    EXPECT_EQ(diags.count(DiagCode::BinCrcMismatch), 1u);
    EXPECT_EQ(diags.exit_code(), 1);
  }
}

TEST(Binary, FooterCountMismatchDetected) {
  TraceContext ctx;
  auto blob = write_binary_trace(ctx, sample_records(ctx));
  // Footer layout: ... end-tag | count (8 LE) | crc (4 LE). Corrupt the
  // count's low byte.
  blob[blob.size() - 12] = static_cast<char>(blob[blob.size() - 12] + 1);
  TraceContext ctx2;
  DiagEngine diags(ErrorPolicy::Skip);
  const auto parsed = read_binary_trace(ctx2, blob, nullptr, &diags);
  EXPECT_EQ(parsed.size(), sample_records(ctx).size());
  EXPECT_EQ(diags.count(DiagCode::BinCountMismatch), 1u);
}

TEST(Binary, TruncationSalvagesPrefixUnderSkip) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  auto blob = write_binary_trace(ctx, records);
  blob.resize(blob.size() / 2);
  TraceContext ctx2;
  DiagEngine diags(ErrorPolicy::Skip);
  const auto parsed = read_binary_trace(ctx2, blob, nullptr, &diags);
  EXPECT_LT(parsed.size(), records.size());
  EXPECT_EQ(diags.count(DiagCode::BinTruncated), 1u);
  EXPECT_EQ(diags.exit_code(), 1);
  // Whatever was salvaged matches the original prefix.
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(ctx2.format_record(parsed[i]), ctx.format_record(records[i]));
  }
}

TEST(Binary, MissingFooterReportedUnderSkip) {
  TraceContext ctx;
  auto blob = write_binary_trace(ctx, sample_records(ctx));
  blob.resize(blob.size() - 12);  // keep the end tag, drop the footer
  TraceContext ctx2;
  DiagEngine diags(ErrorPolicy::Skip);
  const auto parsed = read_binary_trace(ctx2, blob, nullptr, &diags);
  EXPECT_EQ(parsed.size(), sample_records(ctx).size());
  EXPECT_EQ(diags.count(DiagCode::BinBadFooter), 1u);
}

TEST(Binary, OverlongVarintRejected) {
  // Header: magic + version 1, then a pid varint of 11 continuation
  // bytes — more than a 64-bit value can need.
  std::vector<char> blob{'T', 'D', 'T', 'B', 1};
  for (int i = 0; i < 11; ++i) blob.push_back(static_cast<char>(0x80));
  blob.push_back(0);
  TraceContext ctx;
  EXPECT_THROW((void)read_binary_trace(ctx, blob), Error);
}

TEST(Binary, VarintOverflowingSixtyFourBitsRejected) {
  // 10 bytes where the last contributes more than bit 63.
  std::vector<char> blob{'T', 'D', 'T', 'B', 1};
  for (int i = 0; i < 9; ++i) blob.push_back(static_cast<char>(0xFF));
  blob.push_back(0x7F);
  TraceContext ctx;
  EXPECT_THROW((void)read_binary_trace(ctx, blob), Error);
}

TEST(Binary, SizeFieldOverflowRejected) {
  // Hand-built v1 blob: string "f" as id 0, then a record whose size
  // varint (0x1'FFFF'FFFF) overflows the 32-bit size field.
  std::vector<char> blob{'T', 'D', 'T', 'B', 1, 0};
  blob.push_back(1);  // kTagString
  blob.push_back(0);  // id 0
  blob.push_back(1);  // len 1
  blob.push_back('f');
  blob.push_back(0);  // kTagRecord
  blob.push_back(0);  // packed kind/scope
  blob.push_back(0);  // address
  for (int i = 0; i < 4; ++i) blob.push_back(static_cast<char>(0xFF));
  blob.push_back(0x1F);  // size = 0x1FFFFFFFF
  blob.push_back(0);     // function id
  blob.push_back(0);     // frame
  blob.push_back(0);     // thread
  blob.push_back(2);     // kTagEnd

  TraceContext ctx;
  EXPECT_THROW((void)read_binary_trace(ctx, blob), Error);

  TraceContext ctx2;
  DiagEngine diags(ErrorPolicy::Skip);
  const auto parsed = read_binary_trace(ctx2, blob, nullptr, &diags);
  EXPECT_TRUE(parsed.empty());
  EXPECT_EQ(diags.count(DiagCode::BinFieldOverflow), 1u);
}

TEST(Binary, UndefinedSymbolReferenceRejected) {
  std::vector<char> blob{'T', 'D', 'T', 'B', 1, 0};
  blob.push_back(0);   // kTagRecord
  blob.push_back(0);   // packed
  blob.push_back(0);   // address
  blob.push_back(4);   // size
  blob.push_back(9);   // function id — never defined
  blob.push_back(0);   // frame
  blob.push_back(0);   // thread
  blob.push_back(2);   // kTagEnd
  TraceContext ctx;
  EXPECT_THROW((void)read_binary_trace(ctx, blob), Error);

  TraceContext ctx2;
  DiagEngine diags(ErrorPolicy::Skip);
  const auto parsed = read_binary_trace(ctx2, blob, nullptr, &diags);
  EXPECT_TRUE(parsed.empty());
  EXPECT_EQ(diags.count(DiagCode::BinBadSymbol), 1u);
}

TEST(Binary, StreamingReaderReportsVersionAndCount) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  const auto blob = write_binary_trace(ctx, records, 4242);
  const auto info = probe_tdtb(std::string_view(blob.data(), blob.size()));
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->version, 2);
  const TempTdtb file(std::string_view(blob.data(), blob.size()));
  TraceContext ctx2;
  obs::Registry reg("test");
  const auto parsed = drain_cursor(ctx2, file.path(), reg);
  EXPECT_EQ(parsed.size(), records.size());
  EXPECT_EQ(reg.counter("read.records").value(), records.size());
  // A complete pass counts the whole file, the v2 footer included.
  EXPECT_EQ(reg.counter("read.bytes").value(), blob.size());
}

TEST(Binary, LargeAddressesSurvive) {
  TraceContext ctx;
  TraceRecord rec;
  rec.kind = AccessKind::Store;
  rec.address = 0xFFFFFFFFFFFFFFFFull;
  rec.size = 0x80000001u;
  rec.function = ctx.intern("f");
  const auto blob = write_binary_trace(ctx, {&rec, 1});
  TraceContext ctx2;
  const auto parsed = read_binary_trace(ctx2, blob);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].address, rec.address);
  EXPECT_EQ(parsed[0].size, rec.size);
}

// --- TDTB v3 framed container ----------------------------------------------

BinaryWriterOptions v3_options(Codec codec = Codec::None,
                               std::uint32_t frame_records = 3) {
  BinaryWriterOptions options;
  options.version = kTdtbVersionFramed;
  options.codec = codec;
  options.frame_records = frame_records;  // tiny frames: multi-frame corpus
  return options;
}

std::vector<std::string> formatted(TraceContext& ctx,
                                   const std::vector<TraceRecord>& records) {
  std::vector<std::string> out;
  out.reserve(records.size());
  for (const TraceRecord& r : records) out.push_back(ctx.format_record(r));
  return out;
}

TEST(BinaryV3, RoundTripMatchesV2Decode) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  const auto v2 = write_binary_trace(ctx, records, 4242);
  const auto v3 = write_binary_trace(ctx, records, 4242, v3_options());

  TraceContext c2;
  TraceContext c3;
  std::uint64_t pid2 = 0;
  std::uint64_t pid3 = 0;
  const auto from2 = read_binary_trace(c2, v2, &pid2);
  const auto from3 = read_binary_trace(c3, v3, &pid3);
  EXPECT_EQ(pid3, pid2);
  EXPECT_EQ(formatted(c3, from3), formatted(c2, from2));
}

TEST(BinaryV3, CompressedCodecsRoundTrip) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  const auto plain = write_binary_trace(ctx, records, 1);
  for (const Codec codec : {Codec::Zstd, Codec::Lz4}) {
    if (!codec_available(codec)) {
      GTEST_LOG_(INFO) << codec_name(codec) << " unavailable; skipping";
      continue;
    }
    const auto blob = write_binary_trace(ctx, records, 1, v3_options(codec));
    TraceContext cp;
    TraceContext cc;
    EXPECT_EQ(formatted(cc, read_binary_trace(cc, blob)),
              formatted(cp, read_binary_trace(cp, plain)))
        << codec_name(codec);
  }
}

TEST(BinaryV3, ProbeSeesFramesAndFooter) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  const auto blob = write_binary_trace(ctx, records, 77, v3_options());
  const auto info =
      probe_tdtb(std::string_view(blob.data(), blob.size()));
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->version, kTdtbVersionFramed);
  EXPECT_EQ(info->pid, 77u);
  ASSERT_TRUE(info->has_index);
  EXPECT_EQ(info->total_records, records.size());
  ASSERT_EQ(info->frames.size(), (records.size() + 2) / 3);
  std::uint64_t sum = 0;
  for (const TdtbFrameInfo& f : info->frames) {
    sum += f.records;
    std::uint64_t payload_off = 0;
    const auto parsed = parse_frame_header(
        std::string_view(blob.data(), blob.size()), f.offset, &payload_off);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->csize, f.csize);
  }
  EXPECT_EQ(sum, records.size());
}

TEST(BinaryV3, TruncatedMidFrameSalvagesEarlierFrames) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  auto blob = write_binary_trace(ctx, records, 0, v3_options());
  const auto info = probe_tdtb(std::string_view(blob.data(), blob.size()));
  ASSERT_TRUE(info.has_value());
  ASSERT_GE(info->frames.size(), 2u);
  // Cut inside the second frame's payload.
  blob.resize(static_cast<std::size_t>(info->frames[1].offset) + 4);

  {
    TraceContext c;
    EXPECT_THROW((void)read_binary_trace(c, blob), Error);
  }
  TraceContext c;
  DiagEngine diags(ErrorPolicy::Skip);
  const auto parsed = read_binary_trace(c, blob, nullptr, &diags);
  EXPECT_EQ(parsed.size(), info->frames[0].records);
  EXPECT_GE(diags.count(DiagCode::BinTruncated), 1u);
  EXPECT_EQ(diags.exit_code(), 1);
}

TEST(BinaryV3, CorruptFrameCrcUnderEveryPolicy) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  auto blob = write_binary_trace(ctx, records, 0, v3_options());
  const auto info = probe_tdtb(std::string_view(blob.data(), blob.size()));
  ASSERT_TRUE(info.has_value());
  ASSERT_GE(info->frames.size(), 3u);
  // Flip one payload byte of the middle frame; header and index stay
  // intact, so only the frame CRC can notice.
  std::uint64_t payload_off = 0;
  ASSERT_TRUE(parse_frame_header(std::string_view(blob.data(), blob.size()),
                                 info->frames[1].offset, &payload_off)
                  .has_value());
  blob[static_cast<std::size_t>(payload_off)] ^= 0x40;

  {  // Strict: throws.
    TraceContext c;
    EXPECT_THROW((void)read_binary_trace(c, blob), Error);
  }
  {  // Skip: frames before the corruption are salvaged, then the trace ends.
    TraceContext c;
    DiagEngine diags(ErrorPolicy::Skip);
    const auto parsed = read_binary_trace(c, blob, nullptr, &diags);
    EXPECT_EQ(parsed.size(), info->frames[0].records);
    EXPECT_EQ(diags.count(DiagCode::BinFrameCorrupt), 1u);
  }
  {  // Repair: the bad frame is dropped and reading resumes at the next.
    TraceContext c;
    DiagEngine diags(ErrorPolicy::Repair);
    const auto parsed = read_binary_trace(c, blob, nullptr, &diags);
    EXPECT_EQ(parsed.size(), records.size() - info->frames[1].records);
    EXPECT_EQ(diags.count(DiagCode::BinFrameCorrupt), 1u);
    // The footer totals disagree with what was delivered; that is
    // reported without discarding the salvage.
    EXPECT_GE(diags.count(DiagCode::BinCountMismatch), 1u);
    // Records after the dropped frame decode correctly.
    const auto expect_tail = formatted(ctx, records);
    const auto got = formatted(c, parsed);
    EXPECT_EQ(got.back(), expect_tail.back());
  }
}

TEST(BinaryV3, UnknownCodecIdIsolatesTheFrame) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  auto blob = write_binary_trace(ctx, records, 0, v3_options());
  const auto info = probe_tdtb(std::string_view(blob.data(), blob.size()));
  ASSERT_TRUE(info.has_value());
  ASSERT_GE(info->frames.size(), 2u);
  // Frame header layout: tag byte, then the codec id.
  blob[static_cast<std::size_t>(info->frames[0].offset) + 1] =
      static_cast<char>(9);

  {
    TraceContext c;
    EXPECT_THROW((void)read_binary_trace(c, blob), Error);
  }
  TraceContext c;
  DiagEngine diags(ErrorPolicy::Repair);
  const auto parsed = read_binary_trace(c, blob, nullptr, &diags);
  EXPECT_EQ(parsed.size(), records.size() - info->frames[0].records);
  EXPECT_EQ(diags.count(DiagCode::BinBadCodec), 1u);
  // The patched header no longer matches the index entry, so the probe
  // demotes the container to sequential-only.
  const auto reprobed = probe_tdtb(std::string_view(blob.data(), blob.size()));
  ASSERT_TRUE(reprobed.has_value());
  EXPECT_FALSE(reprobed->has_index);
}

TEST(BinaryV3, CorruptIndexReportedWithoutDiscardingRecords) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  auto blob = write_binary_trace(ctx, records, 0, v3_options());
  // The 28-byte footer ends with "TDTX"; the 4 bytes before the 8-byte
  // index_len+crc block... index crc sits at footer offset 20..23.
  blob[blob.size() - 8] ^= 0x11;  // corrupt the stored index CRC

  const auto info = probe_tdtb(std::string_view(blob.data(), blob.size()));
  ASSERT_TRUE(info.has_value());
  EXPECT_FALSE(info->has_index);  // parallel path must refuse this file

  TraceContext c;
  DiagEngine diags(ErrorPolicy::Skip);
  const auto parsed = read_binary_trace(c, blob, nullptr, &diags);
  EXPECT_EQ(parsed.size(), records.size());  // records all fine
  EXPECT_EQ(diags.count(DiagCode::BinBadIndex), 1u);
  EXPECT_EQ(diags.exit_code(), 1);
}

TEST(BinaryV3, HandBuiltEmptyFrameDecodes) {
  // Header + one zero-record frame + end tag + index + footer, all by
  // hand: writers never emit empty frames, but readers must accept them.
  std::string blob{'T', 'D', 'T', 'B', 3, 0, 0};  // magic, v3, pid 0, codec 0
  const std::uint64_t frame_off = blob.size();
  const std::uint32_t empty_crc = crc32("", 0);
  blob.push_back(3);  // kTagFrame
  blob.push_back(0);  // codec none
  blob.push_back(0);  // records 0
  blob.push_back(0);  // usize 0
  blob.push_back(0);  // csize 0
  for (int i = 0; i < 4; ++i) {
    blob.push_back(static_cast<char>((empty_crc >> (8 * i)) & 0xFF));
  }
  blob.push_back(2);  // kTagEnd
  std::string index;
  index.push_back(static_cast<char>(frame_off));  // offset varint
  index.push_back(0);                             // records
  index.push_back(0);                             // usize
  index.push_back(0);                             // csize
  for (int i = 0; i < 4; ++i) {
    index.push_back(static_cast<char>((empty_crc >> (8 * i)) & 0xFF));
  }
  index.push_back(0);  // codec
  blob += index;
  const std::uint32_t index_crc = crc32(index.data(), index.size());
  const std::uint64_t totals[2] = {0, 1};  // records, frames
  for (const std::uint64_t v : totals) {
    for (int i = 0; i < 8; ++i) {
      blob.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
  const std::uint32_t index_len = static_cast<std::uint32_t>(index.size());
  for (int i = 0; i < 4; ++i) {
    blob.push_back(static_cast<char>((index_len >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 4; ++i) {
    blob.push_back(static_cast<char>((index_crc >> (8 * i)) & 0xFF));
  }
  blob += "TDTX";

  const std::vector<char> bytes(blob.begin(), blob.end());
  TraceContext ctx;
  std::uint64_t pid = 9;
  const auto parsed = read_binary_trace(ctx, bytes, &pid);
  EXPECT_TRUE(parsed.empty());
  EXPECT_EQ(pid, 0u);
  const auto info = probe_tdtb(blob);
  ASSERT_TRUE(info.has_value());
  ASSERT_TRUE(info->has_index);
  ASSERT_EQ(info->frames.size(), 1u);
  EXPECT_EQ(info->frames[0].records, 0u);
}

TEST(BinaryV3, EmptyTraceRoundTrips) {
  TraceContext ctx;
  std::ostringstream out(std::ios::binary);
  BinaryTraceWriter w(ctx, out, 5, v3_options());
  w.finish();
  EXPECT_EQ(w.frames_written(), 0u);
  const std::string s = out.str();
  const std::vector<char> blob(s.begin(), s.end());
  TraceContext c;
  std::uint64_t pid = 0;
  EXPECT_TRUE(read_binary_trace(c, blob, &pid).empty());
  EXPECT_EQ(pid, 5u);
}

TEST(BinaryV3, WriterRejectsBadConfigurations) {
  TraceContext ctx;
  std::ostringstream out(std::ios::binary);
  // Codec on a non-framed version is a config error.
  BinaryWriterOptions bad;
  bad.version = 2;
  bad.codec = Codec::Zstd;
  EXPECT_THROW((BinaryTraceWriter{ctx, out, 0, bad}), Error);
  BinaryWriterOptions v9;
  v9.version = 9;
  EXPECT_THROW((BinaryTraceWriter{ctx, out, 0, v9}), Error);
}

TEST(BinaryV3, StreamingReaderCountsFramesAndBytes) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  const auto blob = write_binary_trace(ctx, records, 1, v3_options());
  const auto info = probe_tdtb(std::string_view(blob.data(), blob.size()));
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->version, kTdtbVersionFramed);
  const TempTdtb file(std::string_view(blob.data(), blob.size()));
  TraceContext c;
  obs::Registry reg("test");
  const auto parsed = drain_cursor(c, file.path(), reg);
  EXPECT_EQ(parsed.size(), records.size());
  EXPECT_EQ(reg.counter("read.records").value(), records.size());
  EXPECT_EQ(reg.counter("read.frames").value(), (records.size() + 2) / 3);
  EXPECT_GT(reg.counter("read.compressed_bytes").value(), 0u);
  EXPECT_EQ(reg.counter("read.bytes").value(), blob.size());
}

TEST(BinaryV3, V1AndV2StillDecodeUnderEveryPolicy) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  const auto want = formatted(ctx, records);
  for (const std::uint8_t version : {std::uint8_t{1}, std::uint8_t{2}}) {
    const auto blob = write_binary_trace(ctx, records, 1, version);
    for (const ErrorPolicy policy :
         {ErrorPolicy::Strict, ErrorPolicy::Skip, ErrorPolicy::Repair}) {
      TraceContext c;
      DiagEngine diags(policy);
      const auto parsed = read_binary_trace(c, blob, nullptr, &diags);
      EXPECT_EQ(formatted(c, parsed), want)
          << "v" << int(version) << " policy " << int(policy);
      EXPECT_EQ(diags.exit_code(), 0);
    }
  }
}

// --- truncation sweep ----------------------------------------------------------

/// A small blob to cut at every offset, and where its records become
/// whole: complete[i] is the shortest prefix holding record i's entry
/// (v1/v2) or frame (v3).
struct CutCase {
  std::string name;
  std::vector<char> blob;
  std::size_t header = 0;   ///< bytes before the first entry or frame
  std::size_t end_tag = 0;  ///< offset of the end tag
  std::vector<std::size_t> complete;
  DiagCode tail_code = DiagCode::BinTruncated;  ///< cut past the end tag
};

CutCase flat_case(TraceContext& ctx, const std::vector<TraceRecord>& records,
                  std::uint8_t version) {
  CutCase c;
  c.name = "v" + std::to_string(version);
  c.blob = write_binary_trace(ctx, records, 1, version);
  const std::size_t footer = version == 2 ? 12 : 0;
  c.header = 6;  // magic, version, one-byte pid
  c.end_tag = c.blob.size() - 1 - footer;
  // The encoding of a prefix of the records is a prefix of the body.
  for (std::size_t i = 1; i <= records.size(); ++i) {
    const auto prefix = write_binary_trace(
        ctx, std::span<const TraceRecord>(records.data(), i), 1, version);
    c.complete.push_back(prefix.size() - 1 - footer);
  }
  c.tail_code = DiagCode::BinBadFooter;
  return c;
}

CutCase framed_case(TraceContext& ctx, const std::vector<TraceRecord>& records,
                    Codec codec) {
  CutCase c;
  c.name = "v3_" + std::string(codec_name(codec));
  c.blob = write_binary_trace(ctx, records, 1, v3_options(codec));
  const std::string_view bytes(c.blob.data(), c.blob.size());
  const auto info = probe_tdtb(bytes);
  c.header = 7;  // magic, version, one-byte pid, codec
  c.end_tag = c.header;
  for (const TdtbFrameInfo& f : info->frames) {
    std::uint64_t payload_off = 0;
    (void)parse_frame_header(bytes, f.offset, &payload_off);
    c.end_tag = static_cast<std::size_t>(payload_off + f.csize);
    c.complete.insert(c.complete.end(), f.records, c.end_tag);
  }
  c.tail_code = DiagCode::BinBadIndex;
  return c;
}

// Every cut of a small v1, v2 and v3 blob under every policy. A cut
// inside the header is fatal and Strict always throws. Skip and Repair
// return exactly the records whose entry or frame ends at or before the
// cut, and report one diagnostic: B003 when the end tag is cut off, B009
// inside the v2 footer, B013 inside the v3 index or footer.
TEST(TdtbReaderTruncation, EveryCutSalvagesTheWholeEntries) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  const auto want = formatted(ctx, records);
  std::vector<CutCase> cases = {flat_case(ctx, records, 1),
                                flat_case(ctx, records, 2),
                                framed_case(ctx, records, Codec::None)};
  if (codec_available(Codec::Zstd)) {
    cases.push_back(framed_case(ctx, records, Codec::Zstd));
  }
  for (const CutCase& c : cases) {
    ASSERT_EQ(c.complete.size(), records.size()) << c.name;
    ASSERT_GE(c.end_tag, c.complete.back()) << c.name;
    for (std::size_t cut = 0; cut < c.blob.size(); ++cut) {
      const std::vector<char> prefix(
          c.blob.begin(), c.blob.begin() + static_cast<std::ptrdiff_t>(cut));
      const std::string at = c.name + " cut " + std::to_string(cut);
      {
        TraceContext strict;
        EXPECT_THROW((void)read_binary_trace(strict, prefix), Error) << at;
      }
      for (const ErrorPolicy policy : {ErrorPolicy::Skip, ErrorPolicy::Repair}) {
        TraceContext back;
        DiagEngine diags(policy);
        if (cut < c.header) {
          EXPECT_THROW((void)read_binary_trace(back, prefix, nullptr, &diags),
                       Error)
              << at;
          continue;
        }
        const auto parsed = read_binary_trace(back, prefix, nullptr, &diags);
        const auto whole = static_cast<std::size_t>(
            std::count_if(c.complete.begin(), c.complete.end(),
                          [cut](std::size_t end) { return end <= cut; }));
        EXPECT_EQ(formatted(back, parsed),
                  std::vector<std::string>(
                      want.begin(),
                      want.begin() + static_cast<std::ptrdiff_t>(whole)))
            << at;
        const DiagCode code =
            cut <= c.end_tag ? DiagCode::BinTruncated : c.tail_code;
        EXPECT_EQ(diags.errors(), 1u) << at;
        EXPECT_EQ(diags.count(code), 1u) << at;
      }
    }
  }
}

// --- containers the frame index must not vouch for -----------------------------

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Re-emits the index and footer of `info` after `body` (header, frames
/// and end tag), with every frame offset moved by `shift`.
std::string with_index(std::string body, const TdtbContainerInfo& info,
                       std::uint64_t shift) {
  std::string index;
  for (const TdtbFrameInfo& f : info.frames) {
    put_varint(index, f.offset + shift);
    put_varint(index, f.records);
    put_varint(index, f.usize);
    put_varint(index, f.csize);
    put_le(index, f.crc, 4);
    index.push_back(static_cast<char>(f.codec));
  }
  body += index;
  put_le(body, info.total_records, 8);
  put_le(body, info.frames.size(), 8);
  put_le(body, index.size(), 4);
  put_le(body, crc32(index.data(), index.size()), 4);
  return body + "TDTX";
}

/// Reads `bytes` under Skip through read_binary_trace and from a file at
/// jobs 1 and 3: every path rejects the container the same way.
void expect_bad_tag_everywhere(std::string_view bytes,
                               std::size_t salvaged) {
  const auto info = probe_tdtb(bytes);
  ASSERT_TRUE(info.has_value());
  EXPECT_FALSE(info->has_index);
  {
    TraceContext strict;
    EXPECT_THROW((void)read_binary_trace(
                     strict, std::vector<char>(bytes.begin(), bytes.end())),
                 Error);
  }
  TraceContext mem;
  DiagEngine mem_diags(ErrorPolicy::Skip);
  const auto parsed = read_binary_trace(
      mem, std::vector<char>(bytes.begin(), bytes.end()), nullptr, &mem_diags);
  EXPECT_EQ(parsed.size(), salvaged);
  EXPECT_EQ(mem_diags.count(DiagCode::BinBadTag), 1u);
  EXPECT_EQ(mem_diags.errors(), 1u);
  EXPECT_EQ(mem_diags.exit_code(), 1);

  const TempTdtb file(bytes);
  for (const int jobs : {1, 3}) {
    TraceContext ctx;
    DiagEngine diags(ErrorPolicy::Skip);
    VectorSink sink;
    (void)View::source(ctx, file.path(),
                       {.diags = &diags, .jobs = jobs, .clamp_jobs = false})
        .drain(sink);
    EXPECT_EQ(sink.records().size(), salvaged) << "jobs " << jobs;
    EXPECT_EQ(diags.counts(), mem_diags.counts()) << "jobs " << jobs;
    EXPECT_EQ(diags.exit_code(), mem_diags.exit_code()) << "jobs " << jobs;
  }
}

TEST(TdtbReaderTiling, JunkBeforeTheFirstFrameIsABadTag) {
  TraceContext ctx;
  const auto blob = write_binary_trace(ctx, sample_records(ctx), 1, v3_options());
  const std::string bytes(blob.begin(), blob.end());
  const auto info = probe_tdtb(bytes);
  ASSERT_TRUE(info.has_value() && info->has_index);
  const std::size_t first = static_cast<std::size_t>(info->frames[0].offset);
  std::uint64_t payload_off = 0;
  ASSERT_TRUE(parse_frame_header(bytes, info->frames.back().offset,
                                 &payload_off)
                  .has_value());
  const std::size_t end_tag =
      static_cast<std::size_t>(payload_off + info->frames.back().csize);
  // Header, one junk byte, then the frames and end tag; the index still
  // agrees with every frame header and its CRC is valid.
  const std::string junk = bytes.substr(0, first) + '\x07' +
                           bytes.substr(first, end_tag + 1 - first);
  expect_bad_tag_everywhere(with_index(junk, *info, 1), 0);
}

TEST(TdtbReaderTiling, OverwrittenEndTagIsABadTag) {
  TraceContext ctx;
  const auto records = sample_records(ctx);
  const auto blob = write_binary_trace(ctx, records, 1, v3_options());
  std::string bytes(blob.begin(), blob.end());
  const auto info = probe_tdtb(bytes);
  ASSERT_TRUE(info.has_value() && info->has_index);
  std::uint64_t payload_off = 0;
  ASSERT_TRUE(parse_frame_header(bytes, info->frames.back().offset,
                                 &payload_off)
                  .has_value());
  bytes[static_cast<std::size_t>(payload_off + info->frames.back().csize)] =
      '\x07';
  expect_bad_tag_everywhere(bytes, records.size());
}

// --- the decode slots ------------------------------------------------------------

/// `n` records that vary in kind, scope, function and variable, with
/// addresses that step both ways so the frame deltas do too.
std::vector<TraceRecord> varied_records(TraceContext& ctx, std::size_t n) {
  std::vector<TraceRecord> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord& rec = out[i];
    rec.kind = i % 3 == 0 ? AccessKind::Store : AccessKind::Load;
    rec.size = 8;
    rec.address = 0x7ff000000ull + (i * 40) % 65536;
    rec.function = ctx.intern("fn_" + std::to_string(i % 5));
    if (i % 2 == 1) {
      rec.scope = VarScope::GlobalStructure;
      rec.var.base = ctx.intern("arr_" + std::to_string(i % 3));
      rec.var.steps.push_back(VarStep::make_index(i % 100));
    }
  }
  return out;
}

// A v3 frame whose payload goes bad after 9,000 of its 10,000 records, so
// the bad entry lies in the frame's third kViewBatch slice. The frame CRC
// and the index are recomputed, so only the entry decoder sees it. Skip
// hands out exactly the 9,000-record prefix, and Repair drops the frame,
// from memory and from a file at jobs 1 and 3, with the same diagnostics.
TEST(TdtbReaderSlices, BadEntryInTheThirdSliceKeepsThePrefixBeforeIt) {
  constexpr std::size_t kFrame = 10000;
  constexpr std::size_t kGood = 9000;
  static_assert(kGood / kViewBatch == 2, "the bad entry is in slice 3");
  TraceContext ctx;
  const auto records = varied_records(ctx, 3 * kFrame);
  const auto blob =
      write_binary_trace(ctx, records, 1, v3_options(Codec::None, kFrame));
  std::string bytes(blob.begin(), blob.end());
  auto info = probe_tdtb(bytes);
  ASSERT_TRUE(info.has_value() && info->has_index);
  ASSERT_EQ(info->frames.size(), 3u);
  TdtbFrameInfo& bad = info->frames[1];
  std::uint64_t payload_off = 0;
  ASSERT_TRUE(parse_frame_header(bytes, bad.offset, &payload_off).has_value());

  // The writer encodes a frame front to back, so a frame of the middle
  // frame's first kGood records is a prefix of its payload, and that
  // frame's size is where record kGood's entry starts.
  const auto head = write_binary_trace(
      ctx, std::span(records).subspan(kFrame, kGood), 1,
      v3_options(Codec::None, kFrame));
  const std::string head_bytes(head.begin(), head.end());
  const auto head_info = probe_tdtb(head_bytes);
  ASSERT_TRUE(head_info.has_value() && head_info->has_index);
  std::uint64_t head_off = 0;
  ASSERT_TRUE(parse_frame_header(head_bytes, head_info->frames[0].offset,
                                 &head_off)
                  .has_value());
  const auto bad_at = static_cast<std::size_t>(head_info->frames[0].usize);
  ASSERT_EQ(bytes.substr(static_cast<std::size_t>(payload_off), bad_at),
            head_bytes.substr(static_cast<std::size_t>(head_off), bad_at));
  bytes[static_cast<std::size_t>(payload_off) + bad_at] = '\x7F';  // bad tag

  // The frame CRC ends the frame header, right before the payload.
  bad.crc = crc32(bytes.data() + payload_off, static_cast<std::size_t>(bad.csize));
  std::string crc_bytes;
  put_le(crc_bytes, bad.crc, 4);
  bytes.replace(static_cast<std::size_t>(payload_off) - 4, 4, crc_bytes);
  const TdtbFrameInfo& last = info->frames.back();
  ASSERT_TRUE(parse_frame_header(bytes, last.offset, &payload_off).has_value());
  const auto end_tag = static_cast<std::size_t>(payload_off + last.csize);
  bytes = with_index(bytes.substr(0, end_tag + 1), *info, 0);
  ASSERT_TRUE(probe_tdtb(bytes)->has_index);

  const TempTdtb file(bytes);
  const auto want = formatted(ctx, records);
  for (const ErrorPolicy policy : {ErrorPolicy::Skip, ErrorPolicy::Repair}) {
    const bool skip = policy == ErrorPolicy::Skip;
    std::vector<std::string> expect(
        want.begin(), want.begin() + (skip ? kFrame + kGood : kFrame));
    if (!skip) expect.insert(expect.end(), want.begin() + 2 * kFrame, want.end());
    TraceContext mem;
    DiagEngine mem_diags(policy);
    const auto parsed = read_binary_trace(
        mem, std::vector<char>(bytes.begin(), bytes.end()), nullptr,
        &mem_diags);
    EXPECT_EQ(formatted(mem, parsed), expect) << "skip " << skip;
    EXPECT_EQ(mem_diags.count(DiagCode::BinBadTag), 1u) << "skip " << skip;
    for (const int jobs : {1, 3}) {
      TraceContext c;
      DiagEngine diags(policy);
      VectorSink sink;
      (void)View::source(c, file.path(),
                         {.diags = &diags, .jobs = jobs, .clamp_jobs = false})
          .drain(sink);
      EXPECT_EQ(formatted(c, sink.records()), expect)
          << "skip " << skip << " jobs " << jobs;
      EXPECT_EQ(diags.counts(), mem_diags.counts())
          << "skip " << skip << " jobs " << jobs;
      EXPECT_EQ(diags.exit_code(), mem_diags.exit_code());
    }
  }
}

/// This process's peak resident set so far, in bytes.
std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

// Frames that each declare a 128 MiB payload over 16 garbage zstd bytes,
// with a valid CRC and index. The codec refuses every one, and the
// declared size must not become resident memory on the way: read by
// three unclamped decode workers, the process peak grows by less than one
// declared payload.
TEST(TdtbReaderHostile, LyingPayloadSizeDoesNotBecomeResident) {
  if (!codec_available(Codec::Zstd)) GTEST_SKIP() << "zstd not available";
  constexpr std::uint64_t kDeclared = std::uint64_t{128} << 20;
  constexpr std::size_t kFrames = 4;
  const std::string garbage(16, '\xAB');
  const auto zstd = static_cast<std::uint8_t>(Codec::Zstd);
  std::string body{'T', 'D', 'T', 'B', 3, 0, static_cast<char>(zstd)};
  TdtbContainerInfo info;
  for (std::size_t i = 0; i < kFrames; ++i) {
    TdtbFrameInfo& f = info.frames.emplace_back();
    f.offset = body.size();
    f.records = 1;
    f.usize = kDeclared;
    f.csize = garbage.size();
    f.crc = crc32(garbage);
    f.codec = zstd;
    body.push_back('\x03');  // frame tag
    body.push_back(static_cast<char>(zstd));
    put_varint(body, f.records);
    put_varint(body, f.usize);
    put_varint(body, f.csize);
    put_le(body, f.crc, 4);
    body += garbage;
  }
  body.push_back('\x02');  // end tag
  info.total_records = kFrames;
  const std::string bytes = with_index(body, info, 0);
  ASSERT_TRUE(probe_tdtb(bytes)->has_index);
  const TempTdtb file(bytes);

  const std::uint64_t before = peak_rss_bytes();
  TraceContext ctx;
  DiagEngine diags(ErrorPolicy::Repair);
  VectorSink sink;
  (void)View::source(ctx, file.path(),
                     {.diags = &diags, .jobs = 3, .clamp_jobs = false})
      .drain(sink);
  [[maybe_unused]] const std::uint64_t growth = peak_rss_bytes() - before;
  EXPECT_TRUE(sink.records().empty());
  EXPECT_EQ(diags.count(DiagCode::BinFrameCorrupt), kFrames);
  EXPECT_EQ(diags.exit_code(), 1);
#if !defined(TDT_SANITIZED_BUILD)
  // Sanitizer allocators write shadow memory for the blocks they hand
  // out and take back, so only an uninstrumented build can bound this.
  EXPECT_LT(growth, kDeclared);
#endif
}

// --- record fields no other reader takes ----------------------------------------

/// One field value the text and din readers refuse, in the second of two
/// records: `kind` and `scope` codes 5-7, spare kind|scope bits, size 0.
struct BadFieldCase {
  std::string name;
  std::uint8_t version;  ///< 2, or 3 with codec none
  const char* field;     ///< what the diagnostic names
  std::string bytes;
};

void PrintTo(const BadFieldCase& c, std::ostream* os) { *os << c.name; }

/// Two records with one function and no variable, so the second entry
/// defines no string and starts where a one-record file's last entry
/// ends.
std::vector<TraceRecord> two_records(TraceContext& ctx) {
  std::vector<TraceRecord> records(2);
  for (TraceRecord& rec : records) {
    rec.address = 0x2000;
    rec.size = 4;
    rec.function = ctx.intern("main");
  }
  return records;
}

std::string written(const TraceContext& ctx,
                    const std::vector<TraceRecord>& records,
                    std::uint8_t version) {
  const auto blob =
      version == kTdtbVersionFramed
          ? write_binary_trace(ctx, records, 1, v3_options(Codec::None))
          : write_binary_trace(ctx, records, 1, version);
  return {blob.begin(), blob.end()};
}

/// two_records() written as `version`, with byte `at` of the second
/// record's entry (0 is its tag) changed from `from` to `value` and the
/// checksums over it written again. The writer refuses the values these
/// tests need.
std::string patched(std::uint8_t version, std::size_t at, char from,
                    char value) {
  TraceContext ctx;
  const auto records = two_records(ctx);
  std::string bytes = written(ctx, records, version);
  const std::string one =
      written(ctx, std::vector<TraceRecord>(records.begin(),
                                            records.begin() + 1), version);
  if (version != kTdtbVersionFramed) {
    // The second record's tag is where the one-record file's end tag is;
    // the footer's CRC covers everything before it.
    const std::size_t footer = 12;
    char& byte = bytes[one.size() - 1 - footer + at];
    EXPECT_EQ(byte, from) << "v2 byte " << at;
    byte = value;
    bytes.resize(bytes.size() - 4);
    put_le(bytes, crc32(bytes.data(), bytes.size() - 8), 4);
    return bytes;
  }
  // One frame holds both records, and a one-record frame's payload is a
  // prefix of it. The frame CRC ends the frame header, and the index
  // repeats it.
  auto info = probe_tdtb(bytes);
  const auto one_info = probe_tdtb(one);
  std::uint64_t payload_off = 0;
  if (!info.has_value() || info->frames.size() != 1 ||
      !one_info.has_value() ||
      !parse_frame_header(bytes, info->frames[0].offset, &payload_off)) {
    ADD_FAILURE() << "unexpected v3 layout";
    return bytes;
  }
  TdtbFrameInfo& frame = info->frames[0];
  char& byte =
      bytes[static_cast<std::size_t>(payload_off + one_info->frames[0].usize) +
            at];
  EXPECT_EQ(byte, from) << "v3 byte " << at;
  byte = value;
  frame.crc = crc32(bytes.data() + payload_off,
                    static_cast<std::size_t>(frame.csize));
  std::string crc_bytes;
  put_le(crc_bytes, frame.crc, 4);
  bytes.replace(static_cast<std::size_t>(payload_off) - 4, 4, crc_bytes);
  const auto end_tag = static_cast<std::size_t>(payload_off + frame.csize);
  return with_index(bytes.substr(0, end_tag + 1), *info, 0);
}

std::vector<BadFieldCase> bad_field_cases() {
  std::vector<BadFieldCase> cases;
  for (const std::uint8_t version : {std::uint8_t{2}, kTdtbVersionFramed}) {
    const std::string v = "v" + std::to_string(version) + "_";
    // The kind|scope byte follows the tag; the size follows the address,
    // absolute 0x2000 in v2 (two bytes), a zero delta in v3 (one).
    const std::size_t size_at = version == kTdtbVersionFramed ? 3 : 4;
    cases.push_back({v + "kind5", version, "access kind",
                     patched(version, 1, '\x00', '\x05')});
    cases.push_back({v + "kind7", version, "access kind",
                     patched(version, 1, '\x00', '\x07')});
    cases.push_back({v + "scope6", version, "scope",
                     patched(version, 1, '\x00', static_cast<char>(6 << 3))});
    cases.push_back({v + "size0", version, "access size",
                     patched(version, size_at, '\x04', '\x00')});
  }
  // The spare bits 6 and 7 of the kind|scope byte.
  for (const unsigned spare : {0x40u, 0x80u}) {
    cases.push_back({"v2_spare" + std::to_string(spare), 2, "scope",
                     patched(2, 1, '\x00', static_cast<char>(spare))});
  }
  return cases;
}

class TdtbBadField : public ::testing::TestWithParam<BadFieldCase> {};

// Strict refuses the file with a B005 message that names the field. Skip
// keeps the first record. Repair keeps it from a v2 body, which ends at
// the bad entry, and drops the one v3 frame that holds both records.
// Reading from a file at jobs 1 and 3 agrees with the in-memory read.
TEST_P(TdtbBadField, IsReportedAsB005) {
  const BadFieldCase& c = GetParam();
  const std::vector<char> blob(c.bytes.begin(), c.bytes.end());
  try {
    TraceContext ctx;
    (void)read_binary_trace(ctx, blob);
    ADD_FAILURE() << "strict read accepted the record";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Parse);
    EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
        << e.what();
  }
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("tdt_bad_field_" + c.name + ".tdtb");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(c.bytes.data(), static_cast<std::streamsize>(c.bytes.size()));
  }
  for (const ErrorPolicy policy : {ErrorPolicy::Skip, ErrorPolicy::Repair}) {
    const bool dropped =
        policy == ErrorPolicy::Repair && c.version == kTdtbVersionFramed;
    TraceContext mem;
    DiagEngine diags(policy);
    const auto parsed = read_binary_trace(mem, blob, nullptr, &diags);
    ASSERT_EQ(parsed.size(), dropped ? 0u : 1u) << int(policy);
    if (!parsed.empty()) {
      EXPECT_EQ(mem.format_record(parsed[0]), "L 000002000 4 main");
    }
    EXPECT_EQ(diags.count(DiagCode::BinFieldOverflow), 1u) << int(policy);
    EXPECT_EQ(diags.exit_code(), 1) << int(policy);
    for (const int jobs : {1, 3}) {
      TraceContext c2;
      DiagEngine file_diags(policy);
      VectorSink sink;
      (void)View::source(c2, path.string(),
                         {.diags = &file_diags, .jobs = jobs,
                          .clamp_jobs = false})
          .drain(sink);
      EXPECT_EQ(sink.records().size(), parsed.size())
          << int(policy) << " jobs " << jobs;
      EXPECT_EQ(file_diags.counts(), diags.counts())
          << int(policy) << " jobs " << jobs;
    }
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Fields, TdtbBadField,
                         ::testing::ValuesIn(bad_field_cases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace tdt::trace
