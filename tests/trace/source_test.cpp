#include "trace/source.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "trace/reader.hpp"
#include "util/error.hpp"

namespace tdt::trace {
namespace {

std::filesystem::path temp_path(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

void write_file(const std::filesystem::path& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good());
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  ASSERT_TRUE(out.good());
}

std::string drain_source(ByteSource& src) {
  std::string all;
  for (std::string_view chunk = src.next_chunk(); !chunk.empty();
       chunk = src.next_chunk()) {
    all.append(chunk);
  }
  return all;
}

std::string sample_trace(int iterations = 500) {
  std::string text = "START PID 42\n";
  for (int i = 0; i < iterations; ++i) {
    text += "S 7ff0001b0 8 main LS 0 1 arr[" + std::to_string(i) + "]\n";
    text += "L 7ff0001b8 4 main LV 0 1 i\n";
  }
  text += "END PID 42\n";
  return text;
}

TEST(ByteSourceTest, AllBackendsDeliverIdenticalBytes) {
  // Short enough that one-byte blocks stay quick: every block is one
  // hand-off between the prefetch thread and the reader.
  const std::string text = sample_trace(40);
  const auto path = temp_path("tdt_source_equiv.trace");
  write_file(path, text);

  MemorySource mem(text);
  EXPECT_EQ(drain_source(mem), text);
  EXPECT_FALSE(mem.failed());

  // Small blocks force chunk boundaries inside lines.
  for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                   std::size_t{128}, kIngestBlock}) {
    std::istringstream str_in(text);
    OverlappedSource from_string(str_in, block);
    EXPECT_EQ(drain_source(from_string), text) << "istringstream, " << block;
    EXPECT_FALSE(from_string.failed());

    std::ifstream file_in(path, std::ios::in | std::ios::binary);
    ASSERT_TRUE(file_in.good());
    OverlappedSource from_file(file_in, block);
    EXPECT_EQ(drain_source(from_file), text) << "file, " << block;
    EXPECT_FALSE(from_file.failed());
  }

  const auto opened = open_trace_byte_source(path.string());
  EXPECT_EQ(drain_source(*opened), text);
  EXPECT_FALSE(opened->failed());

  std::filesystem::remove(path);
}

TEST(ByteSourceTest, EmptyFileYieldsNoBytes) {
  const auto path = temp_path("tdt_source_empty.trace");
  write_file(path, "");
  const auto src = open_trace_byte_source(path.string());
  EXPECT_TRUE(src->next_chunk().empty());
  EXPECT_TRUE(src->next_chunk().empty());
  EXPECT_FALSE(src->failed());
  std::filesystem::remove(path);
}

TEST(ByteSourceTest, OpenErrors) {
  // A missing path is an I/O error, raised when the source is opened.
  try {
    (void)open_trace_byte_source("/nonexistent/tdt/no.trace");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Io);
  }
}

TEST(ByteSourceTest, ReaderRecordsIdenticalAcrossSources) {
  // Every way text reaches the reader — in place from memory, a file
  // through the prefetching source, and a stream cut into small blocks —
  // yields the same records and the same byte count.
  const std::string text = sample_trace();
  const auto path = temp_path("tdt_source_reader.trace");
  write_file(path, text);

  TraceContext ref_ctx;
  std::uint64_t ref_pid = 0;
  const auto ref = read_trace_string(ref_ctx, text, &ref_pid);
  EXPECT_EQ(ref_pid, 42u);

  std::istringstream in(text);
  const std::pair<const char*, std::function<std::unique_ptr<ByteSource>()>>
      sources[] = {
          {"memory", [&] { return std::make_unique<MemorySource>(text); }},
          {"file", [&] { return open_trace_byte_source(path.string()); }},
          {"stream",
           [&] { return std::make_unique<OverlappedSource>(in, 100); }},
      };
  for (const auto& [name, open] : sources) {
    TraceContext ctx;
    GleipnirReader reader(ctx, open());
    std::vector<TraceRecord> records;
    while (reader.next_batch(records, 256) != 0) {
    }
    ASSERT_EQ(records.size(), ref.size()) << name;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ctx.format_record(records[i]),
                ref_ctx.format_record(ref[i]))
          << name << " record " << i;
    }
    EXPECT_EQ(reader.start_pid(), 42u);
    EXPECT_EQ(reader.counters().bytes, text.size());
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tdt::trace
