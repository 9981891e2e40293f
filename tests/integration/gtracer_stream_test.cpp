// gtracer streams each kernel straight into the writer for the chosen
// format while the interpreter runs. Its output must be byte-identical to
// the whole-trace path: run_program into a vector, then the whole-trace
// writers — for text (file and stdout), din, TDTB v2 and v3 under every
// loadable codec, and `.gz` text and din, which must inflate to the same
// bytes and equal gzip_compress of them. The tool body runs in process,
// exactly as the gtracer binary runs it.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "tdt/service.hpp"
#include "tools/entries.hpp"
#include "trace/binary.hpp"
#include "trace/codec.hpp"
#include "trace/din.hpp"
#include "trace/writer.hpp"
#include "tracer/interp.hpp"
#include "tracer/kernels.hpp"
#include "tracer/parser.hpp"

#ifndef TDT_KERNELS_DIR
#error "TDT_KERNELS_DIR must be defined by the build"
#endif

namespace tdt {
namespace {

constexpr std::uint64_t kPid = 4242;  // gtracer's default --pid

struct KernelCase {
  const char* name;
  std::vector<std::string> args;  // gtracer's kernel selection
  std::function<tracer::Program(layout::TypeTable&)> build;
};

// gtest prints a parameter next to each test's name; print the case name.
void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.name; }

std::vector<KernelCase> kernel_cases() {
  const std::string t2_cold = std::string(TDT_KERNELS_DIR) + "/t2_cold.c";
  return {
      {"t1_soa", {"--kernel", "t1_soa", "--len", "700"},
       [](layout::TypeTable& t) { return tracer::make_t1_soa(t, 700); }},
      {"t2_inline", {"--kernel", "t2_inline", "--len", "400"},
       [](layout::TypeTable& t) { return tracer::make_t2_inline(t, 400); }},
      {"linked_list",
       {"--kernel", "linked_list", "--len", "3000", "--shuffle"},
       [](layout::TypeTable& t) {
         return tracer::make_linked_list(t, 3000, true, 42);
       }},
      {"source_t2_cold", {"--source", t2_cold},
       [t2_cold](layout::TypeTable& t) {
         return tracer::parse_kernel_file(t2_cold, t);
       }},
  };
}

/// Runs the gtracer body with `args`; returns what it wrote to stdout.
std::string run_gtracer(const std::vector<std::string>& args) {
  std::vector<std::string> storage{"gtracer"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : storage) argv.push_back(a.data());
  service::CaptureIO capture;
  const int rc = tools::gtracer_run(capture.io(),
                                    static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(rc, 0) << capture.err_bytes();
  return capture.out_bytes();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string inflate(const std::string& gz) {
  trace::GzipInflater inflater;
  inflater.set_input(gz);
  std::string out;
  char chunk[1 << 16];
  for (;;) {
    std::size_t produced = 0;
    const auto status = inflater.inflate_chunk(chunk, sizeof(chunk), &produced);
    out.append(chunk, produced);
    if (status == trace::GzipInflater::Status::Error) {
      ADD_FAILURE() << "corrupt gzip stream";
      return out;
    }
    if (status == trace::GzipInflater::Status::Done ||
        status == trace::GzipInflater::Status::NeedInput) {
      return out;
    }
  }
}

std::string as_string(const std::vector<char>& blob) {
  return {blob.begin(), blob.end()};
}

class GtracerStream : public ::testing::TestWithParam<KernelCase> {};

TEST_P(GtracerStream, BytesMatchTheWholeTraceWriters) {
  const KernelCase& c = GetParam();
  layout::TypeTable types;
  trace::TraceContext ctx;
  const std::vector<trace::TraceRecord> records =
      tracer::run_program(types, ctx, c.build(types));
  ASSERT_GT(records.size(), trace::kViewBatch);  // more than one batch

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string("tdt_gtracer_stream_") + c.name);
  std::filesystem::create_directories(dir);
  const auto out_file = [&](const char* name,
                            std::vector<std::string> extra = {}) {
    std::vector<std::string> args = c.args;
    args.insert(args.end(), extra.begin(), extra.end());
    args.push_back("--out");
    args.push_back((dir / name).string());
    run_gtracer(args);
    return read_file(dir / name);
  };

  const std::string text = trace::write_trace_string(ctx, records, kPid);
  EXPECT_EQ(out_file("t.out"), text);
  std::vector<std::string> to_stdout = c.args;
  to_stdout.push_back("--out");
  to_stdout.push_back("-");
  EXPECT_EQ(run_gtracer(to_stdout), text);

  const std::string din = trace::write_din_string(records);
  EXPECT_EQ(out_file("t.din", {"--din"}), din);

  EXPECT_EQ(out_file("t.tdtb", {"--binary"}),
            as_string(trace::write_binary_trace(ctx, records, kPid)));
  for (const trace::Codec codec :
       {trace::Codec::None, trace::Codec::Zstd, trace::Codec::Lz4}) {
    if (!trace::codec_available(codec)) continue;
    const std::string name(trace::codec_name(codec));
    trace::BinaryWriterOptions options;
    options.version = trace::kTdtbVersionFramed;
    options.codec = codec;
    EXPECT_EQ(out_file(("t_" + name + ".tdtb").c_str(),
                       {"--binary", "--compress", name}),
              as_string(
                  trace::write_binary_trace(ctx, records, kPid, options)))
        << name;
  }

  if (trace::gzip_available()) {
    std::string want;
    ASSERT_TRUE(trace::gzip_compress(text, want));
    const std::string gz_text = out_file("t.out.gz");
    EXPECT_EQ(inflate(gz_text), text);
    EXPECT_EQ(gz_text, want);
    ASSERT_TRUE(trace::gzip_compress(din, want));
    const std::string gz_din = out_file("t.din.gz", {"--din"});
    EXPECT_EQ(inflate(gz_din), din);
    EXPECT_EQ(gz_din, want);
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Kernels, GtracerStream,
                         ::testing::ValuesIn(kernel_cases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace tdt
