// traceinfo — quick trace statistics: access mix, per-function and
// per-variable counts, footprint. Reads Gleipnir text, din, or TDTB
// binary traces (format guessed from the extension).
//
//   traceinfo trace.out [--block 32] [--top 16] [--on-error=skip]
//
// Exit code: 0 = clean, 1 = completed with recovered errors, 2 = fatal.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>

#include "tdt/tdt.hpp"
#include "tools/cli_common.hpp"
#include "tools/entries.hpp"
#include "tools/obs_support.hpp"

namespace {

/// Renders the TDTB container section: version, codec, frame count,
/// compression ratio, and the per-frame record table (capped by --top).
/// Printed only for TDTB inputs, so text-trace output stays byte-
/// identical to earlier releases.
void print_container(std::FILE* out, const tdt::trace::TdtbContainerInfo& c,
                     std::uint64_t top) {
  using tdt::trace::Codec;
  const auto ull = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  const auto codec_label = [](std::uint8_t id) -> std::string {
    const std::optional<Codec> codec = tdt::trace::codec_from_id(id);
    if (codec) return std::string(tdt::trace::codec_name(*codec));
    return "unknown(" + std::to_string(id) + ")";
  };
  std::fprintf(out, "== container ==\n");
  std::fprintf(out, "  %-16s TDTB v%u\n", "format", c.version);
  std::fprintf(out, "  %-16s %llu\n", "pid", ull(c.pid));
  std::fprintf(out, "  %-16s %llu\n", "file bytes", ull(c.file_bytes));
  if (c.version < tdt::trace::kTdtbVersionFramed) {
    if (c.total_records != 0) {
      std::fprintf(out, "  %-16s %llu\n", "records", ull(c.total_records));
    }
    std::fprintf(out, "\n");
    return;
  }
  std::fprintf(out, "  %-16s %s\n", "codec", codec_label(c.default_codec).c_str());
  if (!c.has_index) {
    std::fprintf(out, "  %-16s invalid (footer or frame index failed "
                "validation)\n\n", "frame index");
    return;
  }
  std::uint64_t payload = 0;
  std::uint64_t stored = 0;
  for (const tdt::trace::TdtbFrameInfo& f : c.frames) {
    payload += f.usize;
    stored += f.csize;
  }
  std::fprintf(out, "  %-16s %zu\n", "frames", c.frames.size());
  std::fprintf(out, "  %-16s %llu\n", "records", ull(c.total_records));
  std::fprintf(out, "  %-16s %llu\n", "payload bytes", ull(payload));
  std::fprintf(out, "  %-16s %llu\n", "stored bytes", ull(stored));
  if (stored > 0) {
    std::fprintf(out, "  %-16s %.2fx\n", "compression",
                static_cast<double>(payload) / static_cast<double>(stored));
  }
  const std::size_t rows =
      top == 0 ? c.frames.size()
               : std::min<std::size_t>(c.frames.size(),
                                       static_cast<std::size_t>(top));
  if (rows > 0) {
    std::fprintf(out, "  %6s %8s %12s %12s %12s\n", "frame", "codec", "records",
                "payload", "stored");
    for (std::size_t i = 0; i < rows; ++i) {
      const tdt::trace::TdtbFrameInfo& f = c.frames[i];
      std::fprintf(out, "  %6zu %8s %12llu %12llu %12llu\n", i,
                  codec_label(f.codec).c_str(), ull(f.records), ull(f.usize),
                  ull(f.csize));
    }
    if (rows < c.frames.size()) {
      std::fprintf(out, "  (%zu more frames; raise --top to list them)\n",
                  c.frames.size() - rows);
    }
  }
  std::fprintf(out, "\n");
}

/// Terminal sink feeding the stats collector.
class StatsSink final : public tdt::trace::TraceSink {
 public:
  explicit StatsSink(std::uint64_t block_size) : stats_(block_size) {}

  void on_record(const tdt::trace::TraceRecord& rec) override {
    stats_.add(rec);
  }
  void push_batch(std::span<const tdt::trace::TraceRecord> batch) override {
    stats_.add_all(batch);
  }
  [[nodiscard]] tdt::trace::TraceStats& stats() noexcept { return stats_; }

 private:
  tdt::trace::TraceStats stats_;
};

}  // namespace

int tdt::tools::traceinfo_run(const tdt::service::ToolIO& io, int argc,
                              char** argv) {
  using namespace tdt;
  {
    FlagParser flags("traceinfo", "trace statistics");
    flags.set_output(io.out);
    const auto* block =
        flags.add_uint("block", 32, "footprint tracking granularity in bytes");
    const auto* top = flags.add_uint("top", 16, "rows per ranking table");
    const tools::CommonFlags common = tools::CommonFlags::add(
        flags, {.jobs = true, .governor = true});
    if (!flags.parse(argc, argv)) return 0;
    if (flags.positional().size() != 1) {
      std::fprintf(io.err, "usage: traceinfo <trace-file> [flags]\n");
      return 2;
    }
    common.arm_faults();
    Governor governor;
    common.configure(governor);

    std::optional<obs::Registry> registry_store;
    if (common.wants_registry()) registry_store.emplace("traceinfo");
    obs::Registry* registry = registry_store ? &*registry_store : nullptr;

    DiagEngine diags = common.make_diags(io.errs);

    const std::string& path = flags.positional()[0];
    // Only a regular file can be probed ahead of the read; probing a
    // pipe would consume it.
    std::error_code ec;
    if (trace::guess_trace_format(path) == trace::TraceFormat::Tdtb &&
        std::filesystem::is_regular_file(path, ec)) {
      if (const std::optional<trace::TdtbContainerInfo> container =
              trace::probe_tdtb_file(path)) {
        print_container(io.out, *container, *top);
      }
    }

    trace::TraceContext ctx;
    StatsSink sink(*block);
    std::optional<tools::HeartbeatSink> progress;
    if (*common.progress) progress.emplace("traceinfo", *io.errs);
    trace::GraphResult stream_result;
    {
      obs::PhaseTimer phase(registry, "stream");
      trace::ViewSourceOptions source_options;
      source_options.diags = &diags;
      source_options.jobs = static_cast<int>(*common.jobs);
      const trace::View source = trace::View::source(ctx, path, source_options);
      trace::Graph graph;
      if (progress.has_value()) graph.add_sink(source, *progress);
      graph.add_sink(source, sink);
      stream_result =
          graph.run({.registry = registry, .governor = &governor});
    }
    if (stream_result.deadline_hit) {
      std::fprintf(io.err,
                   "traceinfo: deadline expired after %llu records; "
                   "statistics below cover that prefix only\n",
                   static_cast<unsigned long long>(stream_result.records));
    }
    {
      obs::PhaseTimer phase(registry, "report");
      std::fputs(sink.stats().report(ctx, *top).c_str(), io.out);
    }

    const std::string summary = diags.summary();
    if (!summary.empty()) {
      std::fprintf(io.err, "traceinfo: %s", summary.c_str());
    }
    if (registry != nullptr) {
      tools::fold_diags(registry, diags);
      governor.fold(registry);
      common.write(*registry);
    }
    return tools::finalize_exit(diags.exit_code(),
                                stream_result.deadline_hit);
  }
}

#ifndef TDT_TOOL_LIBRARY
int main(int argc, char** argv) {
  return tdt::tools::run_tool(
      {"traceinfo", "trace-info", tdt::tools::traceinfo_run}, argc, argv);
}
#endif
