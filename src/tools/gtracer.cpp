// gtracer — the synthetic Gleipnir: traces a built-in kernel and writes
// the Gleipnir-format (or din, or binary) trace file. Like Gleipnir it
// writes the trace while the program runs: the interpreter streams its
// records in batches straight into the writer for the chosen format, so
// no whole trace is ever held in memory.
//
//   gtracer --kernel t1_soa --len 1024 --out trace.out
//   gtracer --kernel linked_list --len 4096 --shuffle --out list.tdtb --binary
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <ostream>
#include <tuple>

#include "tdt/tdt.hpp"
#include "tools/cli_common.hpp"
#include "tools/entries.hpp"
#include "tools/obs_support.hpp"

namespace {

using namespace tdt;

tracer::Program make_kernel(layout::TypeTable& types, const std::string& name,
                            std::int64_t len, std::int64_t sets,
                            std::int64_t cacheline, bool shuffle,
                            std::uint64_t seed) {
  if (name == "listing1") return tracer::make_listing1(types);
  if (name == "t1_soa") return tracer::make_t1_soa(types, len);
  if (name == "t1_aos") return tracer::make_t1_aos(types, len);
  if (name == "t2_inline") return tracer::make_t2_inline(types, len);
  if (name == "t2_outlined") return tracer::make_t2_outlined(types, len);
  if (name == "t3_contiguous") return tracer::make_t3_contiguous(types, len);
  if (name == "t3_strided") {
    return tracer::make_t3_strided(types, len, sets, cacheline);
  }
  if (name == "matmul_ijk") return tracer::make_matmul(types, len, false);
  if (name == "matmul_ikj") return tracer::make_matmul(types, len, true);
  if (name == "row_major") return tracer::make_row_col(types, len, len, false);
  if (name == "col_major") return tracer::make_row_col(types, len, len, true);
  if (name == "linked_list") {
    return tracer::make_linked_list(types, len, shuffle, seed);
  }
  throw_config_error(
      "unknown kernel '" + name +
      "' (try: listing1, t1_soa, t1_aos, t2_inline, t2_outlined, "
      "t3_contiguous, t3_strided, matmul_ijk, matmul_ikj, row_major, "
      "col_major, linked_list)");
}

/// Hands each batch on to the writer and ticks the --progress heartbeat,
/// when one runs, while the trace is generated.
class ProgressTap final : public trace::TraceSink {
 public:
  ProgressTap(trace::TraceSink& writer, obs::Heartbeat* heartbeat)
      : writer_(&writer), heartbeat_(heartbeat) {}

  void on_record(const trace::TraceRecord& rec) override {
    writer_->on_record(rec);
    if (heartbeat_ != nullptr) heartbeat_->tick(1);
  }
  void push_batch(std::span<const trace::TraceRecord> batch) override {
    writer_->push_batch(batch);
    if (heartbeat_ != nullptr) heartbeat_->tick(batch.size());
  }
  void on_end() override {
    writer_->on_end();
    if (heartbeat_ != nullptr) heartbeat_->finish();
  }

 private:
  trace::TraceSink* writer_;
  obs::Heartbeat* heartbeat_;
};

}  // namespace

int tdt::tools::gtracer_run(const tdt::service::ToolIO& io, int argc,
                            char** argv) {
  {
    FlagParser flags("gtracer", "synthetic Gleipnir trace generator");
    flags.set_output(io.out);
    const auto* kernel = flags.add_string("kernel", "t1_soa", "kernel name");
    const auto* source = flags.add_string(
        "source", "", "parse a C-subset kernel source file instead of "
                      "using a built-in kernel");
    const auto* len = flags.add_int("len", 16, "kernel size parameter LEN/N");
    const auto* sets = flags.add_int("sets", 16, "t3_strided: target set count");
    const auto* line =
        flags.add_int("cache-line", 32, "t3_strided: cache line bytes");
    const auto* shuffle =
        flags.add_bool("shuffle", false, "linked_list: randomize node order");
    const auto* seed = flags.add_uint("seed", 42, "linked_list shuffle seed");
    const auto* out = flags.add_string(
        "out", "", "output file ('-' = stdout; a .gz name gzips text or din)");
    const auto* binary =
        flags.add_bool("binary", false, "write compact TDTB binary format");
    const auto* din = flags.add_bool(
        "din", false, "write classic DineroIV din format (drops metadata)");
    const auto* pid = flags.add_uint("pid", 4242, "PID for the START marker");
    const tools::CommonFlags common = tools::CommonFlags::add(
        flags, {.error_policy = false, .compress = true, .connect = false});
    if (!flags.parse(argc, argv)) return 0;
    const std::tuple<const char*, std::int64_t, std::int64_t> minimums[] = {
        {"len", *len, 1}, {"sets", *sets, 1}, {"cache-line", *line, 4}};
    for (const auto& [flag, value, min] : minimums) {
      if (value < min) {
        throw_config_error(std::string("--") + flag + " must be at least " +
                           std::to_string(min) + " (got " +
                           std::to_string(value) + ")");
      }
    }
    if (*din && *binary) {
      throw_config_error("--din and --binary each choose the output format; "
                         "give one of them");
    }
    if (common.wants_compress() && !*binary) {
      throw_config_error("--compress requires --binary (TDTB output)");
    }
    if (*binary && (out->empty() || *out == "-")) {
      throw_config_error("--binary requires --out <file>");
    }
    common.arm_faults();

    std::optional<obs::Registry> registry_store;
    if (common.wants_registry()) registry_store.emplace("gtracer");
    obs::Registry* registry = registry_store ? &*registry_store : nullptr;

    std::optional<obs::Heartbeat> heartbeat;
    if (*common.progress) heartbeat.emplace("gtracer", *io.errs);

    layout::TypeTable types;
    trace::TraceContext ctx;
    obs::PhaseTimer generate_phase(registry, "generate");
    const tracer::Program prog =
        source->empty() ? make_kernel(types, *kernel, *len, *sets, *line,
                                      *shuffle, *seed)
                        : tracer::parse_kernel_file(*source, types);
    const trace::TraceFormat format =
        *din      ? trace::TraceFormat::Din
        : *binary ? trace::TraceFormat::Tdtb
                  : trace::TraceFormat::Gleipnir;
    service::FileStreambuf stdout_buf(io.out);
    std::ostream stdout_stream(&stdout_buf);
    trace::TraceOutput output(*out, format, &stdout_stream);
    std::uint64_t records = 0;
    try {
      trace::TraceWriter writer(format, ctx, output.stream(), *pid,
                                common.writer_options(), registry);
      ProgressTap tap(writer, heartbeat ? &*heartbeat : nullptr);
      tracer::Interpreter interp(types, ctx, tap);
      interp.run(prog);
      records = interp.records_emitted();
      writer.fold_metrics();
      output.finish();
    } catch (...) {
      output.discard();
      throw;
    }
    generate_phase.stop();
    std::fprintf(io.err, "gtracer: %" PRIu64 " records from %s'%s'\n",
                 records, source->empty() ? "kernel " : "source ",
                 source->empty() ? kernel->c_str() : source->c_str());
    if (registry != nullptr) {
      registry->counter("trace.records").add(records);
      common.write(*registry);
    }
    return 0;
  }
}

#ifndef TDT_TOOL_LIBRARY
int main(int argc, char** argv) {
  return tdt::tools::run_tool({"gtracer", nullptr, tdt::tools::gtracer_run},
                              argc, argv);
}
#endif
