// gtracer — the synthetic Gleipnir: traces a built-in kernel and writes
// the Gleipnir-format (or binary) trace file.
//
//   gtracer --kernel t1_soa --len 1024 --out trace.out
//   gtracer --kernel linked_list --len 4096 --shuffle --out list.tdtb --binary
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>

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
    const auto* out = flags.add_string("out", "", "output file ('-' = stdout)");
    const auto* binary =
        flags.add_bool("binary", false, "write compact TDTB binary format");
    const auto* din = flags.add_bool(
        "din", false, "write classic DineroIV din format (drops metadata)");
    const auto* pid = flags.add_uint("pid", 4242, "PID for the START marker");
    const tools::CommonFlags common = tools::CommonFlags::add(
        flags, {.error_policy = false, .compress = true, .connect = false});
    if (!flags.parse(argc, argv)) return 0;
    if (common.wants_compress() && !*binary) {
      throw_config_error("--compress requires --binary (TDTB output)");
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
    const std::vector<trace::TraceRecord> records =
        tracer::run_program(types, ctx, prog);
    generate_phase.stop();
    if (heartbeat.has_value()) {
      heartbeat->tick(records.size());
      heartbeat->finish();
    }

    obs::PhaseTimer write_phase(registry, "write");
    if (*din) {
      if (out->empty() || *out == "-") {
        std::fputs(trace::write_din_string(records).c_str(), io.out);
      } else {
        trace::write_din_file(records, *out);
      }
    } else if (*binary) {
      if (out->empty() || *out == "-") {
        throw_config_error("--binary requires --out <file>");
      }
      const std::vector<char> blob = trace::write_binary_trace(
          ctx, records, *pid, common.writer_options());
      std::ofstream f(*out, std::ios::binary);
      if (!f) throw_io_error("cannot open '" + *out + "'");
      f.write(blob.data(), static_cast<std::streamsize>(blob.size()));
      if (!f) throw_io_error("writing '" + *out + "' failed");
    } else if (out->empty() || *out == "-") {
      std::fputs(trace::write_trace_string(ctx, records, *pid).c_str(),
                 io.out);
    } else if (out->size() > 3 &&
               out->compare(out->size() - 3, 3, ".gz") == 0) {
      // A .gz output name gzips the text trace, matching the transparent
      // .gz ingest on the reader side.
      if (!trace::gzip_available()) {
        throw_config_error("'" + *out + "': gzip output needs zlib, which "
                           "this build does not carry");
      }
      std::string gz;
      if (!trace::gzip_compress(trace::write_trace_string(ctx, records, *pid),
                                gz)) {
        throw_io_error("gzip compression failed for '" + *out + "'");
      }
      std::ofstream f(*out, std::ios::binary);
      if (!f) throw_io_error("cannot open '" + *out + "'");
      f.write(gz.data(), static_cast<std::streamsize>(gz.size()));
      if (!f) throw_io_error("writing '" + *out + "' failed");
    } else {
      trace::write_trace_file(ctx, records, *out, *pid);
    }
    write_phase.stop();
    std::fprintf(io.err, "gtracer: %zu records from %s'%s'\n",
                 records.size(), source->empty() ? "kernel " : "source ",
                 source->empty() ? kernel->c_str() : source->c_str());
    if (registry != nullptr) {
      registry->counter("trace.records").add(records.size());
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
