// tracediff — the paper's step 5: side-by-side comparison of an original
// trace with its transformed counterpart (Figures 5, 8, 9).
//
//   tracediff original.out transformed_trace.out [--max-rows 64] [--summary]
//
// Exit code: 0 = traces identical and no recovered errors, 1 =
// differences found and/or input errors recovered under --on-error,
// 2 = fatal/usage.
#include <cstdio>
#include <iostream>
#include <optional>

#include "tdt/tdt.hpp"
#include "tools/cli_common.hpp"
#include "tools/entries.hpp"
#include "tools/obs_support.hpp"

int tdt::tools::tracediff_run(const tdt::service::ToolIO& io, int argc,
                              char** argv) {
  using namespace tdt;
  {
    FlagParser flags("tracediff", "side-by-side trace comparison");
    flags.set_output(io.out);
    const auto* max_rows =
        flags.add_uint("max-rows", 0, "limit printed rows (0 = all)");
    const auto* summary_only =
        flags.add_bool("summary", false, "print only the summary counts");
    const tools::CommonFlags common = tools::CommonFlags::add(
        flags, {.jobs = true, .governor = true});
    if (!flags.parse(argc, argv)) return 0;
    if (flags.positional().size() != 2) {
      std::fprintf(io.err,
                   "usage: tracediff <original> <transformed> [flags]\n");
      return 2;
    }
    common.arm_faults();
    Governor governor;
    common.configure(governor);

    std::optional<obs::Registry> registry_store;
    if (common.wants_registry()) registry_store.emplace("tracediff");
    obs::Registry* registry = registry_store ? &*registry_store : nullptr;

    DiagEngine diags = common.make_diags(io.errs);

    // The heartbeat covers the first (usually larger) read; finishing it
    // again on the second would double-print the total.
    std::optional<tools::HeartbeatSink> progress;
    if (*common.progress) progress.emplace("tracediff", *io.errs);

    trace::TraceContext ctx;
    // Both traces must be memory-resident for the diff: a hard
    // requirement under --max-memory (exhaustion exits 2, never a
    // silently truncated diff).
    trace::VectorSink original_sink(&governor.memory);
    trace::VectorSink transformed_sink(&governor.memory);
    bool deadline_hit = false;
    for (int side = 0; side < 2; ++side) {
      obs::PhaseTimer phase(registry,
                            side == 0 ? "stream-original" : "stream-transformed");
      trace::ViewSourceOptions source_options;
      source_options.diags = &diags;
      source_options.jobs = static_cast<int>(*common.jobs);
      const trace::View source =
          trace::View::source(ctx, flags.positional()[side], source_options);
      trace::Graph graph;
      if (progress.has_value() && side == 0) graph.add_sink(source, *progress);
      graph.add_sink(source, side == 0 ? original_sink : transformed_sink);
      const trace::GraphResult r =
          graph.run({.registry = registry, .governor = &governor});
      deadline_hit = deadline_hit || r.deadline_hit;
    }
    if (deadline_hit) {
      std::fprintf(io.err, "tracediff: deadline expired mid-read; the diff "
                           "below compares truncated traces\n");
    }
    const auto& original = original_sink.records();
    const auto& transformed = transformed_sink.records();
    obs::PhaseTimer diff_phase(registry, "diff");
    const auto entries = trace::diff_traces(original, transformed);
    const trace::DiffSummary s = trace::summarize(entries);
    diff_phase.stop();

    if (!*summary_only) {
      const std::size_t rows =
          *max_rows == 0 ? entries.size() : static_cast<std::size_t>(*max_rows);
      std::fputs(trace::render_side_by_side(ctx, original, transformed,
                                            entries, rows)
                     .c_str(),
                 io.out);
    }
    std::fprintf(io.out,
                 "same %llu  modified %llu  inserted %llu  deleted %llu\n",
                 static_cast<unsigned long long>(s.same),
                 static_cast<unsigned long long>(s.modified),
                 static_cast<unsigned long long>(s.inserted),
                 static_cast<unsigned long long>(s.deleted));

    const std::string summary = diags.summary();
    if (!summary.empty()) {
      std::fprintf(io.err, "tracediff: %s", summary.c_str());
    }
    if (registry != nullptr) {
      tools::fold_diags(registry, diags);
      registry->counter("diff.same").add(s.same);
      registry->counter("diff.modified").add(s.modified);
      registry->counter("diff.inserted").add(s.inserted);
      registry->counter("diff.deleted").add(s.deleted);
      governor.fold(registry);
      common.write(*registry);
    }
    const bool differs = s.modified + s.inserted + s.deleted != 0;
    return differs || !diags.clean() || deadline_hit ? 1 : 0;
  }
}

#ifndef TDT_TOOL_LIBRARY
int main(int argc, char** argv) {
  return tdt::tools::run_tool(
      {"tracediff", "trace-diff", tdt::tools::tracediff_run}, argc, argv);
}
#endif
