// tdtune — the trace-driven layout autotuner (docs/AUTOTUNE.md).
//
// One streaming pass profiles per-structure field affinity and heat;
// the candidate generator turns the profiles into concrete T1/T2/T3
// rule sets; every candidate is replayed through the transformer into a
// cache sweep and ranked by simulated miss reduction vs the baseline.
//
//   tdtune trace.out
//   tdtune trace.out --report --emit-best best.rules
//   tdtune trace.out --sweep "assoc=1;assoc=4" --json report.json
//
// The emitted rules file is bit-for-bit the rule set that was scored:
// feeding it back through `dinerosim --rules best.rules --sweep <spec>`
// reproduces the reported miss counts exactly.
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>

#include "tdt/tdt.hpp"
#include "tools/cli_common.hpp"
#include "tools/entries.hpp"
#include "tools/obs_support.hpp"

int tdt::tools::tdtune_run(const tdt::service::ToolIO& io, int argc,
                           char** argv) {
  using namespace tdt;
  {
    FlagParser flags("tdtune",
                     "trace-driven layout autotuner: profiles field affinity "
                     "and heat, generates candidate transformation rules, "
                     "and ranks them by simulated cache misses");
    flags.set_output(io.out);
    const auto* trace_flag =
        flags.add_string("trace", "", "input trace file (or pass it "
                                      "positionally)");
    const auto* window = flags.add_uint(
        "window", 32, "co-access reuse window in records");
    const auto* min_accesses = flags.add_uint(
        "min-accesses", 64, "ignore structures with fewer accesses");
    const auto* cold_percent = flags.add_uint(
        "cold-percent", 10, "fields below this percentage of their "
                            "structure's accesses are cold (T2 outlining)");
    const auto* affinity_percent = flags.add_uint(
        "affinity-percent", 50,
        "normalized co-access percentage at or above which two fields "
        "cluster into one out structure (T1 regrouping)");
    const auto* max_candidates =
        flags.add_uint("max-candidates", 16, "cap on generated candidates");
    const auto* stride_injects = flags.add_bool(
        "stride-injects", true,
        "charge stride remaps one index-arithmetic load per access "
        "(--stride-injects=false to disable)");
    const auto* report = flags.add_bool(
        "report", false, "print the affinity/heat profile before the "
                         "ranking table");
    const auto* emit_best = flags.add_string(
        "emit-best", "", "write the winning rules file here (skipped when "
                         "no candidate beats the baseline)");
    const auto* json_path = flags.add_string(
        "json", "", "write the tdt-autotune/1 JSON report to this file "
                    "('-' = stdout)");
    const auto* sweep = flags.add_string(
        "sweep", "", "evaluate candidates over several cache "
                     "configurations in one pass per candidate; same "
                     "spec syntax as dinerosim --sweep (empty = the "
                     "single configuration from the cache flags)");
    const tools::CacheFlags cache = tools::CacheFlags::add(flags);
    const tools::CommonFlags common = tools::CommonFlags::add(
        flags, {.error_policy = true, .jobs = true, .governor = true});
    if (!flags.parse(argc, argv)) return 0;

    std::string trace_path = *trace_flag;
    if (trace_path.empty() && !flags.positional().empty()) {
      trace_path = flags.positional().front();
    }
    if (flags.positional().size() > 1 ||
        (!trace_flag->empty() && !flags.positional().empty())) {
      throw_config_error("expected exactly one trace file");
    }
    if (trace_path.empty()) {
      throw_config_error("a trace file is required (positional or --trace)");
    }
    if (*window > std::numeric_limits<std::uint32_t>::max()) {
      throw_config_error("--window must be at most 4294967295");
    }
    common.arm_faults();
    Governor governor;
    common.configure(governor);

    std::optional<obs::Registry> registry_store;
    if (common.wants_registry()) registry_store.emplace("tdtune");
    obs::Registry* registry = registry_store ? &*registry_store : nullptr;

    DiagEngine diags = common.make_diags(io.errs);

    // One pass, two consumers of the same ingest: the records land in
    // memory (evaluation replays them once per candidate) while the
    // affinity profiler sees the identical batches — a two-sink view
    // graph, so the trace is read exactly once.
    trace::TraceContext ctx;
    analysis::AffinityOptions profile_options;
    profile_options.window = static_cast<std::uint32_t>(*window);
    analysis::AffinityCollector affinity(ctx, profile_options);
    // The recorded trace is replayed once per candidate: a hard
    // requirement under --max-memory (exhaustion exits 2).
    trace::VectorSink recorder(&governor.memory);
    std::optional<tools::HeartbeatSink> progress;
    if (*common.progress) progress.emplace("tdtune", *io.errs);
    trace::GraphResult stream_result;
    {
      obs::PhaseTimer phase(registry, "stream");
      trace::ViewSourceOptions source_options;
      source_options.diags = &diags;
      source_options.jobs = static_cast<int>(*common.jobs);
      const trace::View source =
          trace::View::source(ctx, trace_path, source_options);
      trace::Graph graph;
      if (progress.has_value()) graph.add_sink(source, *progress);
      graph.add_sink(source, recorder);
      graph.add_sink(source, affinity);
      stream_result =
          graph.run({.registry = registry, .governor = &governor});
    }
    if (stream_result.deadline_hit) {
      std::fprintf(io.err,
                   "tdtune: deadline expired after %llu records; tuning on "
                   "that prefix only\n",
                   static_cast<unsigned long long>(stream_result.records));
    }
    const std::vector<trace::TraceRecord> records = recorder.take();

    std::fprintf(io.err, "tdtune: profiled %llu records, %zu structures\n",
                 static_cast<unsigned long long>(affinity.records_seen()),
                 affinity.structs().size());
    if (*report) std::fputs(affinity.report().c_str(), io.out);

    analysis::AutotuneOptions options;
    options.min_accesses = *min_accesses;
    options.cold_fraction = static_cast<double>(*cold_percent) / 100.0;
    options.affinity_threshold =
        static_cast<double>(*affinity_percent) / 100.0;
    options.max_candidates = *max_candidates;
    options.stride_injects = *stride_injects;

    std::vector<analysis::Candidate> candidates;
    {
      obs::PhaseTimer phase(registry, "generate");
      candidates = analysis::generate_candidates(affinity.structs(), options);
    }
    std::fprintf(io.err, "tdtune: generated %zu candidate(s)\n",
                 candidates.size());
    if (registry != nullptr) {
      registry->counter("autotune.structs").add(affinity.structs().size());
    }

    std::vector<cache::SweepPoint> points;
    if (sweep->empty()) {
      cache::SweepPoint base;
      base.levels.push_back(cache.l1());
      for (cache::CacheConfig& level : cache.extra_levels()) {
        base.levels.push_back(std::move(level));
      }
      points.push_back(std::move(base));
    } else {
      std::vector<std::string> warnings;
      points = cache::parse_sweep_spec(*sweep, cache.l1(),
                                       cache.extra_levels(), &warnings);
      tools::print_warnings(io.err, "tdtune", warnings);
    }

    const analysis::Autotuner tuner(ctx, options);
    const analysis::AutotuneResult result =
        tuner.evaluate(records, std::move(candidates), points,
                       cache.sim_options(), cache.page_spec(),
                       static_cast<std::size_t>(*common.jobs), registry);

    std::fputs(result.table().c_str(), io.out);
    std::fprintf(io.out,
                 "baseline: merged L1 totals: %llu accesses, %llu misses\n",
                 static_cast<unsigned long long>(result.baseline.accesses),
                 static_cast<unsigned long long>(result.baseline.misses));
    if (const analysis::RankedCandidate* best = result.best()) {
      std::fprintf(io.out,
                   "best (%s): merged L1 totals: %llu accesses, %llu "
                   "misses\n",
                   best->candidate.name.c_str(),
                   static_cast<unsigned long long>(best->eval.accesses),
                   static_cast<unsigned long long>(best->eval.misses));
      std::fprintf(io.out, "rationale: %s\n",
                   best->candidate.rationale.c_str());
    } else {
      std::fputs("no candidate beats the baseline\n", io.out);
    }

    if (!json_path->empty()) {
      if (*json_path == "-") {
        std::fputs(result.json().c_str(), io.out);
      } else {
        write_file(*json_path, result.json());
      }
    }

    if (!emit_best->empty()) {
      if (const analysis::RankedCandidate* best = result.best()) {
        write_file(*emit_best, best->candidate.rules_text);
        std::fprintf(io.err, "tdtune: wrote %s (%s)\n", emit_best->c_str(),
                     best->candidate.name.c_str());
      } else {
        std::fprintf(io.err,
                     "tdtune: no candidate beats the baseline; not writing "
                     "%s\n",
                     emit_best->c_str());
      }
    }

    const std::string summary = diags.summary();
    if (!summary.empty()) std::fprintf(io.err, "tdtune: %s", summary.c_str());
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
  return tdt::tools::run_tool({"tdtune", "autotune", tdt::tools::tdtune_run},
                              argc, argv);
}
#endif
