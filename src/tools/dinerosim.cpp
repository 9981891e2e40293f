// dinerosim — the modified-DineroIV stand-in: trace-driven cache
// simulation with per-variable / per-function / per-set statistics and
// the trace transformation module.
//
//   dinerosim --trace t.out --size 32768 --block 32 --assoc 1
//   dinerosim --trace t.out --rules soa2aos.rules
//             --xform-out transformed_trace.out --per-set
//   dinerosim --trace huge.tdtb --on-error=skip --max-errors 1000
//
// The trace streams in batches through the transformer and the
// simulator (traces larger than memory work), with the error-recovery
// policy from --on-error; exit code 0 = clean, 1 = completed with
// recovered errors, 2 = fatal (docs/robustness.md).
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>

#include "tdt/tdt.hpp"
#include "tools/cli_common.hpp"
#include "tools/entries.hpp"
#include "tools/obs_support.hpp"

int tdt::tools::dinerosim_run(const tdt::service::ToolIO& io, int argc,
                              char** argv) {
  using namespace tdt;
  {
    FlagParser flags("dinerosim",
                     "trace-driven cache simulator with transformations");
    flags.set_output(io.out);
    const auto* trace_path = flags.add_string("trace", "", "input trace file");
    const auto* rules_path =
        flags.add_string("rules", "", "transformation rule file (optional)");
    const auto* xform_out = flags.add_string(
        "xform-out", "", "write the transformed trace here (default "
                         "transformed_trace.out when --rules is given; a "
                         ".gz name gzips text or din)");
    const auto* per_set =
        flags.add_bool("per-set", false, "print per-set activity table");
    const auto* per_var =
        flags.add_bool("per-var", false, "print per-variable statistics");
    const auto* conflicts =
        flags.add_bool("conflicts", false, "print eviction conflict pairs");
    const auto* gnuplot = flags.add_string(
        "gnuplot", "", "write <prefix>.dat/.gp for plotting");
    const auto* advise =
        flags.add_bool("advise", false, "print transformation suggestions");
    const auto* cores = flags.add_uint(
        "cores", 0, "run a MESI multicore simulation with this many "
                    "private caches instead of the hierarchy (records "
                    "route by thread id)");
    const auto* sweep = flags.add_string(
        "sweep", "", "simulate several configurations in one trace pass: "
                     "';'-separated points of ','-separated key=value "
                     "overrides (size|block|assoc|repl|prefetch), e.g. "
                     "\"assoc=1;assoc=2;size=8k,assoc=4\"");
    const auto* affinity_report = flags.add_string(
        "affinity-report", "",
        "also profile field affinity/heat on the raw (pre-transform) "
        "records and write the report here — a second consumer of the "
        "same ingest, no extra trace pass; combines with any mode");
    const auto* affinity_window = flags.add_uint(
        "affinity-window", 32,
        "co-access reuse window in records for --affinity-report");
    const auto* worker_timeout = flags.add_string(
        "worker-timeout", "0",
        "seconds a --jobs worker may hold one batch before it is declared "
        "stalled and its share is re-simulated sequentially (0 = off; "
        "recovery exits 1)");
    const tools::CacheFlags cache_flags = tools::CacheFlags::add(flags);
    const tools::CommonFlags common = tools::CommonFlags::add(
        flags, {.error_policy = true, .jobs = true, .governor = true,
                .compress = true});
    if (!flags.parse(argc, argv)) return 0;
    if (trace_path->empty()) {
      throw_config_error("--trace is required");
    }
    if (*affinity_window > std::numeric_limits<std::uint32_t>::max()) {
      throw_config_error("--affinity-window must be at most 4294967295");
    }
    if (common.wants_compress() && rules_path->empty()) {
      throw_config_error(
          "--compress shapes the transformed trace; it needs --rules and "
          "an --xform-out ending in .tdtb");
    }
    common.arm_faults();
    Governor governor;
    common.configure(governor);

    std::optional<obs::Registry> registry_store;
    if (common.wants_registry()) registry_store.emplace("dinerosim");
    obs::Registry* registry = registry_store ? &*registry_store : nullptr;

    DiagEngine diags = common.make_diags(io.errs);

    trace::TraceContext ctx;

    // The pipeline is a view graph: source -> [transform] -> terminal
    // simulator sink, with the transformed-trace writer ahead of the
    // simulator on the transform node, and the --progress heartbeat and
    // the affinity profiler reading the raw records next to it.
    std::optional<core::RuleSet> rules;
    if (!rules_path->empty()) {
      obs::PhaseTimer phase(registry, "parse-rules");
      rules = core::parse_rules_file(*rules_path);
      for (const core::RuleDiagnostic& d : rules->validate()) {
        std::fprintf(io.err, "dinerosim: rule %s: %s\n",
                     d.severity == core::RuleDiagnostic::Severity::Error
                         ? "error"
                         : "warning",
                     d.message.c_str());
      }
    }

    // Terminal sink: MESI multicore or the single-core hierarchy.
    std::optional<cache::MesiSystem> mesi;
    std::optional<cache::MultiCoreSim> msim;
    std::optional<cache::CacheHierarchy> hierarchy;
    std::optional<cache::TraceCacheSim> sim;
    cache::PageMapper mapper(cache_flags.parsed_page_policy(),
                             *cache_flags.page_size, *cache_flags.page_frames,
                             *cache_flags.page_seed);

    cache::CacheConfig config = cache_flags.l1_geometry();
    // The single-config run's observers, built once its hierarchy has
    // validated the L1 they are sized from.
    std::optional<analysis::SetActivityCollector> sets;
    std::optional<analysis::VarStatsCollector> vars;
    std::optional<analysis::ConflictCollector> conf;
    std::optional<analysis::AdjacencyCollector> adj;

    trace::ParallelOptions pipeline_options;
    pipeline_options.jobs = *common.jobs <= 1 ? 0 : *common.jobs;
    pipeline_options.registry = registry;
    pipeline_options.worker_timeout =
        tools::parse_seconds(*worker_timeout, "--worker-timeout");
    pipeline_options.memory = &governor.memory;

    std::optional<cache::ParallelSweep> sweep_engine;
    std::optional<trace::ParallelFanOut> fanout;
    trace::TraceSink* terminal = nullptr;
    if (!sweep->empty()) {
      if (*cores != 0 || *per_set || *per_var || *conflicts || *advise ||
          !gnuplot->empty()) {
        throw_config_error(
            "--sweep cannot be combined with --cores, --per-set, --per-var, "
            "--conflicts, --advise, or --gnuplot");
      }
      std::vector<std::string> warnings;
      sweep_engine.emplace(
          cache::parse_sweep_spec(*sweep, cache_flags.l1(),
                                  cache_flags.extra_levels(), &warnings),
          cache_flags.sim_options(), cache_flags.page_spec());
      tools::print_warnings(io.err, "dinerosim", warnings);
      fanout.emplace(sweep_engine->sinks(), pipeline_options);
      terminal = &*fanout;
    } else if (*cores != 0) {
      if (*common.jobs > 1) {
        throw_config_error("--cores routes records by thread id and cannot "
                           "run with --jobs > 1");
      }
      mesi.emplace(config, static_cast<std::uint32_t>(*cores));
      msim.emplace(*mesi, ctx);
      terminal = &*msim;
    } else {
      config = cache_flags.l1();  // --gnuplot labels carry the policies
      std::vector<cache::CacheConfig> levels{config};
      for (cache::CacheConfig& level : cache_flags.extra_levels()) {
        levels.push_back(std::move(level));
      }
      hierarchy.emplace(std::move(levels));
      cache::SimOptions sim_options = cache_flags.sim_options();
      if (mapper.policy() != cache::PagePolicy::Identity) {
        sim_options.page_mapper = &mapper;
      }
      sim.emplace(*hierarchy, sim_options);
      if (*per_set || !gnuplot->empty()) {
        sim->add_observer(&sets.emplace(ctx, config.num_sets()));
      }
      if (*per_var || *advise) sim->add_observer(&vars.emplace(ctx));
      if (*conflicts || *advise) sim->add_observer(&conf.emplace(ctx));
      if (*advise) sim->add_observer(&adj.emplace(ctx, config.block_size));
      terminal = &*sim;
      if (*common.jobs > 1) {
        // Single-config pipeline: one worker simulates while the reader
        // parses the next batch. Output is identical to the inline run.
        fanout.emplace(std::vector<trace::TraceSink*>{&*sim},
                       pipeline_options);
        terminal = &*fanout;
      }
    }

    trace::ViewSourceOptions source_options;
    source_options.diags = &diags;
    source_options.jobs = static_cast<int>(*common.jobs);
    const trace::View source =
        trace::View::source(ctx, *trace_path, source_options);
    // Optional transformation stage in front of the terminal sink; the
    // transformed trace is written in the format its name picks.
    trace::View simulated = source;
    std::optional<core::TransformStats> tstats;
    const std::string xform_path =
        xform_out->empty() ? "transformed_trace.out" : *xform_out;
    const trace::TraceFormat xform_format =
        trace::guess_trace_format(xform_path);
    if (rules.has_value()) {
      if (common.wants_compress() &&
          xform_format != trace::TraceFormat::Tdtb) {
        throw_config_error(
            "--compress applies to TDTB output; name the transformed "
            "trace *.tdtb (--xform-out x.tdtb)");
      }
      core::TransformOptions xopt;
      xopt.diags = &diags;
      simulated = source.transform(*rules, xopt, &tstats.emplace());
    }

    std::optional<tools::HeartbeatSink> progress;
    if (*common.progress) progress.emplace("dinerosim", *io.errs);

    // Optional second consumer of the same ingest: the affinity profiler
    // taps the raw records next to the simulation chain — a two-sink
    // view graph instead of a second pass over the trace. With --jobs > 1
    // it runs on a worker of its own, off the evaluating thread. Its
    // queue holds source batches, so it is half the default depth: deep
    // enough that the evaluating thread rarely waits on it under CPU
    // contention, shallow enough to keep peak RSS near the inline run's.
    std::optional<analysis::AffinityCollector> affinity;
    std::optional<trace::ParallelFanOut> affinity_fanout;
    trace::TraceSink* affinity_sink = nullptr;
    if (!affinity_report->empty()) {
      analysis::AffinityOptions profile_options;
      profile_options.window = static_cast<std::uint32_t>(*affinity_window);
      affinity_sink = &affinity.emplace(ctx, profile_options);
      if (*common.jobs > 1) {
        trace::ParallelOptions affinity_options = pipeline_options;
        affinity_options.jobs = 1;
        affinity_options.queue_batches = 4;
        affinity_options.family = "affinity";
        affinity_options.first_lane =
            static_cast<std::uint32_t>(*common.jobs) + 1;
        affinity_sink = &affinity_fanout.emplace(
            std::vector<trace::TraceSink*>{affinity_sink}, affinity_options);
      }
    }

    trace::GraphResult stream_result;
    {
      obs::PhaseTimer phase(registry, "stream");
      // The writer takes each transformed batch before the simulator does,
      // and ends before it. A run that fails removes the partial file.
      std::optional<trace::TraceOutput> xform_output;
      if (tstats.has_value()) {
        xform_output.emplace(xform_path, xform_format, nullptr);
      }
      try {
        std::optional<trace::TraceWriter> xform_writer;
        if (xform_output.has_value()) {
          xform_writer.emplace(xform_format, ctx, xform_output->stream(), 0,
                               common.writer_options(), registry);
        }
        trace::Graph graph;
        if (progress.has_value()) graph.add_sink(source, *progress);
        if (xform_writer.has_value()) graph.add_sink(simulated, *xform_writer);
        graph.add_sink(simulated, *terminal);
        if (affinity_sink != nullptr) graph.add_sink(source, *affinity_sink);
        stream_result =
            graph.run({.registry = registry, .governor = &governor});
        if (xform_writer.has_value()) xform_writer->fold_metrics();
        if (xform_output.has_value()) xform_output->finish();
      } catch (...) {
        if (xform_output.has_value()) xform_output->discard();
        throw;
      }
    }
    if (stream_result.deadline_hit) {
      std::fprintf(io.err,
                   "dinerosim: deadline expired after %llu records; "
                   "results below cover that prefix only\n",
                   static_cast<unsigned long long>(stream_result.records));
    }

    if (tstats.has_value()) {
      std::fprintf(io.err,
                   "dinerosim: transformed %llu records (%llu rewritten, "
                   "%llu inserted, %llu passthrough, %llu skipped)\n",
                   static_cast<unsigned long long>(tstats->records_out),
                   static_cast<unsigned long long>(tstats->rewritten),
                   static_cast<unsigned long long>(tstats->inserted),
                   static_cast<unsigned long long>(tstats->passthrough),
                   static_cast<unsigned long long>(tstats->skipped));
    }

    if (affinity.has_value()) {
      write_file(*affinity_report, affinity->report());
      std::fprintf(io.err,
                   "dinerosim: wrote affinity report for %llu records to %s\n",
                   static_cast<unsigned long long>(affinity->records_seen()),
                   affinity_report->c_str());
    }

    obs::PhaseTimer report_phase(registry, "report");
    if (sweep_engine.has_value()) {
      std::fputs(sweep_engine->report().c_str(), io.out);
    } else if (msim.has_value()) {
      std::fputs(msim->report().c_str(), io.out);
    } else {
      std::fputs(hierarchy->report().c_str(), io.out);
      if (*per_set) {
        std::fputs(analysis::set_table(*sets, sets->variables()).c_str(),
                   io.out);
      }
      if (*per_var) std::fputs(vars->report().c_str(), io.out);
      if (*conflicts) std::fputs(conf->report().c_str(), io.out);
      if (*advise) {
        std::fputs(analysis::render(analysis::advise(*vars, *conf, {}, &*adj))
                       .c_str(),
                   io.out);
      }
      if (!gnuplot->empty()) {
        analysis::write_gnuplot(*sets, sets->variables(), *gnuplot,
                                config.describe());
        std::fprintf(io.err, "dinerosim: wrote %s.dat and %s.gp\n",
                     gnuplot->c_str(), gnuplot->c_str());
      }
    }

    report_phase.stop();

    bool degraded = stream_result.deadline_hit;
    std::size_t stalled = 0;
    std::size_t recovered = 0;
    for (const auto* fan : {&fanout, &affinity_fanout}) {
      if (!fan->has_value()) continue;
      const trace::PipelineCounters& fc = (*fan)->counters();
      std::fputs(fc.summary().c_str(), io.err);
      stalled += fc.stalled_workers;
      recovered += fc.recovered_workers;
    }
    if (recovered > 0) {
      // Stalls are caught while the reader waits on a worker (P001);
      // throws and premature exits surface at join (P002). Either way
      // the replay restored full results, so these are warnings — but
      // the run was degraded, and finalize_exit floors the code at 1.
      const std::string tail =
          " worker(s) by sequential re-simulation; results are complete";
      if (stalled > 0) {
        diags.report(DiagSeverity::Warning, DiagCode::PipeWorkerStalled,
                     "recovered " + std::to_string(stalled) + " stalled" +
                         tail);
      }
      if (recovered > stalled) {
        diags.report(DiagSeverity::Warning, DiagCode::PipeWorkerFailed,
                     "recovered " + std::to_string(recovered - stalled) +
                         " failed" + tail);
      }
      degraded = true;
    }
    const std::string summary = diags.summary();
    if (!summary.empty()) {
      std::fprintf(io.err, "dinerosim: %s", summary.c_str());
    }

    if (registry != nullptr) {
      tools::fold_diags(registry, diags);
      if (tstats.has_value()) tools::fold_transform(registry, *tstats);
      if (sweep_engine.has_value()) {
        tools::fold_sweep(registry, *sweep_engine);
        registry->counter("sim.records_simulated")
            .add(sweep_engine->sim(0).records_simulated());
      } else if (sim.has_value()) {
        tools::fold_hierarchy(registry, *hierarchy);
        registry->counter("sim.records_simulated")
            .add(sim->records_simulated());
      }
      governor.fold(registry);
      common.write(*registry);
    }
    return tools::finalize_exit(diags.exit_code(), degraded);
  }
}

#ifndef TDT_TOOL_LIBRARY
int main(int argc, char** argv) {
  return tdt::tools::run_tool(
      {"dinerosim", "sweep", tdt::tools::dinerosim_run}, argc, argv);
}
#endif
