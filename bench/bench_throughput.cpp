// Microbenchmarks (google-benchmark): throughput of every pipeline stage —
// tracing, text/binary parse and write, cache simulation, transformation,
// and layout queries. Rates are reported as records (or lines) per second
// via the Items counter.
//
// With --jobs N the binary switches to the parallel-pipeline harness
// instead: a synthetic multi-million-record trace is swept over 8 cache
// configurations once sequentially and once through the N-worker one-pass
// pipeline, the two reports are compared byte for byte, and the aggregate
// simulation throughput plus speedup are printed.
//
//   bench_throughput --jobs 4 [--records 10000000] [--batch 4096]
//                    [--queue-depth 8]
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "cache/hierarchy.hpp"
#include "cache/sim.hpp"
#include "cache/sweep.hpp"
#include "core/rule_parser.hpp"
#include "core/transformer.hpp"
#include "layout/path.hpp"
#include "trace/binary.hpp"
#include "trace/parallel.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"
#include "tracer/interp.hpp"
#include "tracer/kernels.hpp"
#include "util/flags.hpp"

namespace {

using namespace tdt;

constexpr std::int64_t kLen = 1024;

struct SharedTrace {
  layout::TypeTable types;
  trace::TraceContext ctx;
  std::vector<trace::TraceRecord> records;
  std::string text;
  std::vector<char> blob;

  SharedTrace() {
    records = tracer::run_program(types, ctx, tracer::make_t1_soa(types, kLen));
    text = trace::write_trace_string(ctx, records);
    blob = trace::write_binary_trace(ctx, records);
  }
};

SharedTrace& shared() {
  static SharedTrace instance;
  return instance;
}

// What gtracer pays besides its writer: the interpreter streaming its
// batches into a sink that only counts them.
void BM_TracerEmit(benchmark::State& state) {
  for (auto _ : state) {
    layout::TypeTable types;
    trace::TraceContext ctx;
    trace::NullSink sink;
    tracer::Interpreter interp(types, ctx, sink);
    interp.run(tracer::make_t1_soa(types, kLen));
    benchmark::DoNotOptimize(sink.count());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(sink.count()));
  }
}
BENCHMARK(BM_TracerEmit);

void BM_TextParse(benchmark::State& state) {
  SharedTrace& s = shared();
  for (auto _ : state) {
    trace::TraceContext ctx;
    const auto records = trace::read_trace_string(ctx, s.text);
    benchmark::DoNotOptimize(records.data());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(records.size()));
  }
}
BENCHMARK(BM_TextParse);

// The text block encoder alone: every record formatted, each full block
// dropped where a writer would hand it to its stream.
void BM_TextWrite(benchmark::State& state) {
  SharedTrace& s = shared();
  trace::TextEncoder encoder(s.ctx);
  for (auto _ : state) {
    for (const trace::TraceRecord& rec : s.records) {
      encoder.record(rec);
      if (encoder.full()) {
        benchmark::DoNotOptimize(encoder.bytes().data());
        benchmark::ClobberMemory();
        encoder.clear();
      }
    }
    benchmark::DoNotOptimize(encoder.bytes().data());
    benchmark::ClobberMemory();
    encoder.clear();
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(s.records.size()));
  }
}
BENCHMARK(BM_TextWrite);

void BM_BinaryParse(benchmark::State& state) {
  SharedTrace& s = shared();
  for (auto _ : state) {
    trace::TraceContext ctx;
    const auto records = trace::read_binary_trace(ctx, s.blob);
    benchmark::DoNotOptimize(records.data());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(records.size()));
  }
}
BENCHMARK(BM_BinaryParse);

void BM_BinaryWrite(benchmark::State& state) {
  SharedTrace& s = shared();
  for (auto _ : state) {
    const auto blob = trace::write_binary_trace(s.ctx, s.records);
    benchmark::DoNotOptimize(blob.data());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(s.records.size()));
  }
}
BENCHMARK(BM_BinaryWrite);

// The eight points of perfbench's sweep8 workload (SWEEP8 in
// perfbench/run.py), on a t1 trace that leaves L1: LEN 65536 is 524,292
// records over 768 KiB of arrays. The argument is the point's index.
constexpr const char* kSweep8 =
    "assoc=1;assoc=2;assoc=4;assoc=8;size=8k;size=16k;size=64k;block=64";
constexpr std::int64_t kSweepLen = 65536;

const std::vector<trace::TraceRecord>& sweep_records() {
  static const std::vector<trace::TraceRecord> records = [] {
    layout::TypeTable types;
    trace::TraceContext ctx;
    return tracer::run_program(types, ctx,
                               tracer::make_t1_soa(types, kSweepLen));
  }();
  return records;
}

void BM_CacheSim(benchmark::State& state) {
  const std::vector<trace::TraceRecord>& records = sweep_records();
  const cache::SweepPoint point = cache::parse_sweep_spec(
      kSweep8, cache::CacheConfig{})[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    cache::CacheHierarchy hierarchy(point.levels);
    cache::TraceCacheSim sim(hierarchy);
    sim.simulate(records);
    benchmark::DoNotOptimize(hierarchy.l1().stats().misses());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(records.size()));
  }
  state.SetLabel(point.label());
}
BENCHMARK(BM_CacheSim)->DenseRange(0, 7);

void BM_Transform(benchmark::State& state) {
  SharedTrace& s = shared();
  const core::RuleSet rules = core::parse_rules(
      "in:\nstruct lSoA { int mX[" + std::to_string(kLen) +
      "]; double mY[" + std::to_string(kLen) +
      "]; };\nout:\nstruct lAoS { int mX; double mY; }[" +
      std::to_string(kLen) + "];\n");
  for (auto _ : state) {
    const auto out = core::transform_trace(rules, s.ctx, s.records);
    benchmark::DoNotOptimize(out.data());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(s.records.size()));
  }
}
BENCHMARK(BM_Transform);

void BM_LayoutResolve(benchmark::State& state) {
  layout::TypeTable types;
  const auto inner = types.define_struct(
      "Inner", {{"y", types.double_type()},
                {"z", types.array_of(types.int_type(), 4)}});
  const auto outer = types.array_of(
      types.define_struct("Outer",
                          {{"hot", types.int_type()}, {"cold", inner}}),
      64);
  layout::Path path;
  path.push_back(layout::PathStep::make_index(17));
  path.push_back(layout::PathStep::make_field("cold"));
  path.push_back(layout::PathStep::make_field("z"));
  path.push_back(layout::PathStep::make_index(3));
  for (auto _ : state) {
    const auto r = layout::resolve_path(types, outer, {path.data(), path.size()});
    benchmark::DoNotOptimize(r.offset);
    state.SetItemsProcessed(state.items_processed() + 1);
  }
}
BENCHMARK(BM_LayoutResolve);

void BM_RuleParse(benchmark::State& state) {
  const std::string text =
      "in:\nstruct lSoA { int mX[16]; double mY[16]; };\n"
      "out:\nstruct lAoS { int mX; double mY; }[16];\n";
  for (auto _ : state) {
    const core::RuleSet rules = core::parse_rules(text);
    benchmark::DoNotOptimize(rules.rules().size());
    state.SetItemsProcessed(state.items_processed() + 1);
  }
}
BENCHMARK(BM_RuleParse);

// --- parallel-pipeline harness (bench_throughput --jobs N) -----------------

/// Deterministic synthetic record: a pure function of its index, so the
/// trace never has to be materialized. Two thirds of the accesses walk an
/// 8 MiB region sequentially; one third jump pseudo-randomly inside
/// 64 MiB; ~30% are stores.
trace::TraceRecord synth_record(std::uint64_t i, Symbol fn) {
  std::uint64_t h = (i + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  trace::TraceRecord rec;
  if (h % 3 != 0) {
    rec.address = 0x10000000ULL + (i * 8) % (8ULL << 20);
  } else {
    rec.address = 0x10000000ULL + (h >> 8) % (64ULL << 20);
  }
  rec.kind = h % 10 < 7 ? trace::AccessKind::Load : trace::AccessKind::Store;
  rec.size = 8;
  rec.function = fn;
  return rec;
}

std::vector<cache::SweepPoint> harness_grid() {
  std::vector<cache::SweepPoint> points;
  for (std::uint64_t size : {16384ull, 32768ull}) {
    for (std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
      cache::CacheConfig cfg;
      cfg.size = size;
      cfg.block_size = 64;
      cfg.assoc = assoc;
      points.push_back(cache::SweepPoint{{cfg}});
    }
  }
  return points;
}

struct HarnessResult {
  std::string report;
  trace::PipelineCounters counters;
  double seconds = 0;
};

HarnessResult run_pipeline(std::uint64_t records, std::size_t jobs,
                           std::size_t batch, std::size_t queue_depth) {
  trace::TraceContext ctx;
  const Symbol fn = ctx.intern("synth");
  cache::ParallelSweep sweep(harness_grid());
  trace::ParallelOptions options;
  options.jobs = jobs <= 1 ? 0 : jobs;
  options.batch_records = batch;
  options.queue_batches = queue_depth;
  const auto start = std::chrono::steady_clock::now();
  {
    trace::ParallelFanOut fanout(sweep.sinks(), options);
    std::vector<trace::TraceRecord> chunk;
    chunk.reserve(batch);
    for (std::uint64_t i = 0; i < records; ++i) {
      chunk.push_back(synth_record(i, fn));
      if (chunk.size() == batch) {
        fanout.push_batch(chunk);
        chunk.clear();
      }
    }
    if (!chunk.empty()) fanout.push_batch(chunk);
    fanout.on_end();
    HarnessResult result;
    result.report = sweep.report();
    result.counters = fanout.counters();
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
  }
}

int pipeline_harness(int argc, char** argv) {
  FlagParser flags("bench_throughput", "parallel one-pass pipeline harness");
  const auto* jobs = flags.add_uint("jobs", 4, "pipeline worker threads");
  const auto* records = flags.add_uint(
      "records", 10'000'000, "synthetic records to stream");
  const auto* batch = flags.add_uint("batch", 4096, "records per batch");
  const auto* queue_depth =
      flags.add_uint("queue-depth", 8, "per-worker queue capacity (batches)");
  if (!flags.parse(argc, argv)) return 0;

  const std::size_t points = harness_grid().size();
  std::printf("pipeline harness: %llu records x %zu configurations\n",
              static_cast<unsigned long long>(*records), points);

  const HarnessResult seq =
      run_pipeline(*records, 1, *batch, *queue_depth);
  const double seq_rate =
      static_cast<double>(*records * points) / seq.seconds;
  std::printf("sequential (inline): %.3f s, %.2f Mrec/s aggregate\n",
              seq.seconds, seq_rate / 1e6);

  const HarnessResult par =
      run_pipeline(*records, *jobs, *batch, *queue_depth);
  const double par_rate =
      static_cast<double>(*records * points) / par.seconds;
  std::printf("pipelined (--jobs %llu): %.3f s, %.2f Mrec/s aggregate "
              "(speedup %.2fx)\n",
              static_cast<unsigned long long>(*jobs), par.seconds,
              par_rate / 1e6, seq.seconds / par.seconds);
  std::fputs(par.counters.summary().c_str(), stdout);

  if (seq.report != par.report) {
    std::puts("ERROR: parallel sweep report differs from sequential run!");
    std::fputs(seq.report.c_str(), stdout);
    std::fputs(par.report.c_str(), stdout);
    return 1;
  }
  std::puts("stats reports byte-identical across job counts");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // `--jobs` selects the pipeline harness; everything else goes to
  // google-benchmark (which would otherwise reject the flag).
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs", 6) == 0) {
      return pipeline_harness(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
