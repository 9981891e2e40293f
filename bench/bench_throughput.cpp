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
//
// With --perf-report FILE the binary instead times the PR 3 fast paths
// against their reference implementations on a T1 trace — zero-copy ASCII
// read vs the diagnostic-rich slow parse, plan-cached transform vs the
// uncached slow path, plus raw simulation throughput — verifies that fast
// and reference outputs are byte-identical, and writes the rates and
// speedups to FILE as JSON:
//
//   bench_throughput --perf-report BENCH_PR3.json [--len 16384] [--repeat 5]
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cache/hierarchy.hpp"
#include "cache/sim.hpp"
#include "cache/sweep.hpp"
#include "core/rule_parser.hpp"
#include "core/transformer.hpp"
#include "layout/path.hpp"
#include "trace/binary.hpp"
#include "trace/parallel.hpp"
#include "trace/reader.hpp"
#include "trace/sink.hpp"
#include "trace/view.hpp"
#include "trace/writer.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "tools/cli_common.hpp"
#include "tools/entries.hpp"
#include "tracer/interp.hpp"
#include "tracer/kernels.hpp"
#include "trace/source.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/obs.hpp"
#include "util/simd_scan.hpp"

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

void BM_TracerEmit(benchmark::State& state) {
  for (auto _ : state) {
    layout::TypeTable types;
    trace::TraceContext ctx;
    const auto records =
        tracer::run_program(types, ctx, tracer::make_t1_soa(types, kLen));
    benchmark::DoNotOptimize(records.data());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(records.size()));
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

void BM_TextWrite(benchmark::State& state) {
  SharedTrace& s = shared();
  for (auto _ : state) {
    const std::string text = trace::write_trace_string(s.ctx, s.records);
    benchmark::DoNotOptimize(text.data());
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

void BM_CacheSim(benchmark::State& state) {
  SharedTrace& s = shared();
  cache::CacheConfig cfg = cache::paper_direct_mapped();
  cfg.assoc = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    cache::CacheHierarchy hierarchy(cfg);
    cache::TraceCacheSim sim(hierarchy);
    sim.simulate(s.records);
    benchmark::DoNotOptimize(hierarchy.l1().stats().misses());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(s.records.size()));
  }
}
BENCHMARK(BM_CacheSim)->Arg(1)->Arg(8)->Arg(64);

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

// --- machine-readable perf report (bench_throughput --perf-report) ---------

/// Best-of-`repeat` throughput of `fn` in items per second. Best-of (not
/// mean) because the interesting number is the rate with the least noise.
template <typename Fn>
double best_rate(std::uint64_t items, std::uint64_t repeat, Fn&& fn) {
  double best = 0;
  for (std::uint64_t r = 0; r < repeat; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (secs > 0) best = std::max(best, static_cast<double>(items) / secs);
  }
  return best;
}

std::vector<trace::TraceRecord> drain_reader(trace::GleipnirReader& reader) {
  std::vector<trace::TraceRecord> records;
  while (auto ev = reader.next()) {
    if (ev->kind == trace::TraceEvent::Kind::Record) {
      records.push_back(std::move(ev->record));
    }
  }
  return records;
}

std::vector<trace::TraceRecord> read_via_source(trace::TraceContext& ctx,
                                                const std::string& path,
                                                trace::IngestMode mode,
                                                std::size_t reserve = 0) {
  trace::GleipnirReader reader(ctx,
                               trace::open_trace_byte_source(path, mode));
  std::vector<trace::TraceRecord> records;
  records.reserve(reserve + 4096);
  while (reader.next_batch(records, 4096) != 0) {
  }
  return records;
}

/// Record-counting sink: decode throughput without sink-side work.
class CountingSink final : public trace::TraceSink {
 public:
  void on_record(const trace::TraceRecord&) override { ++n_; }
  void push_batch(std::span<const trace::TraceRecord> batch) override {
    n_ += batch.size();
  }
  void on_end() override {}
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }

 private:
  std::uint64_t n_ = 0;
};

/// TDTB v3 container rows: per-codec compressed size and sequential vs
/// parallel (--jobs 4) decode rate, with the jobs-4 ≡ jobs-1 ≡ source
/// identity check re-encoded to a plain v2 blob (cheap byte compare).
/// Returns false when any identity check fails.
bool container_rows(obs::Registry& registry, std::uint64_t repeat) {
  obs::PhaseTimer phase(&registry, "bench-container");
  constexpr std::uint64_t kRecords = 2'000'000;
  constexpr int kJobs = 4;
  trace::TraceContext ctx;
  const Symbol fn = ctx.intern("synth");
  std::vector<trace::TraceRecord> records;
  records.reserve(kRecords);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    records.push_back(synth_record(i, fn));
  }
  const auto plain = trace::write_binary_trace(ctx, records);
  registry.counter("container.records").add(kRecords);
  registry.gauge("container.jobs").set(kJobs);
  registry.gauge("container.plain_bytes")
      .set(static_cast<double>(plain.size()));

  bool all_identical = true;
  double best_par = 0;
  for (const trace::Codec codec :
       {trace::Codec::None, trace::Codec::Zstd, trace::Codec::Lz4}) {
    const std::string name(trace::codec_name(codec));
    const std::string key = "container." + name;
    registry.gauge(key + ".codec_id")
        .set(static_cast<double>(static_cast<std::uint8_t>(codec)));
    if (!trace::codec_available(codec)) {
      registry.gauge(key + ".available").set(0);
      std::printf("container %-4s: codec unavailable; row skipped\n",
                  name.c_str());
      continue;
    }
    registry.gauge(key + ".available").set(1);
    trace::BinaryWriterOptions options;
    options.version = trace::kTdtbVersionFramed;
    options.codec = codec;
    std::vector<char> blob;
    const double write_rate = best_rate(kRecords, repeat, [&] {
      blob = trace::write_binary_trace(ctx, records, 0, options);
      benchmark::DoNotOptimize(blob.data());
    });
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("tdt_bench_container_" + name + ".tdtb"))
            .string();
    {
      std::ofstream out(path, std::ios::binary);
      out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    }
    const auto info = trace::probe_tdtb({blob.data(), blob.size()});
    const double frames =
        info && info->has_index ? static_cast<double>(info->frames.size()) : 0;

    const auto decode_rate = [&](int jobs) {
      return best_rate(kRecords, repeat, [&] {
        trace::TraceContext c;
        CountingSink sink;
        benchmark::DoNotOptimize(
            trace::View::source(c, path, {.jobs = jobs}).drain(sink).records);
      });
    };
    const double seq_rate = decode_rate(1);
    const double par_rate = decode_rate(kJobs);

    bool identical;
    {
      trace::TraceContext c1;
      trace::TraceContext c4;
      trace::VectorSink s1;
      trace::VectorSink s4;
      (void)trace::View::source(c1, path, {.jobs = 1}).drain(s1);
      (void)trace::View::source(c4, path, {.jobs = kJobs}).drain(s4);
      const auto b1 = trace::write_binary_trace(c1, s1.records());
      const auto b4 = trace::write_binary_trace(c4, s4.records());
      identical = b1 == b4 && b1 == plain;
    }
    std::filesystem::remove(path);
    all_identical = all_identical && identical;
    best_par = std::max(best_par, par_rate);

    const double ratio =
        blob.empty() ? 0
                     : static_cast<double>(plain.size()) /
                           static_cast<double>(blob.size());
    std::printf("container %-4s: %8.2f MB (%5.2fx), write %12.0f rec/s, "
                "decode %12.0f rec/s seq, %12.0f rec/s --jobs %d (%.2fx)%s\n",
                name.c_str(), static_cast<double>(blob.size()) / 1e6, ratio,
                write_rate, seq_rate, par_rate, kJobs,
                seq_rate > 0 ? par_rate / seq_rate : 0,
                identical ? "" : "  OUTPUT MISMATCH");
    registry.gauge(key + ".bytes").set(static_cast<double>(blob.size()));
    registry.gauge(key + ".ratio").set(ratio);
    registry.gauge(key + ".frames").set(frames);
    registry.gauge(key + ".write_records_per_s").set(write_rate);
    registry.gauge(key + ".seq_records_per_s").set(seq_rate);
    registry.gauge(key + ".par_records_per_s").set(par_rate);
    registry.gauge(key + ".par_speedup")
        .set(seq_rate > 0 ? par_rate / seq_rate : 0);
    registry.gauge(key + ".identical").set(identical ? 1 : 0);
  }
  registry.gauge("container.best_par_records_per_s").set(best_par);
  return all_identical;
}

/// The daemon-side sweep op, registered exactly as tdtd registers it:
/// the dinerosim tool body under the run_tool_body exit contract.
service::OpHandler sweep_op() {
  service::OpHandler handler;
  handler.op = std::string(service::kOpSweep);
  handler.input_flags = {"trace"};
  handler.bool_flags = {"per-set", "per-var", "conflicts", "advise",
                        "modify-read-write", "progress"};
  handler.run = [](const service::ToolIO& io,
                   const std::vector<std::string>& args) {
    std::vector<std::string> storage;
    storage.reserve(args.size() + 1);
    storage.emplace_back("dinerosim");
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    argv.reserve(storage.size());
    for (std::string& s : storage) argv.push_back(s.data());
    return tools::run_tool_body("dinerosim", io, [&] {
      return tools::dinerosim_run(io, static_cast<int>(argv.size()),
                                  argv.data());
    });
  };
  return handler;
}

/// tdtd service rows: an in-process daemon on a temp socket serving the
/// real dinerosim sweep body over tdt-rpc/1. Times a 20-point sweep
/// cold (distinct memo keys, each request genuinely simulates) and
/// memo-warm (identical repeats), plus the sustained warm request rate
/// on one connection. The warm replies must carry the cold run's exact
/// bytes — that identity gates the report like every other row.
bool service_rows(obs::Registry& registry, const std::string& text,
                  std::uint64_t repeat) {
  obs::PhaseTimer phase(&registry, "bench-service");
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string trace_path = (tmp / "tdt_bench_service.trace").string();
  const std::string socket_path = (tmp / "tdt_bench_service.sock").string();
  {
    std::ofstream out(trace_path, std::ios::binary);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }

  service::DaemonConfig config;
  config.socket_path = socket_path;
  config.workers = 2;
  config.queue_capacity = 16;
  config.memo_bytes = 64ull << 20;
  service::Daemon daemon(config);
  daemon.register_op(sweep_op());
  daemon.start();

  // 20 configurations: 5 sizes x 4 associativities.
  std::string sweep;
  for (const char* size : {"4k", "8k", "16k", "32k", "64k"}) {
    for (const int assoc : {1, 2, 4, 8}) {
      if (!sweep.empty()) sweep.push_back(';');
      sweep += "size=";
      sweep += size;
      sweep += ",assoc=" + std::to_string(assoc);
    }
  }
  constexpr int kSweepPoints = 20;
  const std::vector<std::string> base_args = {"--trace", trace_path,
                                              "--sweep", sweep};

  bool all_ok = true;
  bool warm_hit = true;
  bool warm_identical = true;
  double cold_us = 0;
  double warm_us = 0;
  double warm_req_s = 0;
  try {
    service::Session session(socket_path);

    // Cold: each probe varies --max-errors, so it owns a distinct memo
    // key and genuinely runs the sweep. Best-of, like every other row.
    double best_cold = 0;
    for (std::uint64_t r = 0; r < repeat; ++r) {
      std::vector<std::string> args = base_args;
      args.emplace_back("--max-errors");
      args.push_back(std::to_string(1000 + r));
      const auto start = std::chrono::steady_clock::now();
      const service::Reply reply = session.call(service::kOpSweep, args);
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      all_ok = all_ok && reply.ok() && reply.exit_code == 0 &&
               !reply.memo_hit;
      if (secs > 0) best_cold = std::max(best_cold, 1.0 / secs);
    }
    cold_us = best_cold > 0 ? 1e6 / best_cold : 0;

    // Warm: the identical request repeated must be answered from the
    // memo with the cold run's exact bytes.
    const service::Reply cold_reply =
        session.call(service::kOpSweep, base_args);
    all_ok = all_ok && cold_reply.ok() && cold_reply.exit_code == 0;
    double best_warm = 0;
    for (std::uint64_t r = 0; r < repeat; ++r) {
      const auto start = std::chrono::steady_clock::now();
      const service::Reply reply =
          session.call(service::kOpSweep, base_args);
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      warm_hit = warm_hit && reply.memo_hit;
      warm_identical = warm_identical && reply.out == cold_reply.out &&
                       reply.err == cold_reply.err &&
                       reply.exit_code == cold_reply.exit_code;
      if (secs > 0) best_warm = std::max(best_warm, 1.0 / secs);
    }
    warm_us = best_warm > 0 ? 1e6 / best_warm : 0;

    // Sustained memo-warm request rate over one connection.
    constexpr int kWarmCalls = 200;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kWarmCalls; ++i) {
      const service::Reply reply =
          session.call(service::kOpSweep, base_args);
      all_ok = all_ok && reply.ok();
      warm_hit = warm_hit && reply.memo_hit;
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    warm_req_s = secs > 0 ? kWarmCalls / secs : 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "service rows failed: %s\n", e.what());
    all_ok = false;
  }

  daemon.request_shutdown();
  daemon.wait();
  std::filesystem::remove(trace_path);

  const double cold_req_s = cold_us > 0 ? 1e6 / cold_us : 0;
  std::printf("service:   sweep(%dpt) %10.0f us cold (%.1f req/s), "
              "%8.0f us warm, %10.0f req/s memo-warm%s%s\n",
              kSweepPoints, cold_us, cold_req_s, warm_us, warm_req_s,
              warm_hit ? "" : "  MEMO MISS",
              warm_identical ? "" : "  OUTPUT MISMATCH");
  registry.gauge("service.sweep_points").set(kSweepPoints);
  registry.gauge("service.cold_sweep_latency_us").set(cold_us);
  registry.gauge("service.warm_sweep_latency_us").set(warm_us);
  registry.gauge("service.cold_sweep_requests_per_s").set(cold_req_s);
  registry.gauge("service.warm_sweep_requests_per_s").set(warm_req_s);
  registry.gauge("service.memo_warm_hit").set(warm_hit ? 1 : 0);
  registry.gauge("service.warm_identical").set(warm_identical ? 1 : 0);
  return all_ok && warm_hit && warm_identical;
}

int perf_report(int argc, char** argv) {
  FlagParser flags("bench_throughput",
                   "fast-path vs reference perf report (JSON)");
  const auto* out_path =
      flags.add_string("perf-report", "BENCH_PR3.json", "output JSON file");
  const auto* repeat =
      flags.add_uint("repeat", 5, "timing repetitions (best-of)");
  const auto* len = flags.add_uint("len", 16384, "T1 kernel length");
  if (!flags.parse(argc, argv)) return 0;

  obs::Registry registry("bench_throughput");

  layout::TypeTable types;
  trace::TraceContext ctx;
  const auto records = tracer::run_program(
      types, ctx, tracer::make_t1_soa(types, static_cast<std::int64_t>(*len)));
  const std::string text = trace::write_trace_string(ctx, records);
  const std::uint64_t n = records.size();
  std::printf("perf report: %llu-element T1 kernel, %llu records, "
              "best of %llu runs\n",
              static_cast<unsigned long long>(*len),
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(*repeat));

  // ASCII read: zero-copy in-place tokenizer vs the previous pipeline
  // (istringstream + per-line std::vector field split + throwing parser).
  obs::PhaseTimer read_phase(&registry, "bench-read");
  const double read_fast = best_rate(n, *repeat, [&] {
    trace::TraceContext c;
    benchmark::DoNotOptimize(trace::read_trace_string(c, text).data());
  });
  const double read_slow = best_rate(n, *repeat, [&] {
    trace::TraceContext c;
    std::istringstream in{text};
    trace::GleipnirReader reader(c, in);
    reader.force_slow_parse(true);
    benchmark::DoNotOptimize(drain_reader(reader).data());
  });
  bool read_identical;
  {
    trace::TraceContext fast_ctx;
    trace::TraceContext slow_ctx;
    std::istringstream in{text};
    trace::GleipnirReader slow_reader(slow_ctx, in);
    slow_reader.force_slow_parse(true);
    read_identical =
        trace::write_trace_string(fast_ctx,
                                  trace::read_trace_string(fast_ctx, text)) ==
        trace::write_trace_string(slow_ctx, drain_reader(slow_reader));
  }

  // SIMD vs scalar tier: rate with the scanner forced to the portable
  // loop, plus the byte-identity check (the tier must never change what
  // is parsed, only how fast).
  const simd::Tier bench_tier = simd::active_tier();
  simd::set_active_tier(simd::Tier::Scalar);
  const double read_scalar = best_rate(n, *repeat, [&] {
    trace::TraceContext c;
    benchmark::DoNotOptimize(trace::read_trace_string(c, text).data());
  });
  bool simd_identical;
  {
    trace::TraceContext scalar_ctx;
    const std::string scalar_out = trace::write_trace_string(
        scalar_ctx, trace::read_trace_string(scalar_ctx, text));
    simd::set_active_tier(bench_tier);
    trace::TraceContext simd_ctx;
    simd_identical = trace::write_trace_string(
                         simd_ctx, trace::read_trace_string(simd_ctx, text)) ==
                     scalar_out;
  }

  // File-backed ingest backends (mmap slices / overlapped prefetch),
  // timed end to end through the batched reader.
  const std::string trace_path =
      (std::filesystem::temp_directory_path() / "tdt_bench_ingest.trace")
          .string();
  {
    std::ofstream out(trace_path, std::ios::binary);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }
  const double read_mmap = best_rate(n, *repeat, [&] {
    trace::TraceContext c;
    benchmark::DoNotOptimize(
        read_via_source(c, trace_path, trace::IngestMode::Mmap, n).data());
  });
  const double read_overlapped = best_rate(n, *repeat, [&] {
    trace::TraceContext c;
    benchmark::DoNotOptimize(
        read_via_source(c, trace_path, trace::IngestMode::Overlapped, n).data());
  });
  bool source_identical;
  {
    trace::TraceContext mem_ctx;
    const std::string mem_out = trace::write_trace_string(
        mem_ctx, trace::read_trace_string(mem_ctx, text));
    trace::TraceContext mmap_ctx;
    trace::TraceContext ov_ctx;
    source_identical =
        trace::write_trace_string(
            mmap_ctx,
            read_via_source(mmap_ctx, trace_path, trace::IngestMode::Mmap)) ==
            mem_out &&
        trace::write_trace_string(
            ov_ctx, read_via_source(ov_ctx, trace_path,
                                    trace::IngestMode::Overlapped)) == mem_out;
  }
  // Transparent .gz text ingest (gzip-magic sniff in the byte-source
  // layer), timed through the same batched reader.
  double read_gzip = 0;
  bool gzip_identical = true;
  const bool have_gzip = trace::gzip_available();
  if (have_gzip) {
    std::string gz;
    (void)trace::gzip_compress(text, gz);
    const std::string gz_path = trace_path + ".gz";
    {
      std::ofstream out(gz_path, std::ios::binary);
      out.write(gz.data(), static_cast<std::streamsize>(gz.size()));
    }
    read_gzip = best_rate(n, *repeat, [&] {
      trace::TraceContext c;
      benchmark::DoNotOptimize(
          read_via_source(c, gz_path, trace::IngestMode::Auto, n).data());
    });
    {
      trace::TraceContext mem_ctx;
      trace::TraceContext gz_ctx;
      gzip_identical =
          trace::write_trace_string(
              gz_ctx,
              read_via_source(gz_ctx, gz_path, trace::IngestMode::Auto)) ==
          trace::write_trace_string(mem_ctx,
                                    trace::read_trace_string(mem_ctx, text));
    }
    std::filesystem::remove(gz_path);
  }
  std::filesystem::remove(trace_path);
  read_phase.stop();

  obs::PhaseTimer xform_phase(&registry, "bench-transform");
  // Transform: plan cache vs the reference slow path, same rule set as
  // BM_Transform. Rates are measured on the rule-matched records (the
  // loop scalars around them cost the same passthrough either way and
  // would only dilute the comparison); the identical-output check below
  // still runs the full trace through both paths.
  const core::RuleSet rules = core::parse_rules(
      "in:\nstruct lSoA { int mX[" + std::to_string(*len) +
      "]; double mY[" + std::to_string(*len) +
      "]; };\nout:\nstruct lAoS { int mX; double mY; }[" +
      std::to_string(*len) + "];\n");
  const Symbol in_sym = ctx.intern("lSoA");
  std::vector<trace::TraceRecord> matched;
  for (const trace::TraceRecord& rec : records) {
    if (rec.var.base == in_sym) matched.push_back(rec);
  }
  const std::uint64_t nm = matched.size();
  core::TransformOptions cached;
  core::TransformOptions uncached;
  uncached.plan_cache = false;
  const double xform_fast = best_rate(nm, *repeat, [&] {
    benchmark::DoNotOptimize(
        core::transform_trace(rules, ctx, matched, cached).data());
  });
  const double xform_slow = best_rate(nm, *repeat, [&] {
    benchmark::DoNotOptimize(
        core::transform_trace(rules, ctx, matched, uncached).data());
  });
  core::TransformStats cached_stats;
  const bool xform_identical =
      trace::write_trace_string(
          ctx, core::transform_trace(rules, ctx, records, cached,
                                     &cached_stats)) ==
      trace::write_trace_string(
          ctx, core::transform_trace(rules, ctx, records, uncached));
  xform_phase.stop();

  // Raw simulation throughput (paper's direct-mapped L1).
  obs::PhaseTimer sim_phase(&registry, "bench-simulate");
  const cache::CacheConfig cfg = cache::paper_direct_mapped();
  const double sim_rate = best_rate(n, *repeat, [&] {
    cache::CacheHierarchy hierarchy(cfg);
    cache::TraceCacheSim sim(hierarchy);
    sim.simulate(records);
    benchmark::DoNotOptimize(hierarchy.l1().stats().misses());
  });
  sim_phase.stop();

  const double read_speedup = read_slow > 0 ? read_fast / read_slow : 0;
  const double xform_speedup = xform_slow > 0 ? xform_fast / xform_slow : 0;
  std::printf("read:      %12.0f rec/s fast, %12.0f rec/s slow  (%.2fx)%s\n",
              read_fast, read_slow, read_speedup,
              read_identical ? "" : "  OUTPUT MISMATCH");
  std::printf("read tier: %s; scalar tier %12.0f rec/s%s\n",
              std::string(simd::tier_name(bench_tier)).c_str(), read_scalar,
              simd_identical ? "" : "  SIMD/SCALAR MISMATCH");
  std::printf("ingest:    %12.0f rec/s mmap, %12.0f rec/s overlapped%s\n",
              read_mmap, read_overlapped,
              source_identical ? "" : "  SOURCE MISMATCH");
  if (have_gzip) {
    std::printf("ingest:    %12.0f rec/s gzip text%s\n", read_gzip,
                gzip_identical ? "" : "  GZIP MISMATCH");
  } else {
    std::puts("ingest:    gzip text row skipped (zlib not built in)");
  }
  std::printf("transform: %12.0f rec/s fast, %12.0f rec/s slow  (%.2fx)%s"
              "  [%llu matched records]\n",
              xform_fast, xform_slow, xform_speedup,
              xform_identical ? "" : "  OUTPUT MISMATCH",
              static_cast<unsigned long long>(nm));
  std::printf("simulate:  %12.0f rec/s\n", sim_rate);

  const bool container_identical = container_rows(registry, *repeat);
  const bool service_ok = service_rows(registry, text, *repeat);

  // Emit through the metrics registry: the report file is a standard
  // tdt-metrics/1 snapshot (docs/OBSERVABILITY.md), same schema the CLI
  // tools write with --metrics-json.
  registry.counter("bench.records").add(n);
  registry.counter("bench.matched_records").add(nm);
  registry.gauge("bench.len").set(static_cast<double>(*len));
  registry.gauge("bench.repeat").set(static_cast<double>(*repeat));
  registry.gauge("read.fast_records_per_s").set(read_fast);
  registry.gauge("read.slow_records_per_s").set(read_slow);
  registry.gauge("read.speedup").set(read_speedup);
  registry.gauge("read.identical_output").set(read_identical ? 1 : 0);
  registry.gauge("read.simd_tier").set(static_cast<double>(bench_tier));
  registry.gauge("read.scalar_records_per_s").set(read_scalar);
  registry.gauge("read.simd_scalar_identical").set(simd_identical ? 1 : 0);
  registry.gauge("read.mmap_records_per_s").set(read_mmap);
  registry.gauge("read.mmap_ingest_mode")
      .set(static_cast<double>(trace::IngestMode::Mmap));
  registry.gauge("read.overlapped_records_per_s").set(read_overlapped);
  registry.gauge("read.overlapped_ingest_mode")
      .set(static_cast<double>(trace::IngestMode::Overlapped));
  registry.gauge("read.source_identical").set(source_identical ? 1 : 0);
  registry.gauge("read.gzip_available").set(have_gzip ? 1 : 0);
  registry.gauge("read.gzip_records_per_s").set(read_gzip);
  registry.gauge("read.gzip_identical").set(gzip_identical ? 1 : 0);
  registry.gauge("transform.cached_records_per_s").set(xform_fast);
  registry.gauge("transform.uncached_records_per_s").set(xform_slow);
  registry.gauge("transform.speedup").set(xform_speedup);
  registry.gauge("transform.identical_output").set(xform_identical ? 1 : 0);
  registry.counter("transform.plan_hits").add(cached_stats.plan_hits);
  registry.counter("transform.plan_misses").add(cached_stats.plan_misses);
  registry.gauge("simulate.records_per_s").set(sim_rate);
  try {
    registry.write_metrics_file(*out_path);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("wrote %s\n", out_path->c_str());
  return read_identical && xform_identical && simd_identical &&
                 source_identical && gzip_identical && container_identical &&
                 service_ok
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // `--jobs` selects the pipeline harness and `--perf-report` the JSON
  // perf report; everything else goes to google-benchmark (which would
  // otherwise reject the flags).
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--perf-report", 13) == 0) {
      return perf_report(argc, argv);
    }
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
