// layer_probe — the traced half of the benchmark: times calls into each
// tdt layer from outside, through the public facade only.
//
//   layer_probe --workload xform_t2 --input t2.tdtb --rules t2.rules
//               --write-out probe.tdtb --spans spans.json
//
// The workload name fixes everything else the probe does the way the
// tool does it: decode workers, which stream the simulators see, and the
// writer's format (see kShapes).
//
// Two passes over the workload's input:
//   1. trace.read   — View::source(...).drain() into a counting sink.
//   2. probe.layers — the same source drained into a chunking sink. Each
//      decoded chunk is handed, in turn, to the affinity profiler, the
//      transformer (core.transform, output kept in memory), the
//      transformed-trace writer, and every sweep point's simulator
//      (cache.p<i>.sim). Decode time between chunks stays in the
//      probe.layers span itself.
//
// Every call is wrapped in a span (name, start, end, parent, workload).
// Spans stay in memory and are written once at exit in the Chrome
// trace_event schema the tools' --trace-spans emits. Counts the harness
// checks (transform stats, diagnostics, per-point miss classes, RSS per
// point) go to stdout as one JSON object.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tdt/tdt.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// Records handed to the layers per call: big enough that the per-call
// span cost vanishes, small enough to keep the probe's memory flat.
constexpr std::size_t kChunkRecords = 65536;
// dinerosim's --affinity-window default.
constexpr std::uint32_t kAffinityWindow = 32;
// sweep8's points; point 0 is the one config of the other workloads.
constexpr const char* kSweep =
    "assoc=1;assoc=2;assoc=4;assoc=8;size=8k;size=16k;size=64k;block=64";

/// How the workload's tool invocation reads, simulates and writes.
struct Shape {
  std::string_view workload;
  int jobs;              ///< the tool's --jobs (TDTB v3 decode workers)
  bool sim_transformed;  ///< simulate the transformed stream, not the input
  bool binary_out;       ///< v3 zstd writer, else Gleipnir text
};

constexpr Shape kShapes[] = {
    {"sim_text", 1, false, false},
    {"sweep8", 3, false, false},
    {"xform_t2", 3, true, true},
    {"xform_skip", 1, true, false},
};

class SpanLog {
 public:
  explicit SpanLog(std::string workload)
      : workload_(std::move(workload)), epoch_(Clock::now()) {}

  std::size_t begin(std::string name) {
    const std::size_t id = spans_.size();
    spans_.push_back({std::move(name), since_epoch(), 0.0,
                      open_.empty() ? kNoParent : open_.back()});
    open_.push_back(id);
    return id;
  }

  void end(std::size_t id) {
    spans_[id].dur_us = since_epoch() - spans_[id].start_us;
    open_.pop_back();
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) tdt::throw_io_error("cannot open span file '" + path + "'");
    out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n"
        << "    {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
           "\"process_name\", \"args\": {\"name\": \"layer_probe\"}}";
    char buf[128];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << ",\n    {\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": \""
          << s.name << "\", \"cat\": \"layer\", ";
      std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f, ",
                    s.start_us, s.dur_us);
      out << buf << "\"args\": {\"id\": " << i << ", \"parent\": ";
      if (s.parent == kNoParent) {
        out << "null";
      } else {
        out << s.parent;
      }
      out << ", \"workload\": \"" << workload_ << "\"}}";
    }
    out << "\n  ]\n}\n";
  }

 private:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    double start_us;
    double dur_us;
    std::size_t parent;
  };

  double since_epoch() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  std::string workload_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), id_(log.begin(std::move(name))) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::size_t id_;
};

std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0;
  std::int64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

/// Collects source batches into chunks and runs every probed layer on
/// each full chunk, one span per call.
class LayerProbe final : public tdt::trace::TraceSink {
 public:
  LayerProbe(SpanLog& spans, tdt::trace::TraceContext& ctx,
             const tdt::RuleSet& rules, const std::string& write_out,
             const Shape& shape)
      : spans_(spans),
        sim_transformed_(shape.sim_transformed),
        affinity_(ctx, {.window = kAffinityWindow}),
        transformer_(rules, ctx, transformed_, {.diags = &diags_}),
        write_path_(write_out),
        file_(write_out, std::ios::binary | std::ios::out),
        sweep_(tdt::parse_sweep_spec(kSweep, tdt::CacheConfig{})),
        rss_bytes_(sweep_.size(), 0) {
    if (!file_) {
      tdt::throw_io_error("cannot open '" + write_out + "' for writing");
    }
    if (shape.binary_out) {
      tdt::trace::BinaryWriterOptions options;
      const tdt::trace::CompressSpec spec =
          tdt::trace::parse_compress_spec("zstd");
      options.version = tdt::trace::kTdtbVersionFramed;
      options.codec = spec.codec;
      options.level = spec.level;
      writer_ = &binary_writer_.emplace(ctx, file_, 0, options);
    } else {
      writer_ = &text_writer_.emplace(ctx, file_);
    }
    chunk_.reserve(kChunkRecords);
  }

  void on_record(const tdt::TraceRecord& rec) override {
    chunk_.push_back(rec);
    if (chunk_.size() >= kChunkRecords) flush();
  }
  void push_batch(std::span<const tdt::TraceRecord> batch) override {
    chunk_.insert(chunk_.end(), batch.begin(), batch.end());
    if (chunk_.size() >= kChunkRecords) flush();
  }

  void on_end() override {
    flush();
    {
      ScopedSpan s(spans_, "analysis.affinity");
      affinity_.on_end();
    }
    {
      ScopedSpan s(spans_, "core.transform");
      transformer_.on_end();
    }
    deliver_transformed();
    {
      ScopedSpan s(spans_, "trace.write");
      writer_->on_end();
      file_.close();
    }
    for (std::size_t i = 0; i < sweep_.size(); ++i) {
      ScopedSpan s(spans_, point_span(i));
      sweep_.sim(i).on_end();
    }
  }

  void print_json(std::FILE* out) const {
    const tdt::TransformStats& t = transformer_.stats();
    std::fprintf(
        out,
        "\"transform\": {\"records_in\": %llu, \"rewritten\": %llu, "
        "\"inserted\": %llu, \"skipped\": %llu, \"plan_hits\": %llu, "
        "\"plan_misses\": %llu, \"diag_reports\": %llu},\n",
        static_cast<unsigned long long>(t.records_in),
        static_cast<unsigned long long>(t.rewritten),
        static_cast<unsigned long long>(t.inserted),
        static_cast<unsigned long long>(t.skipped),
        static_cast<unsigned long long>(t.plan_hits),
        static_cast<unsigned long long>(t.plan_misses),
        static_cast<unsigned long long>(diags_.warnings() +
                                        diags_.errors()));
    std::fprintf(out, "\"write_bytes\": %llu,\n",
                 static_cast<unsigned long long>(
                     std::filesystem::file_size(write_path_)));
    std::fputs("\"points\": [", out);
    for (std::size_t i = 0; i < sweep_.size(); ++i) {
      const tdt::cache::LevelStats& l1 = sweep_.hierarchy(i).level(0).stats();
      std::fprintf(out,
                   "%s\n  {\"accesses\": %llu, "
                   "\"compulsory\": %llu, \"capacity\": %llu, "
                   "\"conflict\": %llu, \"rss_bytes\": %lld}",
                   i == 0 ? "" : ",",
                   static_cast<unsigned long long>(l1.accesses()),
                   static_cast<unsigned long long>(l1.compulsory),
                   static_cast<unsigned long long>(l1.capacity),
                   static_cast<unsigned long long>(l1.conflict),
                   static_cast<long long>(rss_bytes_[i]));
    }
    std::fputs("\n]", out);
  }

 private:
  static std::string point_span(std::size_t i) {
    return "cache.p" + std::to_string(i) + ".sim";
  }

  void flush() {
    if (chunk_.empty()) return;
    const std::span<const tdt::TraceRecord> raw(chunk_);
    {
      ScopedSpan s(spans_, "analysis.affinity");
      affinity_.push_batch(raw);
    }
    {
      ScopedSpan s(spans_, "core.transform");
      transformer_.push_batch(raw);
    }
    if (!sim_transformed_) simulate(raw);
    deliver_transformed();
    chunk_.clear();
  }

  /// Writes (and, for transforming workloads, simulates) whatever the
  /// transformer has produced so far.
  void deliver_transformed() {
    const std::span<const tdt::TraceRecord> out(transformed_.records());
    if (!out.empty()) {
      ScopedSpan s(spans_, "trace.write");
      writer_->push_batch(out);
    }
    if (sim_transformed_) simulate(out);
    transformed_.records().clear();
  }

  void simulate(std::span<const tdt::TraceRecord> records) {
    if (records.empty()) return;
    for (std::size_t i = 0; i < sweep_.size(); ++i) {
      const std::int64_t before = resident_bytes();
      {
        ScopedSpan s(spans_, point_span(i));
        sweep_.sim(i).push_batch(records);
      }
      rss_bytes_[i] += resident_bytes() - before;
    }
  }

  SpanLog& spans_;
  bool sim_transformed_;
  std::vector<tdt::TraceRecord> chunk_;

  tdt::AffinityCollector affinity_;
  tdt::VectorSink transformed_;
  tdt::DiagEngine diags_;
  tdt::TraceTransformer transformer_;

  std::string write_path_;
  std::ofstream file_;
  std::optional<tdt::trace::WriterSink> text_writer_;
  std::optional<tdt::trace::BinaryTraceSink> binary_writer_;
  tdt::TraceSink* writer_ = nullptr;

  tdt::ParallelSweep sweep_;
  std::vector<std::int64_t> rss_bytes_;
};

int run(int argc, char** argv) {
  tdt::FlagParser flags("layer_probe",
                        "per-layer timing of one benchmark workload");
  const auto* workload = flags.add_string("workload", "", "workload name");
  const auto* input = flags.add_string("input", "", "input trace file");
  const auto* rules_path = flags.add_string("rules", "", "rules file");
  const auto* write_out =
      flags.add_string("write-out", "", "transformed trace file");
  const auto* spans_path = flags.add_string("spans", "", "span file");
  if (!flags.parse(argc, argv)) return 0;
  const Shape* shape = nullptr;
  for (const Shape& s : kShapes) {
    if (s.workload == *workload) shape = &s;
  }
  if (shape == nullptr || input->empty() || rules_path->empty() ||
      write_out->empty() || spans_path->empty()) {
    std::fputs("layer_probe: --workload (a benchmark workload), --input, "
               "--rules, --write-out and --spans are required\n",
               stderr);
    return 2;
  }

  SpanLog spans(*workload);
  const std::size_t root = spans.begin("workload." + *workload);
  const tdt::trace::ViewSourceOptions source_options{.jobs = shape->jobs};

  tdt::obs::Registry registry("layer_probe");
  tdt::trace::NullSink read_sink;
  {
    tdt::TraceContext ctx;
    ScopedSpan s(spans, "trace.read");
    tdt::trace::View::source(ctx, *input, source_options)
        .drain(read_sink, {.registry = &registry});
  }

  const tdt::RuleSet rules = tdt::load_rules(*rules_path);
  tdt::TraceContext ctx;
  LayerProbe probe(spans, ctx, rules, *write_out, *shape);
  {
    ScopedSpan s(spans, "probe.layers");
    tdt::trace::View::source(ctx, *input, source_options).drain(probe);
  }
  spans.end(root);
  spans.write(*spans_path);

  std::printf("{\n\"records\": %llu,\n\"fast_parses\": %llu,\n",
              static_cast<unsigned long long>(read_sink.count()),
              static_cast<unsigned long long>(
                  registry.counter("read.fast_parses").value()));
  probe.print_json(stdout);
  std::puts("\n}");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layer_probe: %s\n", e.what());
    return 2;
  }
}
