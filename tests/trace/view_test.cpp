// Fan-out semantics the view DAG must keep:
// one ingest feeding N consumers delivers every branch its full stream,
// exactly one on_end per sink, errors out of any branch propagate, and
// a VectorSink's memory is charged once regardless of fan-out. Plus the
// view-specific contracts: pipe stages, writing the stream alongside
// through a writer sink, and per-node metrics.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "trace/binary.hpp"
#include "trace/parallel.hpp"
#include "trace/view.hpp"
#include "util/error.hpp"
#include "var_ref.hpp"

namespace tdt::trace {
namespace {

std::vector<TraceRecord> make_records(TraceContext& ctx, std::size_t n) {
  std::vector<TraceRecord> records;
  records.reserve(n);
  const Symbol fn = ctx.intern("main");
  const VarRef var = var_ref(ctx, "buf");
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord rec;
    rec.kind = i % 3 == 0 ? AccessKind::Store : AccessKind::Load;
    rec.scope = VarScope::GlobalStructure;
    rec.thread = 1;
    rec.size = 4;
    rec.address = 0x10000 + 8 * i;
    rec.function = fn;
    rec.var = var;
    records.push_back(rec);
  }
  return records;
}

/// Counts batches and on_end calls; optionally records everything.
class ProbeSink final : public TraceSink {
 public:
  void on_record(const TraceRecord& rec) override {
    records.push_back(rec);
  }
  void push_batch(std::span<const TraceRecord> batch) override {
    ++batches;
    records.insert(records.end(), batch.begin(), batch.end());
  }
  void on_end() override { ++ends; }

  std::vector<TraceRecord> records;
  int batches = 0;
  int ends = 0;
};

/// Passes every batch through unchanged: a child node below `v`.
View passthrough(const View& v) {
  class Identity final : public ViewStage {
   public:
    void on_batch(std::span<const TraceRecord> in,
                  std::vector<TraceRecord>& out) override {
      out.assign(in.begin(), in.end());
    }
  };
  return v.pipe([](TraceContext&) { return std::make_unique<Identity>(); },
                "identity");
}

/// Fails on the nth delivered batch (1-based); on_end throws if `fatal_end`.
class FailingSink final : public TraceSink {
 public:
  explicit FailingSink(int fail_on_batch) : fail_on_(fail_on_batch) {}
  void on_record(const TraceRecord&) override {}
  void push_batch(std::span<const TraceRecord>) override {
    if (++seen_ == fail_on_) throw std::runtime_error("branch sink failed");
  }

 private:
  int fail_on_;
  int seen_ = 0;
};

TEST(ViewGraph, EveryBranchGetsFullStreamAndOneEnd) {
  TraceContext ctx;
  const auto records = make_records(ctx, 10'000);  // > 2 batches
  const View source = View::source_records(ctx, records);

  ProbeSink a;
  ProbeSink b;
  ProbeSink above;  // a second sink on the source, which has a child

  Graph graph;
  graph.add_sink(source, a);
  graph.add_sink(passthrough(source), b);
  graph.add_sink(source, above);
  const GraphResult result = graph.run();

  EXPECT_EQ(result.records, records.size());
  for (const ProbeSink* sink : {&a, &b, &above}) {
    EXPECT_EQ(sink->records, records);
    EXPECT_EQ(sink->ends, 1);
  }
  EXPECT_GT(a.batches, 1);
}

/// Records the storage address of every batch it is handed.
class StorageProbe final : public TraceSink {
 public:
  void on_record(const TraceRecord& rec) override { push_batch({&rec, 1}); }
  void push_batch(std::span<const TraceRecord> batch) override {
    storage.push_back(batch.data());
    records.insert(records.end(), batch.begin(), batch.end());
  }

  std::vector<const TraceRecord*> storage;
  std::vector<TraceRecord> records;
};

TEST(ViewGraph, FanOutSinkOnANodeWithChildrenSharesItsBatches) {
  TraceContext ctx;
  const auto records = make_records(ctx, 3 * kViewBatch + 100);
  const View source = View::source_records(ctx, records);
  for (std::size_t jobs : {0u, 2u}) {
    // The source feeds a fan-out sink, a second sink and a child node;
    // the second sink sees each source batch's own storage.
    StorageProbe worker_sink;
    StorageProbe above;
    ProbeSink downstream;
    ParallelOptions options;
    options.jobs = jobs;
    options.batch_records = kViewBatch;
    options.queue_batches = 2;
    ParallelFanOut fanout({&worker_sink}, options);
    Graph graph;
    graph.add_sink(source, fanout);
    graph.add_sink(source, above);
    graph.add_sink(passthrough(source), downstream);
    graph.run();

    EXPECT_EQ(worker_sink.records, records) << "jobs " << jobs;
    EXPECT_EQ(above.records, records) << "jobs " << jobs;
    EXPECT_EQ(downstream.records, records) << "jobs " << jobs;
    EXPECT_EQ(downstream.ends, 1) << "jobs " << jobs;
    EXPECT_EQ(fanout.counters().batches, 4u) << "jobs " << jobs;
    ASSERT_EQ(above.storage.size(), 4u);
    ASSERT_EQ(worker_sink.storage.size(), 4u);
    // The three full batches reach the fan-out's sink as the source's
    // own storage, on the worker and inline alike.
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(worker_sink.storage[i], above.storage[i])
          << "jobs " << jobs << " batch " << i;
    }
  }
}

TEST(ViewGraph, SinkRegisteredTwiceGetsTwoFullStreams) {
  TraceContext ctx;
  const auto records = make_records(ctx, 100);
  const View source = View::source_records(ctx, records);
  ProbeSink sink;
  Graph graph;
  graph.add_sink(source, sink);
  graph.add_sink(source, sink);
  graph.run();
  EXPECT_EQ(sink.records.size(), 2 * records.size());
  EXPECT_EQ(sink.ends, 2);
}

TEST(ViewGraph, IngestHappensOnceRegardlessOfFanOut) {
  TraceContext ctx;
  const std::string path = ::testing::TempDir() + "/view_ingest_once.out";
  {
    std::ofstream out(path, std::ios::binary);
    out << "START PID 7\n";
    for (int i = 0; i < 100; ++i) out << "S 7ff000010 4 main\n";
    out << "END PID 7\n";
    ASSERT_TRUE(out.good());
  }

  obs::Registry registry("test");
  NullSink a;
  NullSink b;
  NullSink c;
  const View source = View::source(ctx, path);
  Graph graph;
  graph.add_sink(source, a);
  graph.add_sink(source, b);
  graph.add_sink(source, c);
  const GraphResult result = graph.run({.registry = &registry});

  EXPECT_EQ(result.records, 100u);
  EXPECT_EQ(result.pid, 7u);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(b.count(), 100u);
  EXPECT_EQ(c.count(), 100u);
  // The reader parsed each record once: fan-out shares batches instead
  // of re-reading, so read.records counts the ingest, not the deliveries.
  EXPECT_EQ(registry.counter("read.records").value(), 100u);
  const StageStats* stats = result.stage("source0");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->records, 100u);
  std::filesystem::remove(path);
}

TEST(ViewGraph, ErrorInOneBranchPropagates) {
  TraceContext ctx;
  const auto records = make_records(ctx, 10'000);
  const View source = View::source_records(ctx, records);
  ProbeSink before;
  FailingSink failing(2);
  ProbeSink after;
  Graph graph;
  graph.add_sink(source, before);
  graph.add_sink(source, failing);
  graph.add_sink(source, after);
  EXPECT_THROW(graph.run(), std::runtime_error);
  // The sink registered before the failing branch saw the fatal batch;
  // the one after did not — and nobody got a misleading clean on_end.
  EXPECT_EQ(before.batches, 2);
  EXPECT_EQ(after.batches, 1);
  EXPECT_EQ(before.ends, 0);
  EXPECT_EQ(after.ends, 0);
}

// A tee branch: a sink on a node that also feeds a child.
TEST(ViewGraph, ErrorInTeeBranchPropagates) {
  TraceContext ctx;
  const auto records = make_records(ctx, 10'000);
  FailingSink failing(1);
  ProbeSink downstream;
  const View source = View::source_records(ctx, records);
  Graph graph;
  graph.add_sink(source, failing);
  graph.add_sink(passthrough(source), downstream);
  EXPECT_THROW(graph.run(), std::runtime_error);
  // A node's sinks take each batch before its children do.
  EXPECT_EQ(downstream.batches, 0);
  EXPECT_EQ(downstream.ends, 0);
}

TEST(ViewGraph, VectorSinkChargedOnceNotPerBranch) {
  TraceContext ctx;
  const auto records = make_records(ctx, 5'000);
  const std::uint64_t bytes = records.size() * sizeof(TraceRecord);

  Governor governor;
  governor.memory.set_limit(bytes);  // exactly one copy fits
  VectorSink buffered(&governor.memory);
  NullSink branch_a;
  NullSink branch_b;

  const View source = View::source_records(ctx, records);
  Graph graph;
  graph.add_sink(source, branch_a);
  graph.add_sink(source, buffered);
  graph.add_sink(source, branch_b);
  // Were the buffer charged per branch this would throw Error{Resource}.
  EXPECT_NO_THROW(graph.run({.governor = &governor}));
  EXPECT_EQ(buffered.records().size(), records.size());
  EXPECT_EQ(governor.memory.used(), bytes);
  EXPECT_EQ(governor.memory.denials(), 0u);
}

TEST(ViewGraph, SaveWritesTheStreamAlongside) {
  TraceContext ctx;
  const auto records = make_records(ctx, 300);
  for (const char* name : {"view_save_roundtrip.out",
                           "view_save_roundtrip.tdtb",
                           "view_save_roundtrip.din"}) {
    const std::string path = ::testing::TempDir() + "/" + name;
    const TraceFormat format = guess_trace_format(path);
    ProbeSink sink;
    {
      // The writer sits on the node ahead of the consumer, as dinerosim's
      // --xform-out writer does.
      std::ofstream out(path, std::ios::binary);
      TraceWriter writer(format, ctx, out, 42, BinaryWriterOptions{},
                         nullptr);
      const View source = View::source_records(ctx, records);
      Graph graph;
      graph.add_sink(source, writer);
      graph.add_sink(source, sink);
      graph.run();
    }
    EXPECT_EQ(sink.records, records) << name;

    // The saved file replays to the identical stream; din keeps only
    // each record's kind, address and size.
    const std::vector<TraceRecord> replayed =
        View::source(ctx, path, ViewSourceOptions{}).collect();
    std::filesystem::remove(path);
    if (format != TraceFormat::Din) {
      EXPECT_EQ(replayed, records) << name;
      continue;
    }
    ASSERT_EQ(replayed.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(replayed[i].kind, records[i].kind) << i;
      EXPECT_EQ(replayed[i].address, records[i].address) << i;
      EXPECT_EQ(replayed[i].size, records[i].size) << i;
    }
  }
}

TEST(ViewGraph, PipeStageTransformsAndFlushesTail) {
  TraceContext ctx;
  const auto records = make_records(ctx, 4'100);  // forces two batches

  // Doubles every record and appends one sentinel at end of stream.
  class Doubler final : public ViewStage {
   public:
    void on_batch(std::span<const TraceRecord> in,
                  std::vector<TraceRecord>& out) override {
      for (const TraceRecord& rec : in) {
        out.push_back(rec);
        out.push_back(rec);
      }
    }
    void on_end(std::vector<TraceRecord>& out) override {
      TraceRecord tail;
      tail.address = 0xdead;
      out.push_back(tail);
    }
  };

  TraceContext& ctx_ref = ctx;
  const std::vector<TraceRecord> out =
      View::source_records(ctx_ref, records)
          .pipe([](TraceContext&) { return std::make_unique<Doubler>(); },
                "doubler")
          .collect();
  ASSERT_EQ(out.size(), 2 * records.size() + 1);
  EXPECT_EQ(out[0], records[0]);
  EXPECT_EQ(out[1], records[0]);
  EXPECT_EQ(out.back().address, 0xdeadu);
}

TEST(ViewGraph, IndexedContainerFansOutThroughTheBridge) {
  // A v3 container with a valid frame index reads through the parallel
  // seekable decode bridged into the pull cursor; fan-out still ingests
  // once and every consumer sees the full stream.
  TraceContext ctx;
  const auto records = make_records(ctx, 2'000);
  BinaryWriterOptions options;
  options.version = kTdtbVersionFramed;
  options.frame_records = 64;  // plenty of frames for the workers
  const std::vector<char> blob = write_binary_trace(ctx, records, 9, options);
  const std::string path =
      ::testing::TempDir() + "/view_bridge_indexed.tdtb";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    ASSERT_TRUE(out.good());
  }

  for (const int jobs : {1, 4}) {
    obs::Registry registry("test");
    ViewSourceOptions source_options;
    source_options.jobs = jobs;
    source_options.clamp_jobs = false;
    const View source = View::source(ctx, path, source_options);
    ProbeSink a;
    ProbeSink b;
    Graph graph;
    graph.add_sink(source, a);
    graph.add_sink(source, b);
    const GraphResult result = graph.run({.registry = &registry});
    EXPECT_EQ(result.records, records.size());
    EXPECT_EQ(result.pid, 9u);
    EXPECT_EQ(a.records, records);
    EXPECT_EQ(b.records, records);
    EXPECT_EQ(a.ends, 1);
    EXPECT_EQ(b.ends, 1);
    EXPECT_EQ(registry.counter("read.records").value(), records.size());
  }
  std::filesystem::remove(path);
}

TEST(ViewGraph, InvalidViewThrowsConfigError) {
  View invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_THROW((void)passthrough(invalid), Error);
  NullSink sink;
  Graph graph;
  EXPECT_THROW(graph.add_sink(invalid, sink), Error);
}

TEST(ViewGraph, MissingTraceFileThrowsIoError) {
  TraceContext ctx;
  NullSink sink;
  const View source =
      View::source(ctx, "/nonexistent/trace.out", ViewSourceOptions{});
  try {
    source.drain(sink);
    FAIL() << "expected Error{Io}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Io);
  }
}

}  // namespace
}  // namespace tdt::trace
