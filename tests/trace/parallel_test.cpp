#include "trace/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "live_threads.hpp"
#include "trace/reader.hpp"
#include "trace/view.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/governor.hpp"

namespace tdt::trace {
namespace {

/// Disarms the process-global fault injector on scope exit so a failing
/// test cannot leak an armed spec into the rest of the suite.
struct FaultGuard {
  explicit FaultGuard(const char* spec) { fault::FaultInjector::install(spec); }
  ~FaultGuard() { fault::FaultInjector::reset(); }
};

std::vector<TraceRecord> make_records(TraceContext& ctx, std::size_t n) {
  std::vector<TraceRecord> records;
  records.reserve(n);
  const Symbol fn = ctx.intern("main");
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord rec;
    rec.kind = i % 3 == 0 ? AccessKind::Store : AccessKind::Load;
    rec.address = 0x7ff000000ULL + i * 4;
    rec.size = 4;
    rec.function = fn;
    records.push_back(rec);
  }
  return records;
}

void feed(TraceSink& sink, std::span<const TraceRecord> records) {
  for (const TraceRecord& rec : records) sink.on_record(rec);
  sink.on_end();
}

TEST(ParallelFanOut, InlineModeBroadcastsToAllSinks) {
  TraceContext ctx;
  const auto input = make_records(ctx, 100);
  VectorSink a, b, c;
  ParallelOptions options;
  options.jobs = 0;
  options.batch_records = 16;
  ParallelFanOut fanout({&a, &b, &c}, options);
  feed(fanout, input);
  EXPECT_EQ(a.records(), input);
  EXPECT_EQ(b.records(), input);
  EXPECT_EQ(c.records(), input);
  EXPECT_EQ(fanout.counters().jobs, 0u);
  EXPECT_EQ(fanout.counters().records, 100u);
}

TEST(ParallelFanOut, WorkersReceiveIdenticalStreams) {
  TraceContext ctx;
  const auto input = make_records(ctx, 1000);
  std::vector<VectorSink> sinks(5);
  std::vector<TraceSink*> ptrs;
  for (VectorSink& s : sinks) ptrs.push_back(&s);
  ParallelOptions options;
  options.jobs = 3;
  options.batch_records = 32;
  options.queue_batches = 2;
  ParallelFanOut fanout(ptrs, options);
  feed(fanout, input);
  for (const VectorSink& s : sinks) EXPECT_EQ(s.records(), input);
  EXPECT_EQ(fanout.counters().jobs, 3u);
  EXPECT_EQ(fanout.counters().workers.size(), 3u);
  for (const WorkerCounters& w : fanout.counters().workers) {
    EXPECT_EQ(w.records, 1000u);
  }
  // 5 sinks round-robined over 3 workers: 2 + 2 + 1.
  EXPECT_EQ(fanout.counters().workers[0].sinks, 2u);
  EXPECT_EQ(fanout.counters().workers[1].sinks, 2u);
  EXPECT_EQ(fanout.counters().workers[2].sinks, 1u);
}

TEST(ParallelFanOut, JobCountIsCappedAtSinkCount) {
  TraceContext ctx;
  const auto input = make_records(ctx, 10);
  VectorSink a, b;
  ParallelOptions options;
  options.jobs = 8;
  ParallelFanOut fanout({&a, &b}, options);
  feed(fanout, input);
  EXPECT_EQ(fanout.counters().jobs, 2u);
  EXPECT_EQ(a.records(), input);
  EXPECT_EQ(b.records(), input);
}

TEST(ParallelFanOut, PushBatchFastPathMatchesPerRecord) {
  TraceContext ctx;
  const auto input = make_records(ctx, 256);
  VectorSink via_batch, via_record;
  ParallelOptions options;
  options.jobs = 1;
  options.batch_records = 64;
  {
    ParallelFanOut fanout({&via_batch}, options);
    fanout.push_batch(input);  // 256 >= 64: taken as whole batches
    fanout.on_end();
  }
  {
    ParallelFanOut fanout({&via_record}, options);
    feed(fanout, input);
  }
  EXPECT_EQ(via_batch.records(), input);
  EXPECT_EQ(via_record.records(), input);
}

/// Keeps the stream and the largest batch it was handed in one call.
class LargestBatchSink final : public TraceSink {
 public:
  void on_record(const TraceRecord& rec) override { push_batch({&rec, 1}); }
  void push_batch(std::span<const TraceRecord> batch) override {
    largest = std::max(largest, batch.size());
    records.insert(records.end(), batch.begin(), batch.end());
  }

  std::size_t largest = 0;
  std::vector<TraceRecord> records;
};

TEST(ParallelFanOut, OversizedSpanIsPublishedInBatchSlices) {
  TraceContext ctx;
  const auto input = make_records(ctx, 1000);
  LargestBatchSink a, b;
  ParallelOptions options;
  options.jobs = 2;
  options.batch_records = 64;
  options.queue_batches = 2;
  ParallelFanOut fanout({&a, &b}, options);
  fanout.push_batch(input);  // one span of 15.6 batches
  fanout.on_end();
  EXPECT_EQ(fanout.counters().jobs, 2u);
  EXPECT_EQ(fanout.counters().batches, 16u);  // 15 full slices + the tail
  for (const LargestBatchSink* sink : {&a, &b}) {
    EXPECT_EQ(sink->records, input);
    EXPECT_LE(sink->largest, options.batch_records);
  }
}

/// Keeps the stream and the storage address of every batch it is handed.
class StorageSink final : public TraceSink {
 public:
  void on_record(const TraceRecord& rec) override { push_batch({&rec, 1}); }
  void push_batch(std::span<const TraceRecord> batch) override {
    storage.push_back(batch.data());
    records.insert(records.end(), batch.begin(), batch.end());
  }

  std::vector<const TraceRecord*> storage;
  std::vector<TraceRecord> records;
};

TEST(ParallelFanOut, FullSharedBatchIsPublishedAsItsOwnStorage) {
  TraceContext ctx;
  const auto input = make_records(ctx, 273);
  ParallelOptions options;
  options.jobs = 2;
  options.batch_records = 64;
  options.queue_batches = 2;
  // Full batches arriving with nothing staged (the first and the fifth)
  // go out as they are; the short ones, and the full one arriving while
  // 20 records are staged, are staged exactly as push_batch stages them.
  std::vector<SharedBatch> batches;
  std::size_t at = 0;
  for (std::size_t n : {64u, 20u, 64u, 44u, 64u, 17u}) {
    batches.push_back(std::make_shared<const std::vector<TraceRecord>>(
        input.begin() + static_cast<std::ptrdiff_t>(at),
        input.begin() + static_cast<std::ptrdiff_t>(at + n)));
    at += n;
  }
  ASSERT_EQ(at, input.size());

  StorageSink shared_a, shared_b, span_a, span_b;
  ParallelFanOut shared_fanout({&shared_a, &shared_b}, options);
  ParallelFanOut span_fanout({&span_a, &span_b}, options);
  for (const SharedBatch& batch : batches) {
    shared_fanout.push_batch_shared(batch);
    span_fanout.push_batch(*batch);
  }
  shared_fanout.on_end();
  span_fanout.on_end();

  EXPECT_EQ(shared_fanout.counters().batches, span_fanout.counters().batches);
  EXPECT_EQ(shared_fanout.counters().batches, 5u);
  for (const StorageSink* sink : {&shared_a, &shared_b, &span_a, &span_b}) {
    EXPECT_EQ(sink->records, input);
    ASSERT_EQ(sink->storage.size(), 5u);
  }
  for (const StorageSink* sink : {&shared_a, &shared_b}) {
    EXPECT_EQ(sink->storage[0], batches[0]->data());
    EXPECT_EQ(sink->storage[3], batches[4]->data());
    for (std::size_t i : {1u, 2u, 4u}) {
      for (const SharedBatch& batch : batches) {
        EXPECT_NE(sink->storage[i], batch->data()) << "batch " << i;
      }
    }
  }
}

TEST(ParallelFanOut, OnEndIsIdempotent) {
  TraceContext ctx;
  const auto input = make_records(ctx, 20);
  VectorSink a;
  ParallelOptions options;
  options.jobs = 1;
  ParallelFanOut fanout({&a}, options);
  feed(fanout, input);
  fanout.on_end();  // second call must be a no-op
  EXPECT_EQ(a.records(), input);
}

TEST(ParallelFanOut, DestructorWithoutOnEndDoesNotHang) {
  TraceContext ctx;
  const auto input = make_records(ctx, 10);
  VectorSink a;
  ParallelOptions options;
  options.jobs = 1;
  options.batch_records = 2;
  ParallelFanOut fanout({&a}, options);
  for (const TraceRecord& rec : input) fanout.on_record(rec);
  // No on_end: the destructor must abort the queue and join the worker.
}

class ThrowingSink final : public TraceSink {
 public:
  explicit ThrowingSink(std::uint64_t fail_at) : fail_at_(fail_at) {}
  void on_record(const TraceRecord&) override {
    if (++seen_ >= fail_at_) throw std::runtime_error("sink failure");
  }

 private:
  std::uint64_t seen_ = 0;
  std::uint64_t fail_at_;
};

TEST(ParallelFanOut, WorkerExceptionPropagatesFromOnEnd) {
  TraceContext ctx;
  const auto input = make_records(ctx, 100);
  ThrowingSink bad(10);
  VectorSink good;
  ParallelOptions options;
  options.jobs = 2;
  options.batch_records = 4;
  ParallelFanOut fanout({&bad, &good}, options);
  for (const TraceRecord& rec : input) fanout.on_record(rec);
  EXPECT_THROW(fanout.on_end(), std::runtime_error);
}

TEST(ParallelFanOut, SummaryReportsPipelineShape) {
  TraceContext ctx;
  const auto input = make_records(ctx, 50);
  VectorSink a, b;
  ParallelOptions options;
  options.jobs = 2;
  options.batch_records = 8;
  ParallelFanOut fanout({&a, &b}, options);
  feed(fanout, input);
  const std::string summary = fanout.counters().summary();
  EXPECT_NE(summary.find("pipeline:"), std::string::npos);
  EXPECT_NE(summary.find("50 records"), std::string::npos);
  EXPECT_NE(summary.find("worker 0"), std::string::npos);
  EXPECT_NE(summary.find("worker 1"), std::string::npos);
  EXPECT_NE(summary.find("backpressure"), std::string::npos);
}

TEST(ParallelFanOut, RegistryTimesEverySink) {
  TraceContext ctx;
  const auto input = make_records(ctx, 500);
  // Inline (jobs 0) and worker (jobs 2, so one worker drives two sinks).
  for (std::size_t jobs : {0u, 2u}) {
    obs::Registry registry("test");
    VectorSink a, b, c;
    ParallelOptions options;
    options.jobs = jobs;
    options.batch_records = 64;
    options.registry = &registry;
    ParallelFanOut fanout({&a, &b, &c}, options);
    fanout.push_batch(input);  // full slices and a pending tail
    fanout.on_end();
    const std::string json = registry.metrics_json();
    for (int i = 0; i < 3; ++i) {
      const std::string key = "pipeline.sink" + std::to_string(i) + ".seconds";
      ASSERT_NE(json.find(key), std::string::npos) << key << " jobs " << jobs;
      EXPECT_GT(registry.gauge(key).value(), 0.0) << key << " jobs " << jobs;
    }
    EXPECT_EQ(json.find("pipeline.sink3."), std::string::npos);
  }
}

/// Resolves every record's function name through the shared TraceContext
/// from inside a worker thread — exercises the StringPool contract that
/// symbols published through the queues are safe to view concurrently
/// with the reader interning new ones.
class NameLengthSink final : public TraceSink {
 public:
  explicit NameLengthSink(const TraceContext& ctx) : ctx_(&ctx) {}
  void on_record(const TraceRecord& rec) override {
    total_ += ctx_->name(rec.function).size();
    if (!rec.var.empty()) total_ += ctx_->name(rec.var.base).size();
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

 private:
  const TraceContext* ctx_;
  std::uint64_t total_ = 0;
};

TEST(ParallelFanOut, WorkersResolveSymbolsWhileReaderInterns) {
  // Distinct function and variable names on every line, over three view
  // batches, keep the reader interning the next batch's names while the
  // workers resolve names of the batch before.
  const std::string path =
      ::testing::TempDir() + "/parallel_interning_trace.out";
  {
    std::ofstream out(path, std::ios::binary);
    out << "START PID 1\n";
    for (std::size_t i = 0; i < 3 * kViewBatch; ++i) {
      out << "L 7ff000100 4 fn_" << i << " LV 0 1 var_" << i << "\n";
    }
    ASSERT_TRUE(out.good());
  }

  std::uint64_t expected = 0;
  {
    TraceContext ctx;
    NameLengthSink seq(ctx);
    View::source(ctx, path).drain(seq);
    expected = seq.total();
    ASSERT_GT(expected, 0u);
  }

  TraceContext ctx;
  NameLengthSink a(ctx), b(ctx);
  ParallelOptions options;
  options.jobs = 2;
  options.batch_records = 16;
  options.queue_batches = 2;
  ParallelFanOut fanout({&a, &b}, options);
  View::source(ctx, path).drain(fanout);
  EXPECT_EQ(a.total(), expected);
  EXPECT_EQ(b.total(), expected);
  std::filesystem::remove(path);
}

TEST(ParallelFanOutSupervision, StalledWorkersRecoverBitIdentically) {
  TraceContext ctx;
  const auto input = make_records(ctx, 500);

  // Sequential reference run: what every sink must end up holding.
  VectorSink reference;
  {
    ParallelOptions options;
    options.jobs = 0;
    options.batch_records = 16;
    ParallelFanOut fanout({&reference}, options);
    feed(fanout, input);
  }

  // Every batch pop past the second stalls; the watchdog must flag the
  // workers, release the injected stalls, and replay their missed
  // batches sequentially to the exact same contents.
  FaultGuard guard("worker.stall:1:2");
  VectorSink a, b;
  ParallelOptions options;
  options.jobs = 2;
  options.batch_records = 16;
  options.queue_batches = 2;
  options.worker_timeout = 0.2;
  ParallelFanOut fanout({&a, &b}, options);
  feed(fanout, input);

  const PipelineCounters& counters = fanout.counters();
  EXPECT_GE(counters.stalled_workers, 1u);
  EXPECT_EQ(counters.recovered_workers, counters.stalled_workers);
  EXPECT_EQ(counters.lost_workers, 0u);
  EXPECT_GE(counters.replayed_batches, 1u);
  EXPECT_EQ(a.records(), reference.records());
  EXPECT_EQ(b.records(), reference.records());
  const std::string summary = counters.summary();
  EXPECT_NE(summary.find("supervision:"), std::string::npos);
}

TEST(ParallelFanOutSupervision, ThrowingWorkerIsRecovered) {
  TraceContext ctx;
  const auto input = make_records(ctx, 300);
  FaultGuard guard("worker.throw:1:1");
  VectorSink a;
  ParallelOptions options;
  options.jobs = 1;
  options.batch_records = 16;
  options.worker_timeout = 0.2;
  ParallelFanOut fanout({&a}, options);
  feed(fanout, input);  // must not throw: the failure is recovered
  EXPECT_EQ(fanout.counters().recovered_workers, 1u);
  EXPECT_EQ(fanout.counters().lost_workers, 0u);
  EXPECT_EQ(a.records(), input);
}

TEST(ParallelFanOutSupervision, UnsupervisedWorkerFaultStaysFatal) {
  TraceContext ctx;
  const auto input = make_records(ctx, 300);
  FaultGuard guard("worker.throw:1:1");
  VectorSink a;
  ParallelOptions options;
  options.jobs = 1;
  options.batch_records = 16;  // worker_timeout stays 0: no supervision
  ParallelFanOut fanout({&a}, options);
  for (const TraceRecord& rec : input) fanout.on_record(rec);
  EXPECT_THROW(fanout.on_end(), Error);
}

TEST(ParallelFanOutSupervision, PrematureExitIsRecovered) {
  TraceContext ctx;
  const auto input = make_records(ctx, 300);
  FaultGuard guard("worker.exit:1:1");
  VectorSink a;
  ParallelOptions options;
  options.jobs = 1;
  options.batch_records = 16;
  options.worker_timeout = 0.2;
  ParallelFanOut fanout({&a}, options);
  feed(fanout, input);
  EXPECT_EQ(fanout.counters().recovered_workers, 1u);
  EXPECT_EQ(a.records(), input);
}

TEST(ParallelFanOutSupervision, SpilledReplayBufferLosesFailedWorker) {
  TraceContext ctx;
  const auto input = make_records(ctx, 300);
  FaultGuard guard("worker.throw:1:1");
  Budget tiny(64);  // far below one batch: retention spills immediately
  VectorSink a;
  ParallelOptions options;
  options.jobs = 1;
  options.batch_records = 16;
  options.worker_timeout = 0.2;
  options.memory = &tiny;
  ParallelFanOut fanout({&a}, options);
  for (const TraceRecord& rec : input) fanout.on_record(rec);
  EXPECT_THROW(fanout.on_end(), Error);
  EXPECT_TRUE(fanout.counters().replay_spilled);
  EXPECT_EQ(fanout.counters().lost_workers, 1u);
  EXPECT_EQ(fanout.counters().recovered_workers, 0u);
  EXPECT_EQ(tiny.used(), 0u);  // the spill released every charge
}

TEST(ParallelFanOutSupervision, CleanSupervisedRunRetainsNothingVisible) {
  TraceContext ctx;
  const auto input = make_records(ctx, 200);
  VectorSink a, b;
  ParallelOptions options;
  options.jobs = 2;
  options.batch_records = 16;
  options.worker_timeout = 5;  // armed but never tripped
  ParallelFanOut fanout({&a, &b}, options);
  feed(fanout, input);
  EXPECT_EQ(fanout.counters().stalled_workers, 0u);
  EXPECT_EQ(fanout.counters().recovered_workers, 0u);
  EXPECT_EQ(fanout.counters().lost_workers, 0u);
  EXPECT_EQ(a.records(), input);
  EXPECT_EQ(b.records(), input);
  // The summary must not mention supervision on a clean run — tools
  // print it verbatim and clean output stays byte-identical.
  EXPECT_EQ(fanout.counters().summary().find("supervision:"),
            std::string::npos);
}

// One worker drives two sinks, and the injected fault rejects the first
// batch at the second sink after the first sink took it. Each sink must
// resume from its own count: the first sink must not get the batch twice.
TEST(ParallelFanOutSupervision, ReplayResumesEachSinkFromItsOwnCount) {
  TraceContext ctx;
  const auto input = make_records(ctx, 300);
  FaultGuard guard("sink.push-batch:1:1");
  VectorSink a, b;
  ParallelOptions options;
  options.jobs = 1;
  options.batch_records = 16;
  options.worker_timeout = 0.2;
  ParallelFanOut fanout({&a, &b}, options);
  feed(fanout, input);  // must not throw: the failure is recovered
  EXPECT_EQ(fanout.counters().recovered_workers, 1u);
  EXPECT_EQ(fanout.counters().lost_workers, 0u);
  EXPECT_TRUE(a.records() == input);
  EXPECT_TRUE(b.records() == input);
}

/// Keeps what it is handed and throws once from inside push_batch, after
/// taking the first half of its `fail_batch`-th batch.
class HalfBatchThrowingSink final : public TraceSink {
 public:
  explicit HalfBatchThrowingSink(std::size_t fail_batch)
      : fail_batch_(fail_batch) {}
  void on_record(const TraceRecord& rec) override { records.push_back(rec); }
  void push_batch(std::span<const TraceRecord> batch) override {
    if (batches_++ == fail_batch_) {
      const std::span<const TraceRecord> half = batch.first(batch.size() / 2);
      records.insert(records.end(), half.begin(), half.end());
      throw std::runtime_error("sink failed mid-batch");
    }
    records.insert(records.end(), batch.begin(), batch.end());
  }

  std::vector<TraceRecord> records;

 private:
  std::size_t batches_ = 0;
  std::size_t fail_batch_;
};

// A sink that threw from inside its own push_batch is in an unknown
// state; replaying into it would deliver part of a batch twice.
TEST(ParallelFanOutSupervision, SinkThatThrewInsideItsBatchIsLost) {
  TraceContext ctx;
  const auto input = make_records(ctx, 300);
  HalfBatchThrowingSink bad(2);
  VectorSink good;
  ParallelOptions options;
  options.jobs = 2;
  options.batch_records = 16;
  options.worker_timeout = 0.2;
  ParallelFanOut fanout({&bad, &good}, options);
  for (const TraceRecord& rec : input) fanout.on_record(rec);
  EXPECT_THROW(fanout.on_end(), std::runtime_error);
  EXPECT_EQ(fanout.counters().lost_workers, 1u);
  EXPECT_EQ(fanout.counters().recovered_workers, 0u);
  EXPECT_TRUE(good.records() == input);
}

// Supervision keeps no copy of the stream: a clean run holds no more
// than the window, so a budget of a few batches never spills.
TEST(ParallelFanOutSupervision, CleanRunHoldsOnlyTheWindow) {
  TraceContext ctx;
  ParallelOptions options;
  options.jobs = 2;
  options.batch_records = 16;
  options.queue_batches = 4;
  options.worker_timeout = 5;
  const auto input = make_records(ctx, 200 * options.batch_records);
  const std::uint64_t batch_bytes =
      options.batch_records * sizeof(TraceRecord) + sizeof(RecordBatch);
  Budget budget((options.queue_batches + 2) * batch_bytes);
  options.memory = &budget;
  VectorSink a, b;
  ParallelFanOut fanout({&a, &b}, options);
  feed(fanout, input);
  EXPECT_FALSE(fanout.counters().replay_spilled);
  EXPECT_EQ(budget.denials(), 0u);
  EXPECT_GT(budget.peak(), 0u);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_TRUE(a.records() == input);
  EXPECT_TRUE(b.records() == input);
}

/// Notes the most threads alive while batches arrive.
class ThreadCountSink final : public TraceSink {
 public:
  void on_record(const TraceRecord&) override {}
  void push_batch(std::span<const TraceRecord>) override {
    peak = std::max(peak, live_threads());
  }
  std::size_t peak = 0;
};

// Supervision runs on the reader thread: the fan-out starts its workers
// and nothing else.
TEST(ParallelFanOutSupervision, StartsNoThreadBesidesItsWorkers) {
  std::thread([] {}).join();  // TSan's helper thread joins the baseline
  const std::size_t baseline = live_threads();
  if (baseline == 0) GTEST_SKIP() << "no /proc/self/task";
  TraceContext ctx;
  const auto input = make_records(ctx, 64);
  ThreadCountSink a, b;
  ParallelOptions options;
  options.jobs = 2;
  options.batch_records = 16;
  options.worker_timeout = 5;
  {
    ParallelFanOut fanout({&a, &b}, options);
    EXPECT_EQ(live_threads(), baseline + 2);
    feed(fanout, input);
  }
  EXPECT_EQ(std::max(a.peak, b.peak), baseline + 2);
  EXPECT_TRUE(threads_settle(baseline));
}

}  // namespace
}  // namespace tdt::trace
