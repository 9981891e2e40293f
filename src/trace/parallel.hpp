// One-pass parallel simulation pipeline. A ParallelFanOut is a TraceSink
// that broadcasts batches of TraceRecords to N downstream sinks, grouped
// onto worker threads that read one window of published batches. A
// single streaming pass over a trace thus drives any number of cache
// configurations or analysis sinks at once:
//
//   reader (parse [+ transform]) --> [window] <- worker 0: sinks 0, W, ...
//                                             <- worker 1: sinks 1, W+1, ...
//
// Each worker has a cursor into the window and each sink a count of the
// batches it received whole. The reader waits while the slowest live
// worker is queue_batches behind; a batch leaves the window once no sink
// that may still need it is behind it.
//
// Determinism: every sink receives the full record stream in trace
// order, so its results are bit-identical to a sequential run, and the
// caller merges statistics in sink order. jobs == 0 runs the same
// batched code path inline with no threads: the sequential reference.
//
// Thread-safety contract: the reader thread is the only one that interns
// into the TraceContext; workers may resolve symbols they received
// through the window (StringPool storage is append-only and stable; the
// window mutex provides the happens-before edge).
//
// Supervision (worker_timeout > 0): while the reader waits on the
// workers, in publish and in on_end, it gives up on a worker that has
// held a batch for the timeout. A worker that threw, exited or was given
// up keeps its sinks' batches in the window, and on_end replays each of
// its sinks from its own count: recovered results are bit-identical
// (recovered_workers > 0, the tool exits 1). The worker is lost instead
// (exit 2) when a sink threw from inside push_batch (its state is
// unknown), its thread is wedged past the grace period, or the window's
// charge spilled under --max-memory.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/sink.hpp"
#include "util/governor.hpp"
#include "util/obs.hpp"

namespace tdt::trace {

/// A published batch of records, shared read-only by all workers.
using RecordBatch = std::vector<TraceRecord>;

/// Pipeline shape knobs.
struct ParallelOptions {
  /// Worker threads. 0 (or a single worker with nothing to overlap) runs
  /// the fan-out inline on the calling thread — the sequential reference
  /// mode. Capped at the number of sinks.
  std::size_t jobs = 0;
  /// Records per published batch.
  std::size_t batch_records = 4096;
  /// Window depth, in batches: the reader waits while the slowest live
  /// worker has this many batches left to take (bounds memory and
  /// applies backpressure to the reader).
  std::size_t queue_batches = 8;
  /// When non-null, on_end() folds the pipeline counters, queue gauges,
  /// per-worker spans, the merged <family>.batch_latency_us histogram and
  /// one <family>.sink<i>.seconds gauge per sink (the wall time spent
  /// delivering to sink i) into this registry. Null times nothing. The
  /// timing takes no lock: each worker writes only its own HistogramData
  /// shard and its own sinks' slots.
  obs::Registry* registry = nullptr;
  /// Metric-name prefix and summary label, so two fan-outs in one run
  /// report apart ("pipeline" for the simulation, "affinity" for
  /// dinerosim's profiler worker).
  std::string family = "pipeline";
  /// Span lane (trace_event tid) of worker 0; worker i draws on
  /// first_lane + i. Lane 0 is the main thread.
  std::uint32_t first_lane = 1;
  /// Seconds a worker may hold a batch before the reader gives up on it;
  /// 0 disables supervision (a failed worker is an error).
  double worker_timeout = 0;
  /// Optional budget charged, under supervision, for the window replay
  /// draws on. On exhaustion it spills (gives the charge back) instead of
  /// failing: a worker that failed or fails later is then lost.
  Budget* memory = nullptr;
};

/// Counters of one worker stage, snapshotted at on_end().
struct WorkerCounters {
  std::size_t sinks = 0;          ///< downstream sinks owned by this worker
  std::uint64_t records = 0;
  std::uint64_t batches = 0;
  std::uint64_t push_stalls = 0;  ///< reader waited for this worker
  std::uint64_t pop_stalls = 0;   ///< worker starved waiting for the reader
  std::uint64_t occupancy_sum = 0;   ///< batches left to take, per publish
  std::uint64_t peak_occupancy = 0;  ///< most batches it had left to take
  obs::HistogramData batch_latency_us;  ///< per-batch sink-drive wall time
};

/// Whole-pipeline observability, rendered next to the diag summary.
struct PipelineCounters {
  std::string family = "pipeline";  ///< ParallelOptions::family
  std::size_t jobs = 0;           ///< worker threads actually spawned
  std::size_t batch_records = 0;
  std::size_t queue_batches = 0;
  std::uint64_t records = 0;      ///< records the reader pushed
  std::uint64_t batches = 0;
  double seconds = 0;             ///< construction to on_end
  std::vector<WorkerCounters> workers;
  // Supervision outcome (all zero when worker_timeout == 0 or clean).
  double worker_timeout = 0;            ///< configured timeout (s)
  std::size_t stalled_workers = 0;      ///< workers the reader gave up on
  std::size_t recovered_workers = 0;    ///< failed workers replayed to parity
  std::size_t lost_workers = 0;         ///< failed workers beyond recovery
  std::uint64_t replayed_batches = 0;   ///< batches re-simulated sequentially
  bool replay_spilled = false;          ///< retention shed under --max-memory

  /// Reader-side throughput (records / seconds; 0 when unmeasurable).
  [[nodiscard]] double records_per_second() const noexcept;

  /// Multi-line human-readable rendering, headed by the family:
  ///   pipeline: 10000000 records in 2442 batches, 1.23 s (8.1 Mrec/s), 4 workers
  ///     worker 0 (2 sinks): 10000000 records, 37 backpressure stalls, ...
  [[nodiscard]] std::string summary() const;
};

/// Broadcast fan-out sink with optional worker threads.
class ParallelFanOut final : public TraceSink {
 public:
  /// `sinks` are not owned and must outlive the fan-out. With
  /// options.jobs > 0, sink i gets its batches on worker i % jobs, and
  /// replay and on_end on the calling thread once the workers are
  /// joined; sinks never need internal synchronisation.
  explicit ParallelFanOut(std::vector<TraceSink*> sinks,
                          ParallelOptions options = {});

  /// Stops the workers and joins them if on_end() was never reached
  /// (error unwinding); never throws.
  ~ParallelFanOut() override;

  ParallelFanOut(const ParallelFanOut&) = delete;
  ParallelFanOut& operator=(const ParallelFanOut&) = delete;

  // TraceSink
  void on_record(const TraceRecord& rec) override;
  void push_batch(std::span<const TraceRecord> batch) override;
  /// A batch of at least batch_records records, arriving while nothing
  /// is staged, goes into the window as it is: the workers read the
  /// caller's storage and no record is copied. Anything else is staged
  /// exactly as push_batch stages it. This is the view evaluator's
  /// handoff.
  void push_batch_shared(SharedBatch batch) override;
  /// Flushes the pending batch, waits for the workers to drain the
  /// window and joins them, replays failed workers' sinks under
  /// supervision, ends every sink that is not lost on the calling
  /// thread, then rethrows the first unrecovered worker exception, if
  /// any. Idempotent.
  void on_end() override;

  /// Valid after on_end().
  [[nodiscard]] const PipelineCounters& counters() const noexcept {
    return counters_;
  }

 private:
  struct Worker {
    std::vector<std::size_t> sinks;  ///< positions in sinks_ it drives
    std::thread thread;
    std::exception_ptr error;
    /// Delivery counts are the thread's, read after it is joined; stall
    /// and occupancy counts are under mu_.
    WorkerCounters stats;
    std::chrono::steady_clock::time_point first_batch{};
    std::chrono::steady_clock::time_point last_batch{};
    // Under mu_.
    std::uint64_t cursor = 0;        ///< index of the next batch to take
    std::uint64_t heartbeat_us = 0;  ///< last take, since start_
    std::chrono::steady_clock::time_point stalled_at{};
    bool busy = false;       ///< holds a batch it has not handed back
    bool done = false;       ///< thread body finished
    bool stalled = false;    ///< the reader gave up on it
    bool lost = false;       ///< beyond recovery; the window drops its share
    bool abandoned = false;  ///< thread never exited; detached, not joined
  };

  /// How far a worker got with the batch in hand.
  struct Delivery {
    std::size_t whole = 0;  ///< leading sinks that received it whole
    bool in_sink = false;   ///< a sink's own push_batch is running or threw
  };

  [[nodiscard]] bool supervised() const noexcept {
    return options_.worker_timeout > 0 && !workers_.empty();
  }
  [[nodiscard]] std::uint64_t end() const noexcept {
    return first_ + window_.size();
  }

  void flush_pending();
  /// Hands one batch to sinks_[i] for each i in `ids` in order, counting
  /// in `progress`; with a registry, adds each delivery's wall time to
  /// sink_time_[i] and the whole to `latency`. Returns when it ended.
  template <class Ids>
  std::chrono::steady_clock::time_point deliver(
      const Ids& ids, std::span<const TraceRecord> records,
      obs::HistogramData& latency, Delivery& progress);
  void publish(SharedBatch batch);
  void worker_main(Worker& worker);
  /// Hands back the batch in hand, then takes the next one; nullptr at
  /// the end of the stream or once the reader gave up on `worker`.
  SharedBatch take(Worker& worker, const Delivery& progress);
  // Under mu_:
  /// Credits the sinks that received the batch in hand whole.
  void hand_back(Worker& worker, const Delivery& progress);
  /// Drops the batches that no sink which is not lost is behind.
  void trim();
  /// Waits on the workers while `pending()` holds; under supervision it
  /// gives up on a worker that held a batch for the timeout.
  template <class Pending>
  void wait_on_workers(std::unique_lock<std::mutex>& lock, Pending pending);
  /// Replays failed workers' sinks; counts the supervision outcome.
  void replay();

  std::vector<TraceSink*> sinks_;
  ParallelOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  RecordBatch pending_;
  obs::HistogramData inline_latency_;  // jobs == 0 batch timings
  // Delivery time per sink, timed only with a registry. Slot i is written
  // only by the thread that drives sink i and read after it is joined.
  std::vector<std::chrono::steady_clock::duration> sink_time_;
  PipelineCounters counters_;
  bool finished_ = false;
  std::chrono::steady_clock::time_point start_;

  // The window, under mu_. The reader waits on progressed_ (a take or a
  // worker's end), the workers on published_ (a batch or the end).
  std::mutex mu_;
  std::condition_variable published_;
  std::condition_variable progressed_;
  std::deque<SharedBatch> window_;
  std::uint64_t first_ = 0;              ///< index of window_.front()
  std::vector<std::uint64_t> received_;  ///< per sink: batches received whole
  std::uint64_t charged_ = 0;  ///< bytes of window_ charged to the budget
  bool closed_ = false;        ///< no batch follows
  bool aborted_ = false;       ///< teardown: workers stop at once
  bool spilled_ = false;
};

}  // namespace tdt::trace
