// One-pass parallel simulation pipeline. A ParallelFanOut is a TraceSink
// that broadcasts batches of TraceRecords to N downstream sinks, grouped
// onto worker threads fed through bounded ring-buffer queues
// (util/bounded_queue.hpp). A single streaming pass over a trace thus
// drives any number of cache configurations or analysis sinks at once:
//
//   reader (parse [+ transform]) --batch--> [queue] -> worker 0: sinks 0, W, ...
//                                --batch--> [queue] -> worker 1: sinks 1, W+1, ...
//
// Determinism: every sink receives the full record stream in trace
// order, so each sink's results are bit-identical to a sequential run,
// and the caller collects/merges statistics in sink order — never in
// worker completion order. jobs == 0 runs the same batched code path
// inline with no threads: that is the reference sequential mode the
// parallel output is compared against.
//
// Thread-safety contract: the reader thread is the only one that interns
// into the TraceContext; workers may resolve symbols they received
// through the queues (StringPool storage is append-only and stable; the
// queue mutex provides the happens-before edge).
//
// Supervision (--worker-timeout > 0): every worker publishes a
// heartbeat; a watchdog thread flags any worker that holds work but has
// not beaten for the timeout, aborts its queue (so the reader never
// deadlocks against a dead stage), and on_end() re-simulates the batches
// the worker missed sequentially into its sinks — every published batch
// is retained for exactly this replay, so recovered results are
// bit-identical to a clean run. Recovery is reported through
// PipelineCounters (recovered_workers > 0 → the tool exits 1); a worker
// that cannot be recovered (its thread is wedged beyond the grace
// period, or the replay buffer was spilled under --max-memory) stays an
// error and the run exits 2. With worker_timeout == 0 nothing is
// retained and behaviour is exactly the unsupervised original.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/sink.hpp"
#include "util/bounded_queue.hpp"
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
  /// Per-worker queue capacity, in batches (bounds memory and applies
  /// backpressure to the reader).
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
  /// Watchdog timeout in seconds; 0 disables supervision entirely (no
  /// watchdog thread, no batch retention — the original behaviour).
  double worker_timeout = 0;
  /// Optional budget charged for the supervision replay buffer. Replay
  /// retention is a degradable capability: on exhaustion it spills (stops
  /// retaining, releases its charge) instead of failing, at the price
  /// that a later worker failure can no longer be recovered.
  Budget* memory = nullptr;
};

/// Counters of one worker stage, snapshotted at on_end().
struct WorkerCounters {
  std::size_t sinks = 0;          ///< downstream sinks owned by this worker
  std::uint64_t records = 0;
  std::uint64_t batches = 0;
  std::uint64_t push_stalls = 0;  ///< reader blocked on this worker's queue
  std::uint64_t pop_stalls = 0;   ///< worker starved waiting for the reader
  std::uint64_t occupancy_sum = 0;   ///< queue depth summed per push
  std::uint64_t peak_occupancy = 0;  ///< deepest the queue ever got
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
  double worker_timeout = 0;            ///< configured watchdog timeout (s)
  std::size_t stalled_workers = 0;      ///< workers the watchdog gave up on
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
  /// options.jobs > 0, each sink is driven from exactly one worker
  /// thread (sink i belongs to worker i % jobs); sinks never need
  /// internal synchronisation.
  explicit ParallelFanOut(std::vector<TraceSink*> sinks,
                          ParallelOptions options = {});

  /// Aborts the queues and joins workers if on_end() was never reached
  /// (error unwinding); never throws.
  ~ParallelFanOut() override;

  ParallelFanOut(const ParallelFanOut&) = delete;
  ParallelFanOut& operator=(const ParallelFanOut&) = delete;

  // TraceSink
  void on_record(const TraceRecord& rec) override;
  void push_batch(std::span<const TraceRecord> batch) override;
  /// A batch of at least batch_records records, arriving while nothing
  /// is staged, goes on the worker queues as it is: the workers read
  /// the caller's storage and no record is copied. Anything else is
  /// staged exactly as push_batch stages it. This is the view
  /// evaluator's handoff.
  void push_batch_shared(SharedBatch batch) override;
  /// Flushes the pending batch, closes the queues, joins the workers,
  /// forwards on_end to every sink (in the worker that owns it), then
  /// rethrows the first worker exception, if any. Idempotent.
  void on_end() override;

  /// Valid after on_end().
  [[nodiscard]] const PipelineCounters& counters() const noexcept {
    return counters_;
  }

 private:
  struct Worker {
    BoundedQueue<SharedBatch> queue;
    std::vector<std::size_t> sinks;  ///< positions in sinks_ it drives
    std::thread thread;
    std::exception_ptr error;
    std::uint64_t records = 0;
    std::uint64_t batches = 0;
    obs::HistogramData batch_latency_us;  // thread-private, folded at join
    std::chrono::steady_clock::time_point first_batch{};
    std::chrono::steady_clock::time_point last_batch{};
    // Supervision state. The worker thread writes the atomics; the
    // watchdog and on_end() read them (and the watchdog writes failed /
    // failed_at). The plain flags below are only touched under sup_mu_
    // or after the thread is joined.
    std::atomic<std::uint64_t> heartbeat_us{0};  ///< last activity vs start_
    std::atomic<std::uint64_t> completed{0};     ///< batches fully delivered
    std::atomic<bool> done{false};               ///< thread body finished
    std::atomic<bool> failed{false};             ///< watchdog declared dead
    std::chrono::steady_clock::time_point failed_at{};
    bool abandoned = false;   ///< thread never exited; detached, not joined
    bool recovered = false;   ///< sinks were replayed to parity by on_end

    explicit Worker(std::size_t queue_capacity) : queue(queue_capacity) {}
  };

  [[nodiscard]] bool supervised() const noexcept {
    return options_.worker_timeout > 0 && !workers_.empty();
  }

  void flush_pending();
  /// jobs == 0: delivers one batch to every sink on the calling thread.
  void deliver_inline(std::span<const TraceRecord> records);
  /// Delivers one batch to sinks_[i] for each i in `ids`, adding each
  /// delivery's wall time to sink_time_[i]; returns when the last ended.
  template <class Ids>
  std::chrono::steady_clock::time_point deliver_timed(
      const Ids& ids, std::span<const TraceRecord> records,
      std::chrono::steady_clock::time_point begin);
  void publish(SharedBatch batch);
  void worker_main(Worker& worker);
  void watchdog_main();
  /// Supervised shutdown: waits for workers to settle (abandoning wedged
  /// ones after a grace period), stops the watchdog, joins, and replays
  /// failed workers' missed batches into their sinks.
  void supervised_join();
  void drop_replay() noexcept;

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

  // Supervision plumbing (idle unless worker_timeout > 0).
  std::thread watchdog_;
  std::mutex sup_mu_;
  std::condition_variable sup_cv_;
  bool watchdog_stop_ = false;           // under sup_mu_
  std::vector<SharedBatch> replay_;      // reader/on_end thread only
  bool replay_spilled_ = false;
  std::uint64_t replay_charged_ = 0;
};

}  // namespace tdt::trace
