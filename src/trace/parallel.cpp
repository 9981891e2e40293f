#include "trace/parallel.hpp"

#include <algorithm>
#include <cstdio>
#include <ranges>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace tdt::trace {

double PipelineCounters::records_per_second() const noexcept {
  return seconds > 0 ? static_cast<double>(records) / seconds : 0.0;
}

std::string PipelineCounters::summary() const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %llu records in %llu batches, %.3f s (%.2f Mrec/s),"
                " %zu worker%s (batch %zu, queue depth %zu)\n",
                family.c_str(), static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(batches), seconds,
                records_per_second() / 1e6, jobs, jobs == 1 ? "" : "s",
                batch_records, queue_batches);
  std::string out = line;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerCounters& w = workers[i];
    const double avg_occupancy =
        w.batches > 0 ? static_cast<double>(w.occupancy_sum) /
                            static_cast<double>(w.batches)
                      : 0.0;
    std::snprintf(line, sizeof(line),
                  "  worker %zu (%zu sink%s): %llu records, "
                  "%llu backpressure stalls, %llu idle waits, "
                  "queue avg %.1f peak %llu\n",
                  i, w.sinks, w.sinks == 1 ? "" : "s",
                  static_cast<unsigned long long>(w.records),
                  static_cast<unsigned long long>(w.push_stalls),
                  static_cast<unsigned long long>(w.pop_stalls), avg_occupancy,
                  static_cast<unsigned long long>(w.peak_occupancy));
    out += line;
  }
  if (stalled_workers != 0 || recovered_workers != 0 || lost_workers != 0 ||
      replay_spilled) {
    std::snprintf(line, sizeof(line),
                  "  supervision: %zu stalled, %zu recovered, %zu lost, "
                  "%llu batches replayed%s\n",
                  stalled_workers, recovered_workers, lost_workers,
                  static_cast<unsigned long long>(replayed_batches),
                  replay_spilled ? " (replay buffer spilled)" : "");
    out += line;
  }
  return out;
}

ParallelFanOut::ParallelFanOut(std::vector<TraceSink*> sinks,
                               ParallelOptions options)
    : sinks_(std::move(sinks)),
      options_(options),
      start_(std::chrono::steady_clock::now()) {
  if (options_.batch_records == 0) options_.batch_records = 1;
  if (options_.queue_batches == 0) options_.queue_batches = 1;
  pending_.reserve(options_.batch_records);
  sink_time_.assign(sinks_.size(), {});

  const std::size_t jobs = std::min(options_.jobs, sinks_.size());
  counters_.family = options_.family;
  counters_.jobs = jobs;
  counters_.batch_records = options_.batch_records;
  counters_.queue_batches = options_.queue_batches;
  counters_.worker_timeout = options_.worker_timeout;
  if (jobs == 0) return;
  workers_.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) {
    workers_.push_back(std::make_unique<Worker>(options_.queue_batches));
  }
  for (std::size_t i = 0; i < sinks_.size(); ++i) {
    workers_[i % jobs]->sinks.push_back(i);
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, &w = *worker] { worker_main(w); });
  }
  if (supervised()) {
    watchdog_ = std::thread([this] { watchdog_main(); });
  }
}

ParallelFanOut::~ParallelFanOut() {
  if (!finished_) {
    // Error unwinding: tear the pipeline down without draining.
    if (supervised()) fault::FaultInjector::release_stalls();
    for (auto& worker : workers_) worker->queue.abort();
  }
  if (watchdog_.joinable()) {
    {
      std::lock_guard lock(sup_mu_);
      watchdog_stop_ = true;
    }
    sup_cv_.notify_all();
    watchdog_.join();
  }
  for (auto& worker : workers_) {
    if (worker->abandoned) {
      // The wedged thread may still touch its Worker (heartbeat, queue);
      // leak the struct deliberately rather than free it under a live
      // thread. Only reachable after a real (non-injected) wedge, and
      // the process is about to exit 2 anyway.
      static_cast<void>(worker.release());
      continue;
    }
    if (worker->thread.joinable()) worker->thread.join();
  }
  drop_replay();
}

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point begin,
                         std::chrono::steady_clock::time_point end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
          .count());
}

/// All sink deliveries funnel through here so the sink.push-batch fault
/// site covers the inline, worker, and fast-forward paths alike.
void deliver_batch(TraceSink* sink, std::span<const TraceRecord> records) {
  if (fault::FaultInjector::enabled() &&
      fault::should_fire(fault::Site::SinkPushBatch)) [[unlikely]] {
    throw_io_error("sink rejected batch (injected fault)");
  }
  sink->push_batch(records);
}

}  // namespace

template <class Ids>
std::chrono::steady_clock::time_point ParallelFanOut::deliver_timed(
    const Ids& ids, std::span<const TraceRecord> records,
    std::chrono::steady_clock::time_point begin) {
  auto mark = begin;
  for (std::size_t i : ids) {
    deliver_batch(sinks_[i], records);
    const auto now = std::chrono::steady_clock::now();
    sink_time_[i] += now - mark;
    mark = now;
  }
  return mark;
}

void ParallelFanOut::worker_main(Worker& worker) {
  const bool timed = options_.registry != nullptr;
  const bool sup = supervised();
  const auto beat = [&] {
    if (sup) {
      worker.heartbeat_us.store(
          elapsed_us(start_, std::chrono::steady_clock::now()),
          std::memory_order_release);
    }
  };
  beat();
  bool premature = false;
  try {
    while (auto batch = worker.queue.pop()) {
      beat();
      if (sup && worker.failed.load(std::memory_order_acquire)) {
        break;  // the watchdog already reassigned this shard
      }
      if (fault::FaultInjector::enabled()) [[unlikely]] {
        // Worker-body faults fire at batch boundaries, so `completed` is
        // exact and recovery replays precisely the undelivered suffix.
        if (fault::should_fire(fault::Site::WorkerThrow)) {
          throw Error(ErrorKind::Internal,
                      "worker thread failure (injected fault)");
        }
        if (fault::should_fire(fault::Site::WorkerExit)) {
          premature = true;
          break;
        }
        if (fault::maybe_stall() &&
            worker.failed.load(std::memory_order_acquire)) {
          break;  // stalled past the watchdog; batch now owed to replay
        }
      }
      const RecordBatch& records = **batch;
      if (timed) {
        const auto begin = std::chrono::steady_clock::now();
        if (worker.batches == 0) worker.first_batch = begin;
        worker.last_batch = deliver_timed(worker.sinks, records, begin);
        worker.batch_latency_us.record(elapsed_us(begin, worker.last_batch));
      } else {
        for (std::size_t i : worker.sinks) deliver_batch(sinks_[i], records);
      }
      worker.records += records.size();
      ++worker.batches;
      worker.completed.store(worker.batches, std::memory_order_release);
      beat();
    }
    if (premature) {
      worker.error = std::make_exception_ptr(Error(
          ErrorKind::Internal, "worker exited prematurely (injected fault)"));
      worker.queue.abort();
    } else if (!worker.failed.load(std::memory_order_acquire)) {
      for (std::size_t i : worker.sinks) sinks_[i]->on_end();
    }
    // A failed (watchdog-flagged) worker must not finish its sinks:
    // supervised_join() replays the missed batches and ends them.
  } catch (...) {
    worker.error = std::current_exception();
    // Unblock the reader: its pushes to this queue now return false.
    worker.queue.abort();
  }
  worker.done.store(true, std::memory_order_release);
  if (sup) {
    { std::lock_guard lock(sup_mu_); }  // pair with the waiters' predicates
    sup_cv_.notify_all();
  }
}

void ParallelFanOut::watchdog_main() {
  const std::uint64_t timeout_us =
      static_cast<std::uint64_t>(options_.worker_timeout * 1e6);
  // Poll at a quarter of the timeout, clamped to [1, 100] ms: detection
  // within ~1.25x the configured timeout, negligible idle cost.
  const auto poll = std::chrono::milliseconds(std::clamp<std::int64_t>(
      static_cast<std::int64_t>(options_.worker_timeout * 250), 1, 100));
  std::vector<obs::Gauge*> gauges;
  if (options_.registry != nullptr) {
    gauges.reserve(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      gauges.push_back(&options_.registry->gauge(
          options_.family + ".worker" + std::to_string(i) + ".heartbeat_us"));
    }
  }
  std::unique_lock lock(sup_mu_);
  while (!watchdog_stop_) {
    sup_cv_.wait_for(lock, poll);
    if (watchdog_stop_) break;
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t now_us = elapsed_us(start_, now);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = *workers_[i];
      const std::uint64_t hb = w.heartbeat_us.load(std::memory_order_acquire);
      if (!gauges.empty()) gauges[i]->set(static_cast<double>(hb));
      if (w.done.load(std::memory_order_acquire) ||
          w.failed.load(std::memory_order_acquire)) {
        continue;
      }
      // Only a worker that holds work can be stalled; one blocked on an
      // empty queue is merely starved (the reader is the slow side).
      const bool in_flight =
          w.queue.counters().pops >
          w.completed.load(std::memory_order_acquire);
      if (!in_flight && w.queue.size() == 0) continue;
      if (now_us <= hb || now_us - hb < timeout_us) continue;
      w.failed.store(true, std::memory_order_release);
      w.failed_at = now;
      // Abort (not close): the reader must never block pushing to a dead
      // shard, and whatever is queued will come from the replay buffer.
      w.queue.abort();
      fault::FaultInjector::release_stalls();
    }
  }
}

void ParallelFanOut::supervised_join() {
  // Give a flagged worker this long to notice and exit before declaring
  // its thread wedged beyond recovery.
  const auto grace =
      std::chrono::duration<double>(std::max(options_.worker_timeout, 0.5));
  {
    std::unique_lock lock(sup_mu_);
    for (;;) {
      bool settled = true;
      const auto now = std::chrono::steady_clock::now();
      for (auto& wp : workers_) {
        Worker& w = *wp;
        if (w.done.load(std::memory_order_acquire) || w.abandoned) continue;
        if (w.failed.load(std::memory_order_acquire) &&
            now - w.failed_at > grace) {
          w.abandoned = true;
          continue;
        }
        settled = false;
      }
      if (settled) break;
      sup_cv_.wait_for(lock, std::chrono::milliseconds(10));
    }
    watchdog_stop_ = true;
  }
  sup_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  for (auto& wp : workers_) {
    Worker& w = *wp;
    if (w.abandoned) {
      w.thread.detach();
      continue;
    }
    if (w.thread.joinable()) w.thread.join();
  }
  // Recovery: re-simulate each failed worker's missed suffix sequentially
  // into its own sinks. Threads are joined, so worker state is safe, and
  // batches are replayed in publish order — the recovered sinks see the
  // exact record stream a clean run would have, hence bit-identity.
  for (auto& wp : workers_) {
    Worker& w = *wp;
    if (w.failed.load(std::memory_order_relaxed)) ++counters_.stalled_workers;
    const bool needs_recovery =
        w.failed.load(std::memory_order_relaxed) || w.error != nullptr;
    if (!needs_recovery) continue;
    if (w.abandoned || replay_spilled_) {
      ++counters_.lost_workers;
      if (w.error == nullptr) {
        w.error = std::make_exception_ptr(Error(
            ErrorKind::Internal,
            w.abandoned
                ? "worker thread wedged past the grace period; results lost"
                : "worker failed after the replay buffer was spilled "
                  "(--max-memory); results lost"));
      }
      continue;
    }
    const std::uint64_t done_batches =
        w.completed.load(std::memory_order_relaxed);
    // Replay bypasses the sink.push-batch fault site deliberately: the
    // recovery path is the fallback of last resort, not a fault target.
    for (std::size_t b = done_batches; b < replay_.size(); ++b) {
      const RecordBatch& records = *replay_[b];
      for (std::size_t i : w.sinks) sinks_[i]->push_batch(records);
      w.records += records.size();
      ++w.batches;
      ++counters_.replayed_batches;
    }
    for (std::size_t i : w.sinks) sinks_[i]->on_end();
    w.recovered = true;
    w.error = nullptr;
    ++counters_.recovered_workers;
  }
  counters_.replay_spilled = replay_spilled_;
  drop_replay();
}

void ParallelFanOut::drop_replay() noexcept {
  if (options_.memory != nullptr && replay_charged_ != 0) {
    options_.memory->release(replay_charged_);
  }
  replay_charged_ = 0;
  replay_.clear();
  replay_.shrink_to_fit();
}

void ParallelFanOut::publish(SharedBatch batch) {
  if (supervised() && !replay_spilled_) {
    const std::uint64_t bytes =
        batch->size() * sizeof(TraceRecord) + sizeof(RecordBatch);
    if (options_.memory == nullptr || options_.memory->try_charge(bytes)) {
      replay_.push_back(batch);
      replay_charged_ += bytes;
    } else {
      // Spill: shed the retention capability (recovery becomes
      // unavailable for later failures) instead of failing the run.
      drop_replay();
      replay_spilled_ = true;
    }
  }
  for (auto& worker : workers_) worker->queue.push(batch);
}

void ParallelFanOut::deliver_inline(std::span<const TraceRecord> records) {
  if (options_.registry == nullptr) {
    for (TraceSink* sink : sinks_) deliver_batch(sink, records);
    return;
  }
  const auto begin = std::chrono::steady_clock::now();
  const auto end = deliver_timed(
      std::views::iota(std::size_t{0}, sinks_.size()), records, begin);
  inline_latency_.record(elapsed_us(begin, end));
}

void ParallelFanOut::flush_pending() {
  if (pending_.empty()) return;
  counters_.records += pending_.size();
  ++counters_.batches;
  if (workers_.empty()) {
    deliver_inline(pending_);
    pending_.clear();
    return;
  }
  RecordBatch next;
  next.reserve(options_.batch_records);
  next.swap(pending_);
  publish(std::make_shared<const RecordBatch>(std::move(next)));
}

void ParallelFanOut::on_record(const TraceRecord& rec) {
  pending_.push_back(rec);
  if (pending_.size() >= options_.batch_records) flush_pending();
}

void ParallelFanOut::push_batch(std::span<const TraceRecord> batch) {
  // Any span, however long, goes out in batch_records slices: full
  // slices are forwarded (inline) or published (parallel) without
  // restaging, the rest tops up the pending batch. So no sink ever sees
  // more than batch_records records at once, and the queues never hold
  // more than queue_batches x batch_records copied records.
  while (!batch.empty()) {
    if (pending_.empty() && batch.size() >= options_.batch_records) {
      const std::span<const TraceRecord> slice =
          batch.first(options_.batch_records);
      batch = batch.subspan(options_.batch_records);
      counters_.records += slice.size();
      ++counters_.batches;
      if (!workers_.empty()) {
        publish(
            std::make_shared<const RecordBatch>(slice.begin(), slice.end()));
      } else {
        deliver_inline(slice);
      }
      continue;
    }
    const std::size_t take =
        std::min(batch.size(), options_.batch_records - pending_.size());
    pending_.insert(pending_.end(), batch.begin(),
                    batch.begin() + static_cast<std::ptrdiff_t>(take));
    batch = batch.subspan(take);
    if (pending_.size() >= options_.batch_records) flush_pending();
  }
}

void ParallelFanOut::push_batch_shared(SharedBatch batch) {
  // Same staging policy as push_batch, but a full batch is published as
  // it is: the queues share the caller's storage, so whatever its size
  // and however many other consumers hold it, no record is copied.
  if (pending_.empty() && batch->size() >= options_.batch_records &&
      !workers_.empty()) {
    counters_.records += batch->size();
    ++counters_.batches;
    publish(std::move(batch));
    return;
  }
  push_batch(*batch);
}

void ParallelFanOut::on_end() {
  if (finished_) return;
  finished_ = true;
  flush_pending();
  if (workers_.empty()) {
    for (TraceSink* sink : sinks_) sink->on_end();
  } else {
    for (auto& worker : workers_) worker->queue.close();
    if (supervised()) {
      supervised_join();
    } else {
      for (auto& worker : workers_) {
        if (worker->thread.joinable()) worker->thread.join();
      }
    }
  }
  counters_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  counters_.workers.clear();
  counters_.workers.reserve(workers_.size());
  for (const auto& worker : workers_) {
    const auto q = worker->queue.counters();
    WorkerCounters wc;
    wc.sinks = worker->sinks.size();
    if (worker->abandoned) {
      // The wedged thread still owns the non-atomic stats; report only
      // what the atomics say.
      wc.batches = worker->completed.load(std::memory_order_relaxed);
    } else {
      wc.records = worker->records;
      wc.batches = worker->batches;
      wc.batch_latency_us = worker->batch_latency_us;
    }
    wc.push_stalls = q.push_stalls;
    wc.pop_stalls = q.pop_stalls;
    wc.occupancy_sum = q.occupancy_sum;
    wc.peak_occupancy = q.peak_occupancy;
    counters_.workers.push_back(wc);
  }
  if (obs::Registry* reg = options_.registry) {
    const std::string prefix = options_.family + ".";
    reg->counter(prefix + "records").add(counters_.records);
    reg->counter(prefix + "batches").add(counters_.batches);
    reg->gauge(prefix + "jobs").set(static_cast<double>(counters_.jobs));
    reg->gauge(prefix + "records_per_second")
        .set(counters_.records_per_second());
    obs::Histogram& latency = reg->histogram(prefix + "batch_latency_us");
    if (!inline_latency_.empty()) latency.merge(inline_latency_);
    // The simulation's lanes keep their plain "worker <i>" names.
    const std::string lane_name = options_.family == "pipeline"
                                      ? "worker "
                                      : options_.family + " worker ";
    std::uint64_t push_stalls = 0;
    std::uint64_t pop_stalls = 0;
    std::uint64_t occupancy_sum = 0;
    std::uint64_t occupancy_peak = 0;
    for (std::size_t i = 0; i < counters_.workers.size(); ++i) {
      const WorkerCounters& wc = counters_.workers[i];
      if (!wc.batch_latency_us.empty()) latency.merge(wc.batch_latency_us);
      push_stalls += wc.push_stalls;
      pop_stalls += wc.pop_stalls;
      occupancy_sum += wc.occupancy_sum;
      occupancy_peak = std::max(occupancy_peak, wc.peak_occupancy);
      const Worker& worker = *workers_[i];
      if (!worker.abandoned && worker.batches > 0) {
        reg->add_span(lane_name + std::to_string(i), worker.first_batch,
                      worker.last_batch,
                      options_.first_lane + static_cast<std::uint32_t>(i));
      }
    }
    reg->counter(prefix + "backpressure_stalls").add(push_stalls);
    reg->counter(prefix + "idle_waits").add(pop_stalls);
    const std::uint64_t pushes = counters_.batches * counters_.workers.size();
    reg->gauge(prefix + "queue_avg_occupancy")
        .set(pushes > 0 ? static_cast<double>(occupancy_sum) /
                              static_cast<double>(pushes)
                        : 0.0);
    reg->gauge(prefix + "queue_peak_occupancy")
        .set(static_cast<double>(occupancy_peak));
    // A wedged worker may still be writing its sinks' slots; skip them.
    const auto export_sink = [&](std::size_t i) {
      reg->gauge(prefix + "sink" + std::to_string(i) + ".seconds")
          .set(std::chrono::duration<double>(sink_time_[i]).count());
    };
    if (workers_.empty()) {
      for (std::size_t i = 0; i < sinks_.size(); ++i) export_sink(i);
    }
    for (const auto& worker : workers_) {
      if (worker->abandoned) continue;
      for (std::size_t i : worker->sinks) export_sink(i);
    }
    if (supervised()) {
      reg->counter(prefix + "stalled_workers")
          .add(counters_.stalled_workers);
      reg->counter(prefix + "recovered_workers")
          .add(counters_.recovered_workers);
      reg->counter(prefix + "lost_workers").add(counters_.lost_workers);
      reg->counter(prefix + "replayed_batches")
          .add(counters_.replayed_batches);
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        reg->gauge(prefix + "worker" + std::to_string(i) + ".heartbeat_us")
            .set(static_cast<double>(
                workers_[i]->heartbeat_us.load(std::memory_order_relaxed)));
      }
    }
  }
  for (const auto& worker : workers_) {
    if (worker->error) std::rethrow_exception(worker->error);
  }
}

}  // namespace tdt::trace
