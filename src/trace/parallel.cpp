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
  received_.assign(sinks_.size(), 0);

  const std::size_t jobs = std::min(options_.jobs, sinks_.size());
  counters_.family = options_.family;
  counters_.jobs = jobs;
  counters_.batch_records = options_.batch_records;
  counters_.queue_batches = options_.queue_batches;
  counters_.worker_timeout = options_.worker_timeout;
  if (jobs == 0) return;
  workers_.resize(jobs);
  for (auto& worker : workers_) worker = std::make_unique<Worker>();
  for (std::size_t i = 0; i < sinks_.size(); ++i) {
    workers_[i % jobs]->sinks.push_back(i);
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, &w = *worker] { worker_main(w); });
  }
}

ParallelFanOut::~ParallelFanOut() {
  if (!finished_) {
    // Error unwinding: stop the workers without draining.
    if (supervised()) fault::FaultInjector::release_stalls();
    {
      std::lock_guard lock(mu_);
      closed_ = aborted_ = true;
    }
    published_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->abandoned) {
      // A wedged thread may still touch its Worker: leak it rather than
      // free it under a live thread (only after a real wedge; exit 2).
      static_cast<void>(worker.release());
    } else if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
  if (options_.memory != nullptr) options_.memory->release(charged_);
}

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point begin,
                         std::chrono::steady_clock::time_point end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
          .count());
}

std::uint64_t charge_bytes(const RecordBatch& batch) {
  return batch.size() * sizeof(TraceRecord) + sizeof(RecordBatch);
}

}  // namespace

template <class Ids>
std::chrono::steady_clock::time_point ParallelFanOut::deliver(
    const Ids& ids, std::span<const TraceRecord> records,
    obs::HistogramData& latency, Delivery& progress) {
  const bool timed = options_.registry != nullptr;
  const auto begin = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  auto mark = begin;
  for (std::size_t i : ids) {
    // The fault fires before the sink is called, so its state is known.
    if (fault::FaultInjector::enabled() &&
        fault::should_fire(fault::Site::SinkPushBatch)) [[unlikely]] {
      throw_io_error("sink rejected batch (injected fault)");
    }
    progress.in_sink = true;
    sinks_[i]->push_batch(records);
    progress.in_sink = false;
    ++progress.whole;
    if (timed) {
      const auto now = std::chrono::steady_clock::now();
      sink_time_[i] += now - mark;
      mark = now;
    }
  }
  if (timed) latency.record(elapsed_us(begin, mark));
  return mark;
}

void ParallelFanOut::worker_main(Worker& worker) {
  Delivery progress;
  // Held across take(), so the window never frees a batch under its lock.
  SharedBatch batch;
  try {
    while ((batch = take(worker, progress))) {
      progress = {};
      if (fault::FaultInjector::enabled()) [[unlikely]] {
        // Worker-body faults fire before any of its sinks has the batch.
        // A stalled worker the reader gave up on still hands back what it
        // delivers; replay resumes after it.
        if (fault::should_fire(fault::Site::WorkerThrow)) {
          throw Error(ErrorKind::Internal,
                      "worker thread failure (injected fault)");
        }
        if (fault::should_fire(fault::Site::WorkerExit)) {
          throw Error(ErrorKind::Internal,
                      "worker exited prematurely (injected fault)");
        }
        static_cast<void>(fault::maybe_stall());
      }
      WorkerCounters& stats = worker.stats;
      if (options_.registry != nullptr && stats.batches == 0) {
        worker.first_batch = std::chrono::steady_clock::now();
      }
      worker.last_batch =
          deliver(worker.sinks, *batch, stats.batch_latency_us, progress);
      stats.records += batch->size();
      ++stats.batches;
    }
  } catch (...) {
    worker.error = std::current_exception();
  }
  {
    std::lock_guard lock(mu_);
    hand_back(worker, progress);
    worker.done = true;
    // A sink that threw from inside its own call is in an unknown state.
    if (worker.error != nullptr &&
        (!supervised() || spilled_ || progress.in_sink)) {
      worker.lost = true;
    }
    trim();
  }
  progressed_.notify_one();
}

SharedBatch ParallelFanOut::take(Worker& worker, const Delivery& progress) {
  if (fault::FaultInjector::enabled()) [[unlikely]] {
    fault::maybe_delay(fault::Site::QueuePopDelay);
  }
  std::unique_lock lock(mu_);
  hand_back(worker, progress);
  trim();
  const auto ready = [&] {
    return worker.cursor < end() || closed_ || worker.stalled;
  };
  if (!ready()) {
    ++worker.stats.pop_stalls;
    published_.wait(lock, ready);
  }
  if (aborted_ || worker.stalled || worker.cursor == end()) return nullptr;
  SharedBatch batch = window_[worker.cursor++ - first_];
  worker.busy = true;
  worker.heartbeat_us = elapsed_us(start_, std::chrono::steady_clock::now());
  lock.unlock();
  progressed_.notify_one();
  return batch;
}

void ParallelFanOut::hand_back(Worker& worker, const Delivery& progress) {
  if (!std::exchange(worker.busy, false)) return;
  for (std::size_t k = 0; k < progress.whole; ++k) {
    received_[worker.sinks[k]] = worker.cursor;
  }
}

void ParallelFanOut::trim() {
  std::uint64_t keep = end();
  for (std::size_t i = 0; i < sinks_.size(); ++i) {
    if (!workers_[i % workers_.size()]->lost) {
      keep = std::min(keep, received_[i]);
    }
  }
  for (; first_ < keep; ++first_) {
    if (charged_ != 0) {
      const std::uint64_t bytes = charge_bytes(*window_.front());
      charged_ -= bytes;
      if (options_.memory != nullptr) options_.memory->release(bytes);
    }
    window_.pop_front();
  }
}

template <class Pending>
void ParallelFanOut::wait_on_workers(std::unique_lock<std::mutex>& lock,
                                     Pending pending) {
  // Poll at a quarter of the timeout, clamped to [1, 100] ms: detection
  // within ~1.25x the configured timeout.
  const auto poll = std::chrono::milliseconds(std::clamp<std::int64_t>(
      static_cast<std::int64_t>(options_.worker_timeout * 250), 1, 100));
  const auto timeout_us =
      static_cast<std::uint64_t>(options_.worker_timeout * 1e6);
  while (pending()) {
    if (!supervised()) {
      progressed_.wait(lock);
      continue;
    }
    progressed_.wait_for(lock, poll);
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t now_us = elapsed_us(start_, now);
    for (auto& w : workers_) {
      // Only a worker holding a batch can stall; one waiting for a batch
      // is merely starved (the reader is the slow side).
      if (w->done || w->stalled || !w->busy ||
          now_us < w->heartbeat_us + timeout_us) {
        continue;
      }
      w->stalled = true;
      w->stalled_at = now;
      if (spilled_) w->lost = true;
      fault::FaultInjector::release_stalls();
    }
    trim();
  }
}

void ParallelFanOut::publish(SharedBatch batch) {
  if (fault::FaultInjector::enabled()) [[unlikely]] {
    fault::maybe_delay(fault::Site::QueuePushDelay);
  }
  std::unique_lock lock(mu_);
  const auto behind = [&](const std::unique_ptr<Worker>& w) {
    return !w->done && !w->stalled &&
           end() - w->cursor >= options_.queue_batches;
  };
  const auto full = [&] { return std::ranges::any_of(workers_, behind); };
  if (full()) {
    for (auto& w : workers_) w->stats.push_stalls += behind(w) ? 1 : 0;
    wait_on_workers(lock, full);
  }
  if (supervised() && !spilled_) {
    const std::uint64_t bytes = charge_bytes(*batch);
    if (options_.memory == nullptr || options_.memory->try_charge(bytes)) {
      charged_ += bytes;
    } else {
      // Spill: give the charge back and keep nothing for failed workers,
      // which become lost, instead of failing the run.
      spilled_ = true;
      options_.memory->release(charged_);
      charged_ = 0;
      for (auto& w : workers_) {
        if (w->stalled || (w->done && w->error != nullptr)) w->lost = true;
      }
      trim();
    }
  }
  window_.push_back(std::move(batch));
  trim();  // drops it at once when every worker is lost
  for (auto& w : workers_) {
    if (w->done || w->stalled) continue;
    const std::uint64_t left = end() - w->cursor;
    w->stats.occupancy_sum += left;
    w->stats.peak_occupancy = std::max(w->stats.peak_occupancy, left);
  }
  lock.unlock();
  published_.notify_all();
}

void ParallelFanOut::replay() {
  for (auto& wp : workers_) {
    Worker& w = *wp;
    if (w.stalled) ++counters_.stalled_workers;
    if (!w.stalled && w.error == nullptr) continue;
    if (w.lost) {
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
    // Each sink resumes from its own count, in publish order, so it sees
    // the exact record stream of a clean run. Replay bypasses the
    // sink.push-batch fault site: it is the fallback of last resort.
    std::uint64_t from = end();
    for (std::size_t i : w.sinks) from = std::min(from, received_[i]);
    for (std::uint64_t b = from; b < end(); ++b) {
      const RecordBatch& records = *window_[b - first_];
      for (std::size_t i : w.sinks) {
        if (received_[i] > b) continue;
        sinks_[i]->push_batch(records);
        received_[i] = b + 1;
      }
      w.stats.records += records.size();
      ++w.stats.batches;
      ++counters_.replayed_batches;
    }
    w.error = nullptr;
    ++counters_.recovered_workers;
  }
  counters_.replay_spilled = spilled_;
}

void ParallelFanOut::flush_pending() {
  if (pending_.empty()) return;
  counters_.records += pending_.size();
  ++counters_.batches;
  if (workers_.empty()) {
    Delivery unused;
    deliver(std::views::iota(std::size_t{0}, sinks_.size()), pending_,
            inline_latency_, unused);
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
  // more than batch_records records at once, and the window never holds
  // more than queue_batches x batch_records copied records per worker.
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
        Delivery unused;
        deliver(std::views::iota(std::size_t{0}, sinks_.size()), slice,
                inline_latency_, unused);
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
  // it is: the window shares the caller's storage, so whatever its size
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
  // The lock is held to the end: a thread abandoned below may still hand
  // back, and must not touch the window while replay reads it.
  std::unique_lock lock(mu_);
  if (!workers_.empty()) {
    closed_ = true;
    published_.notify_all();
    // Give a worker the reader gave up on this long to notice and exit
    // before declaring its thread wedged beyond recovery.
    const auto grace = std::chrono::duration<double>(
        std::max(options_.worker_timeout, 0.5));
    wait_on_workers(lock, [&] {
      bool pending = false;
      for (auto& w : workers_) {
        if (w->done || w->abandoned) continue;
        if (w->stalled &&
            std::chrono::steady_clock::now() - w->stalled_at > grace) {
          w->abandoned = w->lost = true;
          continue;
        }
        pending = true;
      }
      return pending;
    });
    // Every thread left is done: none needs the lock to exit.
    for (auto& w : workers_) {
      w->abandoned ? w->thread.detach() : w->thread.join();
    }
    if (supervised()) replay();
    trim();
  }
  for (std::size_t i = 0; i < sinks_.size(); ++i) {
    if (workers_.empty() || !workers_[i % workers_.size()]->lost) {
      sinks_[i]->on_end();
    }
  }
  counters_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  counters_.workers.reserve(workers_.size());
  for (const auto& w : workers_) {
    // A wedged thread still owns its counts.
    counters_.workers.push_back(w->abandoned ? WorkerCounters{} : w->stats);
    counters_.workers.back().sinks = w->sinks.size();
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
      if (wc.batches > 0) {
        reg->add_span(lane_name + std::to_string(i), workers_[i]->first_batch,
                      workers_[i]->last_batch,
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
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      if (workers_.empty() || !workers_[i % workers_.size()]->abandoned) {
        reg->gauge(prefix + "sink" + std::to_string(i) + ".seconds")
            .set(std::chrono::duration<double>(sink_time_[i]).count());
      }
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
            .set(static_cast<double>(workers_[i]->heartbeat_us));
      }
    }
  }
  for (const auto& worker : workers_) {
    if (worker->error) std::rethrow_exception(worker->error);
  }
}

}  // namespace tdt::trace
