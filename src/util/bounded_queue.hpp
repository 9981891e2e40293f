// Bounded blocking queue over a fixed ring buffer. Its one user is the
// tdtd daemon's request scheduler (service/daemon.hpp): sessions push
// jobs, the worker pool pops them, and try_push() turns a full queue
// into a "busy" reply. Producers block while the ring is full
// (backpressure) and consumers block while it is empty (starvation);
// both stall kinds and the queue occupancy are counted. close() ends
// the stream gracefully (consumers drain what is queued); abort() tears
// it down (pending items dropped, everyone wakes immediately). The trace
// pipeline's fan-out keeps its own window (trace/parallel.hpp).
//
// Multi-producer / multi-consumer safe; all state lives under one mutex,
// which is plenty for request-granular traffic. close() and abort() are
// idempotent and safe to race with each other and with concurrent
// push/pop from any thread.

#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

namespace tdt {

template <typename T>
class BoundedQueue {
 public:
  /// Observability counters, snapshot via counters().
  struct Counters {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t push_stalls = 0;  ///< pushes that blocked (queue full)
    std::uint64_t pop_stalls = 0;   ///< pops that blocked (queue empty)
    std::uint64_t occupancy_sum = 0;  ///< depth sampled after each push
    std::uint64_t peak_occupancy = 0;
  };

  explicit BoundedQueue(std::size_t capacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false (item dropped) when the queue is
  /// closed or aborted.
  bool push(T item) {
    std::unique_lock lock(mu_);
    if (count_ == ring_.size() && !closed_) {
      ++counters_.push_stalls;
      not_full_.wait(lock, [&] { return count_ < ring_.size() || closed_; });
    }
    if (closed_) return false;
    ring_[(head_ + count_) % ring_.size()] = std::move(item);
    ++count_;
    ++counters_.pushes;
    counters_.occupancy_sum += count_;
    counters_.peak_occupancy = std::max<std::uint64_t>(
        counters_.peak_occupancy, count_);
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: returns false (item dropped, no wait) when the
  /// queue is full, closed, or aborted. Admission-control entry point —
  /// callers that must not stall a caller-facing thread (the tdtd request
  /// scheduler) use this and surface "busy" instead of blocking.
  bool try_push(T item) {
    std::unique_lock lock(mu_);
    if (closed_ || count_ == ring_.size()) return false;
    ring_[(head_ + count_) % ring_.size()] = std::move(item);
    ++count_;
    ++counters_.pushes;
    counters_.occupancy_sum += count_;
    counters_.peak_occupancy = std::max<std::uint64_t>(
        counters_.peak_occupancy, count_);
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty. Returns nullopt once the queue is closed and
  /// drained, or aborted.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    if (count_ == 0 && !closed_) {
      ++counters_.pop_stalls;
      not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
    }
    if (count_ == 0) return std::nullopt;
    T item = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --count_;
    ++counters_.pops;
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Rejects further pushes; queued items still drain through pop().
  /// Idempotent, and safe to race with push/pop/abort from any thread.
  void close() {
    {
      std::lock_guard lock(mu_);
      if (closed_) return;
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// close() plus: drops everything still queued. Idempotent; also
  /// demotes an earlier plain close() by discarding the backlog.
  void abort() {
    {
      std::lock_guard lock(mu_);
      if (closed_ && count_ == 0) return;
      closed_ = true;
      head_ = 0;
      count_ = 0;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return count_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  [[nodiscard]] Counters counters() const {
    std::lock_guard lock(mu_);
    return counters_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  bool closed_ = false;
  Counters counters_;
};

}  // namespace tdt
