// Ordered worker pool: numbered jobs 0, 1, 2, ... run on N worker
// threads and come back to one consumer strictly in job order, whatever
// order they finish in. With N = 0, take() runs each job inline, on the
// consumer, when its turn comes. TDTB v3 frame decode, TDTB v3 frame
// compression and the text prefetcher run on it (docs/PERF.md).
//
// Job k starts only once k < released + window, where `released` counts
// the slots the consumer gave back, and fills slot k % window: at most
// `window` jobs are in flight, the slot the consumer holds included,
// and slot storage is recycled, never allocated per job. A job's
// exception is rethrown by take() at that job's turn. The destructor
// cancels and joins: a running job finishes, a waiting worker leaves.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace tdt {

template <class Slot>
class OrderedPool {
 public:
  /// Fills `slot` for job `k` and returns true, or returns false when
  /// the jobs end before `k`. Each worker thread runs its own copy, so
  /// state the job captures by value is that thread's scratch.
  using Job = std::function<bool(std::uint64_t k, Slot& slot)>;

  /// Self: every job may start once the window admits it; the jobs run
  /// until one reports the end. Fed: job k also waits for the owner to
  /// fill its slot and call feed(), and take() takes only fed jobs.
  enum class Start : std::uint8_t { Self, Fed };

  /// Starts `threads` workers. When one cannot start, joins those that
  /// did, then throws.
  OrderedPool(std::size_t threads, std::size_t window, Job job,
              Start start = Start::Self)
      : job_(std::move(job)),
        slots_(std::max<std::size_t>(window, 1)),
        turns_(slots_.size()),
        fed_count_(start == Start::Fed ? 0 : kNever) {
    workers_.reserve(threads);
    try {
      for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { work(); });
      }
    } catch (...) {
      stop();
      throw;
    }
  }

  ~OrderedPool() { stop(); }

  OrderedPool(const OrderedPool&) = delete;
  OrderedPool& operator=(const OrderedPool&) = delete;

  /// Fed pools: the slot of the next job to feed, once the window has
  /// room for it. The owner fills it, then calls feed().
  Slot& feed_slot() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return fed_count_ < released_ + slots_.size(); });
    return slots_[fed_count_ % slots_.size()];
  }

  void feed() {
    std::lock_guard lock(mu_);
    ++fed_count_;
    cv_.notify_all();
  }

  /// Releases the slot the consumer still holds, then waits for the next
  /// job in order and returns its slot, held until release() or the next
  /// take(). nullptr once a job reported the end. Rethrows the job's
  /// exception; every take() after that returns nullptr.
  Slot* take() {
    release();
    std::unique_lock lock(mu_);
    const std::uint64_t k = taken_;
    Turn& turn = turns_[k % slots_.size()];
    if (workers_.empty() && k < end_) run(job_, next_claim_++, lock);
    cv_.wait(lock, [&] { return k >= end_ || turn.done == k + 1; });
    if (k >= end_) return nullptr;
    if (turn.error) {
      end_ = k;
      std::rethrow_exception(std::exchange(turn.error, nullptr));
    }
    ++taken_;
    return &slots_[k % slots_.size()];
  }

  /// Gives back the slot take() returned: the window opens by one job.
  void release() {
    // Only the consumer writes released_, so it may read it unlocked.
    if (released_ == taken_) return;
    std::lock_guard lock(mu_);
    ++released_;
    cv_.notify_all();
  }

 private:
  struct Turn {
    std::uint64_t done = 0;  // k + 1 once job k filled the slot
    std::exception_ptr error;
  };

  void work() {
    const Job job = job_;  // this thread's copy
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] {
        return cancel_ || next_claim_ >= end_ ||
               next_claim_ < std::min(released_ + slots_.size(), fed_count_);
      });
      if (cancel_ || next_claim_ >= end_) return;
      run(job, next_claim_++, lock);
    }
  }

  /// Runs job `k` outside the lock, which `lock` holds on entry and on
  /// return, and records how it ended.
  void run(const Job& job, std::uint64_t k,
           std::unique_lock<std::mutex>& lock) {
    lock.unlock();
    bool more = false;
    std::exception_ptr error;
    try {
      more = job(k, slots_[k % slots_.size()]);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    Turn& turn = turns_[k % slots_.size()];
    if (error || more) turn.done = k + 1;
    turn.error = std::move(error);
    if (!more) end_ = std::min(end_, turn.error ? k + 1 : k);
    cv_.notify_all();
  }

  void stop() noexcept {
    {
      std::lock_guard lock(mu_);
      cancel_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  const Job job_;  // run inline when there are no workers
  std::vector<Slot> slots_;  // job k fills slots_[k % window]
  std::uint64_t taken_ = 0;  // consumer only: the next job to hand out

  // Guarded by mu_. A slot belongs to the job that claimed it until its
  // turn is done, then to the consumer until release().
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Turn> turns_;  // parallel to slots_
  std::uint64_t fed_count_;  // kNever for a self-starting pool
  std::uint64_t next_claim_ = 0;
  std::uint64_t released_ = 0;  // written by the consumer only
  std::uint64_t end_ = kNever;
  bool cancel_ = false;
  std::vector<std::thread> workers_;  // last: joined before the rest goes
};

}  // namespace tdt
