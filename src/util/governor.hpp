// Resource governance for pipeline runs: a byte-accounted memory Budget
// and a wall-clock deadline, bundled into a Governor that tools hand to
// the view DAG's evaluation.
//
// Contract (docs/robustness.md):
//  * --max-memory: accounted allocations charge the Budget. Components
//    that can degrade (the fan-out's recovery-replay retention) *spill* —
//    they release their charge and shed the optional capability; hard
//    requirements (result sinks that must hold both traces) *fail* with
//    Error{Resource} → exit 2. Which of the two a component does is fixed
//    per call-site, never load-dependent, so a given trace + limit always
//    produces the same outcome.
//  * --deadline: checked at batch granularity in the streaming loop.
//    When it expires the run stops reading, finishes the sinks normally,
//    reports partial results, and exits >= 1 (recovered-but-incomplete),
//    never mid-batch and never with a half-written report.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace tdt {

namespace obs {
class Registry;
}  // namespace obs

/// Thread-safe byte budget. A zero limit means "unlimited"; all charges
/// succeed and only the high-water mark is tracked.
class Budget {
 public:
  Budget() = default;
  explicit Budget(std::uint64_t limit_bytes) : limit_(limit_bytes) {}

  void set_limit(std::uint64_t limit_bytes) noexcept { limit_ = limit_bytes; }
  [[nodiscard]] std::uint64_t limit() const noexcept { return limit_; }
  [[nodiscard]] bool unlimited() const noexcept { return limit_ == 0; }

  /// Charges `bytes` if it fits under the limit; false (and no charge)
  /// when it would not. Always succeeds on an unlimited budget.
  [[nodiscard]] bool try_charge(std::uint64_t bytes) noexcept;

  /// Charges `bytes` or throws Error{Resource} naming `what`.
  void charge(std::uint64_t bytes, const char* what);

  /// Returns previously charged bytes.
  void release(std::uint64_t bytes) noexcept;

  [[nodiscard]] std::uint64_t used() const noexcept {
    return used_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t peak() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }
  /// Number of rejected try_charge/charge attempts.
  [[nodiscard]] std::uint64_t denials() const noexcept {
    return denials_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t limit_ = 0;
  std::atomic<std::uint64_t> used_{0};
  std::atomic<std::uint64_t> peak_{0};
  std::atomic<std::uint64_t> denials_{0};
};

/// Per-run resource limits: a memory budget plus an optional wall-clock
/// deadline. Tools build one from --max-memory/--deadline and hand it to
/// Graph::run (EvalOptions::governor); a default-constructed Governor
/// governs nothing.
class Governor {
 public:
  Budget memory;

  /// Arms a wall-clock deadline `seconds` from now (<= 0 disarms).
  void set_deadline(double seconds) noexcept;
  [[nodiscard]] bool has_deadline() const noexcept { return armed_; }

  /// True once the deadline has passed. Latches: after the first true
  /// result the clock is no longer consulted, so callers can use it both
  /// to stop work and to report why they stopped.
  [[nodiscard]] bool expired() noexcept;

  /// True when expired() ever returned true (does not consult the clock).
  [[nodiscard]] bool deadline_hit() const noexcept {
    return hit_.load(std::memory_order_relaxed);
  }

  /// Folds governor.* gauges (memory used/peak/limit/denials, deadline
  /// state) into `registry`; no-op on nullptr.
  void fold(obs::Registry* registry) const;

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::atomic<bool> hit_{false};
};

}  // namespace tdt
