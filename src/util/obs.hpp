// Unified observability: a lightweight metrics registry shared by the
// CLI tools, the streaming pipeline, and the benchmarks.
//
// The paper's whole methodology is measure -> transform -> re-measure,
// so every stage must emit machine-consumable numbers, not ad-hoc text.
// A Registry owns three metric kinds plus phase spans:
//
//   Counter   — monotonically increasing u64; add() is wait-free on a
//               per-thread stripe, value() folds the stripes.
//   Gauge     — last-written double (rates, ratios, configuration).
//   Histogram — log2-bucketed u64 distribution with count/sum/min/max
//               (batch latencies, per-set activity).
//
// PhaseTimer is an RAII span: it accumulates wall time under a phase
// name and records a span for the Chrome trace_event export. Two
// exporters render a Registry:
//
//   metrics_json() — stable-schema snapshot ("tdt-metrics/1", top-level
//                    keys tool/phases/counters/gauges/histograms), the
//                    file written by the tools' --metrics-json flag.
//   spans_json()   — Chrome trace_event array loadable by Perfetto /
//                    chrome://tracing, written by --trace-spans.
//
// Heartbeat backs the tools' --progress flag: a rate-limited one-line
// records/s report on stderr, cheap enough to tick per batch.
//
// Everything is optional-by-pointer: passing a null Registry* anywhere
// is a no-op, so instrumented code paths stay byte-identical to
// uninstrumented ones when the flags are off. See docs/OBSERVABILITY.md.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace tdt::obs {

/// Number of log2 histogram buckets: bucket 0 holds the value 0, bucket
/// i >= 1 holds values in [2^(i-1), 2^i).
inline constexpr std::size_t kHistogramBuckets = 65;

/// Bucket index of a value (0 for 0, else bit_width).
[[nodiscard]] constexpr std::size_t histogram_bucket(std::uint64_t v) noexcept {
  return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
}

/// Exclusive upper bound of bucket `i` (saturates at u64 max).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_le(std::size_t i) noexcept {
  if (i == 0) return 1;
  if (i >= 64) return std::numeric_limits<std::uint64_t>::max();
  return std::uint64_t{1} << i;
}

/// Plain (single-threaded) histogram accumulator. Worker threads record
/// into a private HistogramData and merge it into the shared Histogram
/// once at the end — the "per-thread shard folded on snapshot" pattern
/// without any hot-path atomics.
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  void record(std::uint64_t v) noexcept {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
    ++buckets[histogram_bucket(v)];
  }

  void merge(const HistogramData& o) noexcept {
    count += o.count;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      buckets[i] += o.buckets[i];
    }
  }

  [[nodiscard]] bool empty() const noexcept { return count == 0; }
};

/// Monotonic counter, sharded across cache-line-padded stripes so
/// concurrent add() calls from pipeline workers never contend on one
/// line; value() folds the stripes (snapshot semantics).
class Counter {
 public:
  void add(std::uint64_t v = 1) noexcept {
    stripes_[stripe_index()].value.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };
  static constexpr std::size_t kStripes = 8;

  static std::size_t stripe_index() noexcept;

  std::array<Stripe, kStripes> stripes_{};
};

/// Last-write-wins double (rates, ratios, small configuration values).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Thread-safe log2 histogram (atomic buckets; min/max via CAS).
class Histogram {
 public:
  void record(std::uint64_t v) noexcept;

  /// Folds a privately accumulated shard in (one atomic pass).
  void merge(const HistogramData& shard) noexcept;

  [[nodiscard]] HistogramData snapshot() const noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
};

/// Wall time and hit count of one named phase.
struct PhaseInfo {
  std::uint64_t count = 0;
  double seconds = 0;
};

/// Central metric store for one tool run. Metric handles returned by
/// counter()/gauge()/histogram() are get-or-create, stable for the
/// registry's lifetime, and safe to use from any thread.
class Registry {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Registry(std::string tool);

  [[nodiscard]] const std::string& tool() const noexcept { return tool_; }

  /// Start of the run; span timestamps are relative to this.
  [[nodiscard]] Clock::time_point epoch() const noexcept { return epoch_; }

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Accumulates wall time under `name` (PhaseTimer calls this).
  void add_phase(std::string_view name, double seconds);

  /// Records one completed span for the trace_event export. `tid` is a
  /// small stable lane id (0 = main thread, workers use 1..N).
  void add_span(std::string_view name, Clock::time_point begin,
                Clock::time_point end, std::uint32_t tid = 0);

  /// Stable-schema metrics snapshot; see docs/OBSERVABILITY.md.
  [[nodiscard]] std::string metrics_json() const;

  /// Chrome trace_event JSON (Perfetto / chrome://tracing).
  [[nodiscard]] std::string spans_json() const;

  /// Writes metrics_json()/spans_json() to `path` (write_file). Throws
  /// Error{Io} when the file cannot be written whole.
  void write_metrics_file(const std::string& path) const;
  void write_spans_file(const std::string& path) const;

 private:
  struct SpanRecord {
    std::string name;
    std::uint32_t tid = 0;
    double start_us = 0;
    double dur_us = 0;
  };

  std::string tool_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  // Node-based maps: references handed out stay valid forever, and
  // iteration is name-ordered, which keeps the JSON deterministic.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, PhaseInfo, std::less<>> phases_;
  std::vector<SpanRecord> spans_;
};

/// RAII phase span: accumulates into Registry::add_phase and records a
/// trace_event span on destruction (or explicit stop()). A null registry
/// makes every operation a no-op, so callers can instrument
/// unconditionally.
class PhaseTimer {
 public:
  PhaseTimer(Registry* registry, std::string name, std::uint32_t tid = 0)
      : registry_(registry),
        name_(std::move(name)),
        tid_(tid),
        begin_(registry ? Registry::Clock::now()
                        : Registry::Clock::time_point{}) {}

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() { stop(); }

  /// Ends the span early; idempotent.
  void stop() {
    if (registry_ == nullptr) return;
    const auto end = Registry::Clock::now();
    registry_->add_phase(name_, std::chrono::duration<double>(end - begin_)
                                    .count());
    registry_->add_span(name_, begin_, end, tid_);
    registry_ = nullptr;
  }

 private:
  Registry* registry_;
  std::string name_;
  std::uint32_t tid_;
  Registry::Clock::time_point begin_;
};

/// Rate-limited records/s progress reporter (the --progress flag): tick()
/// is cheap enough for per-batch calls, and at most one line per
/// `interval_seconds` is printed:
///
///   dinerosim: 12.6M records (8.12 Mrec/s)
class Heartbeat {
 public:
  explicit Heartbeat(std::string label, std::ostream& out,
                     double interval_seconds = 1.0);

  /// Accounts `n` more records; prints when the interval elapsed.
  void tick(std::uint64_t n) noexcept;

  /// Prints the final total (always, even under the rate limit).
  void finish();

  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

 private:
  void maybe_report();
  void report_line(double seconds, bool final_line);

  std::string label_;
  std::ostream* out_;
  double interval_;
  std::uint64_t records_ = 0;
  std::uint64_t next_check_ = 1;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_report_;
  bool finished_ = false;

  // Re-check the clock at most every this many records.
  static constexpr std::uint64_t kCheckStride = 65536;
};

}  // namespace tdt::obs
