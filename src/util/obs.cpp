#include "util/obs.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "util/file_util.hpp"

namespace tdt::obs {

namespace {

/// Escapes a string for a JSON literal (control chars, quote, backslash).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

/// %.17g round-trips doubles; trims to a compact form for whole numbers.
void append_double(std::string& out, double v) {
  // JSON has no inf/nan literals; clamp to zero.
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::size_t Counter::stripe_index() noexcept {
  // A process-wide atomic hands every thread a distinct id once; the id
  // maps round-robin onto the stripes.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id % kStripes;
}

void Histogram::record(std::uint64_t v) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  buckets_[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Histogram::merge(const HistogramData& shard) noexcept {
  if (shard.empty()) return;
  count_.fetch_add(shard.count, std::memory_order_relaxed);
  sum_.fetch_add(shard.sum, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (shard.buckets[i] != 0) {
      buckets_[i].fetch_add(shard.buckets[i], std::memory_order_relaxed);
    }
  }
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (shard.min < cur && !min_.compare_exchange_weak(
                                cur, shard.min, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (shard.max > cur && !max_.compare_exchange_weak(
                                cur, shard.max, std::memory_order_relaxed)) {
  }
}

HistogramData Histogram::snapshot() const noexcept {
  HistogramData out;
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  out.min = min_.load(std::memory_order_relaxed);
  out.max = max_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

Registry::Registry(std::string tool)
    : tool_(std::move(tool)), epoch_(Clock::now()) {}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void Registry::add_phase(std::string_view name, double seconds) {
  std::lock_guard lock(mutex_);
  auto it = phases_.find(name);
  if (it == phases_.end()) {
    it = phases_.emplace(std::string(name), PhaseInfo{}).first;
  }
  ++it->second.count;
  it->second.seconds += seconds;
}

void Registry::add_span(std::string_view name, Clock::time_point begin,
                        Clock::time_point end, std::uint32_t tid) {
  SpanRecord span;
  span.name = std::string(name);
  span.tid = tid;
  span.start_us =
      std::chrono::duration<double, std::micro>(begin - epoch_).count();
  span.dur_us = std::chrono::duration<double, std::micro>(end - begin).count();
  if (span.start_us < 0) span.start_us = 0;
  if (span.dur_us < 0) span.dur_us = 0;
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::string Registry::metrics_json() const {
  std::lock_guard lock(mutex_);
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"tdt-metrics/1\",\n";
  out += "  \"tool\": \"" + json_escape(tool_) + "\",\n";

  out += "  \"phases\": [";
  bool first = true;
  for (const auto& [name, info] : phases_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + json_escape(name) + "\", \"count\": ";
    append_u64(out, info.count);
    out += ", \"seconds\": ";
    append_double(out, info.seconds);
    out += "}";
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"counters\": {";
  first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": ";
    append_u64(out, counter->value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": ";
    append_double(out, gauge->value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    const HistogramData h = histogram->snapshot();
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"count\": ";
    append_u64(out, h.count);
    out += ", \"sum\": ";
    append_u64(out, h.sum);
    out += ", \"min\": ";
    append_u64(out, h.empty() ? 0 : h.min);
    out += ", \"max\": ";
    append_u64(out, h.max);
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += "{\"le\": ";
      append_u64(out, histogram_bucket_le(i));
      out += ", \"count\": ";
      append_u64(out, h.buckets[i]);
      out += "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";

  out += "}\n";
  return out;
}

std::string Registry::spans_json() const {
  std::lock_guard lock(mutex_);
  std::string out;
  out += "{\n";
  out += "  \"displayTimeUnit\": \"ms\",\n";
  out += "  \"traceEvents\": [\n";
  out += "    {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
         "\"name\": \"process_name\", \"args\": {\"name\": \"" +
         json_escape(tool_) + "\"}}";
  for (const SpanRecord& span : spans_) {
    out += ",\n    {\"ph\": \"X\", \"pid\": 1, \"tid\": ";
    append_u64(out, span.tid);
    out += ", \"name\": \"" + json_escape(span.name) +
           "\", \"cat\": \"phase\", \"ts\": ";
    append_double(out, span.start_us);
    out += ", \"dur\": ";
    append_double(out, span.dur_us);
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

void Registry::write_metrics_file(const std::string& path) const {
  write_file(path, metrics_json());
}

void Registry::write_spans_file(const std::string& path) const {
  write_file(path, spans_json());
}

Heartbeat::Heartbeat(std::string label, std::ostream& out,
                     double interval_seconds)
    : label_(std::move(label)),
      out_(&out),
      interval_(interval_seconds),
      start_(std::chrono::steady_clock::now()),
      last_report_(start_) {}

void Heartbeat::tick(std::uint64_t n) noexcept {
  records_ += n;
  if (records_ >= next_check_) maybe_report();
}

void Heartbeat::maybe_report() {
  next_check_ = records_ + kCheckStride;
  const auto now = std::chrono::steady_clock::now();
  if (std::chrono::duration<double>(now - last_report_).count() < interval_) {
    return;
  }
  last_report_ = now;
  report_line(std::chrono::duration<double>(now - start_).count(), false);
}

void Heartbeat::finish() {
  if (finished_) return;
  finished_ = true;
  report_line(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start_)
                  .count(),
              true);
}

void Heartbeat::report_line(double seconds, bool final_line) {
  const double rate =
      seconds > 0 ? static_cast<double>(records_) / seconds : 0.0;
  char line[160];
  if (records_ >= 10'000'000) {
    std::snprintf(line, sizeof(line), "%s: %.1fM records (%.2f Mrec/s)%s\n",
                  label_.c_str(), static_cast<double>(records_) / 1e6,
                  rate / 1e6, final_line ? " done" : "");
  } else {
    std::snprintf(line, sizeof(line), "%s: %" PRIu64
                  " records (%.2f Mrec/s)%s\n",
                  label_.c_str(), records_, rate / 1e6,
                  final_line ? " done" : "");
  }
  *out_ << line << std::flush;
}

}  // namespace tdt::obs
