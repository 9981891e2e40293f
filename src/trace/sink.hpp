// TraceSink: push-style consumer interface connecting pipeline stages.
// The tracer produces records into a sink; the transformation engine is a
// sink that filters/rewrites into another sink; the cache simulator and
// the writers are terminal sinks. This mirrors the paper's Figure 2 cycle
// (tracer -> trace file -> analyzer) while also allowing fully in-memory
// pipelines.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "trace/record.hpp"
#include "util/governor.hpp"

namespace tdt::trace {

/// A batch of records shared read-only between consumers. Nobody writes
/// to it once it has been emitted, so any holder may read it from any
/// thread for as long as it keeps the pointer.
using SharedBatch = std::shared_ptr<const std::vector<TraceRecord>>;

/// Abstract consumer of trace records.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Receives one record.
  virtual void on_record(const TraceRecord& rec) = 0;

  /// Receives a whole batch. Semantically identical to calling on_record
  /// once per record; hot terminal sinks (cache simulator, transformer)
  /// override it to amortize the per-record virtual dispatch, and the
  /// view DAG delivers batches by default.
  virtual void push_batch(std::span<const TraceRecord> batch) {
    for (const TraceRecord& rec : batch) on_record(rec);
  }

  /// Receives a whole batch by shared pointer. Semantically identical
  /// to push_batch over the same records; sinks that hand batches to
  /// other threads (the parallel fan-out) override it to keep the
  /// pointer instead of copying the records.
  virtual void push_batch_shared(SharedBatch batch) { push_batch(*batch); }

  /// Signals end of trace (flush opportunity). Default: no-op.
  virtual void on_end() {}
};

/// Sink that accumulates records into a vector.
///
/// With a Budget attached (--max-memory), every accepted record charges
/// sizeof(TraceRecord) against it; the sink *must* hold the whole trace,
/// so exhaustion fails hard (Error{Resource} → exit 2) rather than
/// degrading. Charges are held for the sink's lifetime and released in
/// the destructor. Record-side heap payloads (variable selector chains)
/// are not accounted — the accounting is a deterministic per-record
/// approximation, which keeps a given trace + limit reproducible.
class VectorSink final : public TraceSink {
 public:
  VectorSink() = default;
  explicit VectorSink(Budget* budget) : budget_(budget) {}
  ~VectorSink() override {
    if (budget_ != nullptr) budget_->release(charged_);
  }

  void on_record(const TraceRecord& rec) override {
    charge(1);
    records_.push_back(rec);
  }
  void push_batch(std::span<const TraceRecord> batch) override {
    charge(batch.size());
    records_.insert(records_.end(), batch.begin(), batch.end());
  }

  [[nodiscard]] std::vector<TraceRecord>& records() noexcept {
    return records_;
  }
  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }

  /// Moves the accumulated records out, leaving the sink empty.
  [[nodiscard]] std::vector<TraceRecord> take() noexcept {
    return std::move(records_);
  }

 private:
  void charge(std::size_t n) {
    if (budget_ == nullptr) return;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(n) * sizeof(TraceRecord);
    budget_->charge(bytes, "in-memory trace buffer");
    charged_ += bytes;
  }

  std::vector<TraceRecord> records_;
  Budget* budget_ = nullptr;
  std::uint64_t charged_ = 0;
};

/// Sink that counts records and otherwise discards them.
class NullSink final : public TraceSink {
 public:
  void on_record(const TraceRecord&) override { ++count_; }
  void push_batch(std::span<const TraceRecord> batch) override {
    count_ += batch.size();
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::uint64_t count_ = 0;
};

}  // namespace tdt::trace
