// TraceCacheSim: glues the trace stream to the cache hierarchy. It is a
// TraceSink, so it terminates any pipeline (tracer output, file reader,
// or the transformation engine's output). Observers receive each record
// together with its L1 outcome — the "modified DineroIV" feature that
// tracks statistics at function and variable accuracy lives there
// (tdt::analysis collectors).
#pragma once

#include <vector>

#include "cache/hierarchy.hpp"
#include "cache/page_map.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"

namespace tdt::cache {

/// Receives every simulated access paired with its L1 outcome.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  virtual void on_access(const trace::TraceRecord& rec,
                         const AccessOutcome& outcome) = 0;
  /// End of trace.
  virtual void on_done() {}
};

/// Simulation knobs.
struct SimOptions {
  /// Skip instruction-fetch records ('I'), as the paper does
  /// ("we do not explicitly trace instruction fetches", §III-A).
  bool ignore_instr = true;
  /// Treat Modify as read-modify-write (a read access followed by a write
  /// to the same line) rather than a single write. DineroIV counts both.
  bool modify_is_read_write = false;
  /// Optional virtual->physical translation applied before simulation
  /// (physically-indexed caches; paper §VI future work). Not owned; must
  /// outlive the simulator.
  PageMapper* page_mapper = nullptr;
};

/// Trace-driven simulator front end. Cache-line aligned: a sweep keeps
/// one simulator per point side by side (ParallelSweep's deque), each
/// bumping its record count on a different worker. Unaligned, neighbours
/// could share a line, and whether they did depended on the heap layout;
/// a longer --trace path was enough to make an 8-point sweep take 70%
/// more CPU.
class alignas(64) TraceCacheSim final : public trace::TraceSink {
 public:
  explicit TraceCacheSim(CacheHierarchy& hierarchy, SimOptions options = {});

  /// Registers an observer (not owned). Observers fire in registration
  /// order on every simulated access.
  void add_observer(AccessObserver* observer);

  // TraceSink. push_batch is the simulator's one loop; on_record hands it
  // a one-record span.
  void on_record(const trace::TraceRecord& rec) override;
  void push_batch(std::span<const trace::TraceRecord> batch) override;
  void on_end() override;

  /// Convenience: simulate a whole in-memory trace.
  void simulate(std::span<const trace::TraceRecord> records);

  [[nodiscard]] CacheHierarchy& hierarchy() noexcept { return *hierarchy_; }
  [[nodiscard]] std::uint64_t records_simulated() const noexcept {
    return simulated_;
  }

 private:
  CacheHierarchy* hierarchy_;
  SimOptions options_;
  std::vector<AccessObserver*> observers_;
  std::uint64_t simulated_ = 0;
};

}  // namespace tdt::cache
