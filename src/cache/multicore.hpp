// Multi-core trace simulation: routes each record to a core by its thread
// id and runs the MESI system, with a false-sharing detector that
// attributes invalidations to variable pairs — the coherence analogue of
// the paper's per-structure conflict analysis.
#pragma once

#include <map>
#include <span>
#include <string>
#include <unordered_map>

#include "cache/coherence.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"

namespace tdt::cache {

/// TraceSink running a MesiSystem. Records with thread id T execute on
/// core (T-1) mod cores (Gleipnir threads are 1-based).
class MultiCoreSim final : public trace::TraceSink {
 public:
  /// `ctx` names variables for the false-sharing report.
  MultiCoreSim(MesiSystem& system, const trace::TraceContext& ctx);

  void on_record(const trace::TraceRecord& rec) override;

  /// Convenience for whole traces.
  void simulate(std::span<const trace::TraceRecord> records);

  [[nodiscard]] MesiSystem& system() noexcept { return *system_; }

  /// Invalidations where the writer's bytes did NOT overlap the bytes the
  /// invalidated core last touched in that line — false sharing.
  [[nodiscard]] std::uint64_t false_sharing_invalidations() const noexcept {
    return false_sharing_;
  }

  /// True sharing invalidations (byte ranges overlapped).
  [[nodiscard]] std::uint64_t true_sharing_invalidations() const noexcept {
    return true_sharing_;
  }

  /// (writer variable, victim variable) -> false-sharing invalidations.
  [[nodiscard]] const std::map<std::pair<std::string, std::string>,
                               std::uint64_t>&
  false_sharing_pairs() const noexcept {
    return pairs_;
  }

  /// Renders the false-sharing report.
  [[nodiscard]] std::string report() const;

 private:
  /// The bytes [first, last] a core last touched in a block.
  struct Touch {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    Symbol var;
    bool valid = false;
  };

  MesiSystem* system_;
  CacheGeometry geo_;
  const trace::TraceContext* ctx_;
  // last touch per (core, block)
  std::unordered_map<std::uint64_t, Touch> last_touch_;
  std::uint64_t false_sharing_ = 0;
  std::uint64_t true_sharing_ = 0;
  std::map<std::pair<std::string, std::string>, std::uint64_t> pairs_;
};

}  // namespace tdt::cache

namespace tdt::trace {

/// Merges per-thread traces into one interleaved trace: thread i's
/// records get thread id i+1 and are taken `chunk` records at a time,
/// round-robin — a deterministic stand-in for a concurrent schedule.
[[nodiscard]] std::vector<TraceRecord> interleave_threads(
    std::vector<std::vector<TraceRecord>> threads, std::size_t chunk = 1);

}  // namespace tdt::trace
