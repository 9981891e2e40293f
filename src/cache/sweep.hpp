// Configuration sweeps over a single trace pass. A ParallelSweep owns one
// fully independent simulation per sweep point — its own PageMapper,
// CacheHierarchy and TraceCacheSim — and exposes the simulators as
// TraceSinks, so a trace::ParallelFanOut can drive N cache configurations
// from one streaming read of the trace. Because every point owns all of
// its mutable state and sees the full stream in trace order, per-point
// results are bit-identical to running each configuration sequentially;
// merging (merged_l1, report) happens only after the pass completes, in
// deterministic point order.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "cache/hierarchy.hpp"
#include "cache/page_map.hpp"
#include "cache/sim.hpp"

namespace tdt::cache {

/// Accumulates `from` into `into` field by field (deterministic merge of
/// per-worker / per-point statistics).
void merge_into(LevelStats& into, const LevelStats& from);

/// Parses "lru" | "fifo" | "random" | "rr". Throws Error{Config}.
[[nodiscard]] ReplacementPolicy parse_replacement_policy(std::string_view text);

/// Parses "none" | "always" | "miss" | "tagged". Throws Error{Config}.
[[nodiscard]] PrefetchPolicy parse_prefetch_policy(std::string_view text);

/// Virtual->physical translation settings shared by all sweep points
/// (each point still gets its *own* PageMapper instance, since mappers
/// are stateful).
struct PageMapSpec {
  PagePolicy policy = PagePolicy::Identity;
  std::uint64_t page_size = 4096;
  std::uint64_t frames = 0;
  std::uint64_t seed = 1;
};

/// One configuration to simulate: a full hierarchy (L1 first).
struct SweepPoint {
  std::vector<CacheConfig> levels;

  /// Human-readable tag: the L1's CacheConfig::describe().
  [[nodiscard]] std::string label() const;
};

/// Parses a sweep specification into concrete points. The spec is a
/// ';'-separated list of points; each point is a ','-separated list of
/// `key=value` overrides applied to `base`:
///
///   "assoc=1;assoc=2;size=8k,assoc=4;block=64"
///
/// Keys: size (accepts k/K/m/M suffixes), block, assoc, repl|replacement
/// (lru|fifo|random|rr), prefetch (none|always|miss|tagged). An empty
/// point means "base unchanged". `extra_levels` (e.g. a shared L2) is
/// appended to every point. Points that resolve to a configuration
/// already present in the list are dropped (simulating the same hierarchy
/// twice wastes a worker and skews merged totals); each drop appends a
/// message to `warnings` when non-null. Throws Error{Config} on unknown
/// keys or invalid geometry.
[[nodiscard]] std::vector<SweepPoint> parse_sweep_spec(
    std::string_view spec, const CacheConfig& base,
    const std::vector<CacheConfig>& extra_levels = {},
    std::vector<std::string>* warnings = nullptr);

/// Owns the per-point simulation state for a one-pass sweep.
class ParallelSweep {
 public:
  explicit ParallelSweep(std::vector<SweepPoint> points,
                         SimOptions base_options = {},
                         PageMapSpec page_map = {});

  ParallelSweep(const ParallelSweep&) = delete;
  ParallelSweep& operator=(const ParallelSweep&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

  /// One sink per point, in point order — feed these to ParallelFanOut.
  [[nodiscard]] std::vector<trace::TraceSink*> sinks();

  [[nodiscard]] const SweepPoint& point(std::size_t i) const {
    return points_[i];
  }
  [[nodiscard]] CacheHierarchy& hierarchy(std::size_t i) {
    return hierarchies_[i];
  }
  [[nodiscard]] const CacheHierarchy& hierarchy(std::size_t i) const {
    return hierarchies_[i];
  }
  [[nodiscard]] TraceCacheSim& sim(std::size_t i) { return sims_[i]; }

  /// Sum of every point's L1 stats (merged in point order).
  [[nodiscard]] LevelStats merged_l1() const;

  /// Per-point hierarchy reports followed by a cross-point summary table.
  [[nodiscard]] std::string report() const;

 private:
  std::vector<SweepPoint> points_;
  // deques: stable element addresses; sims hold pointers to hierarchies
  // and mappers, and sinks() hands out pointers to sims.
  std::deque<PageMapper> mappers_;
  std::deque<CacheHierarchy> hierarchies_;
  std::deque<TraceCacheSim> sims_;
};

}  // namespace tdt::cache
