// Multi-core private caches with MESI coherence (atomic-bus model). The
// paper's traces carry a thread id per record; this substrate turns that
// into a multicore simulation where layout transformations become
// coherence tools — e.g. padding falsely-shared counters apart, a
// transformation the rule engine expresses directly.
//
// Protocol (snooping, atomic transactions):
//   read  miss: fetch; remote M writes back and drops to S; state = S if
//               any remote copy survives, else E.
//   write hit on M: silent.  on E: upgrade to M.  on S: invalidate remote
//               copies, upgrade to M.
//   write miss: invalidate all remote copies (remote M writes back),
//               fill in M.
// Evictions write back M lines.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/config.hpp"

namespace tdt::cache {

/// MESI line states.
enum class Mesi : std::uint8_t { Invalid, Shared, Exclusive, Modified };

[[nodiscard]] std::string_view to_string(Mesi m) noexcept;

/// Per-core counters.
struct CoreStats {
  std::uint64_t read_hits = 0, read_misses = 0;
  std::uint64_t write_hits = 0, write_misses = 0;
  std::uint64_t upgrades = 0;        ///< S->M transitions (write on Shared)
  std::uint64_t invalidations = 0;   ///< lines this core lost to remote writes
  std::uint64_t coherence_misses = 0;///< misses on remotely-invalidated lines
  std::uint64_t writebacks = 0;

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return read_hits + write_hits;
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return read_misses + write_misses;
  }
  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return hits() + misses();
  }
};

/// What one access did, for observers.
struct CoherenceOutcome {
  bool hit = false;
  std::uint32_t core = 0;
  std::uint64_t block = 0;
  std::uint64_t set = 0;
  std::uint32_t invalidated = 0;  ///< remote copies invalidated by this access
  bool coherence_miss = false;
  Mesi new_state = Mesi::Invalid;
};

/// N identical private caches kept coherent by MESI snooping.
class MesiSystem {
 public:
  /// `config` describes each private cache; `cores` >= 1.
  MesiSystem(CacheConfig config, std::uint32_t cores);

  /// Performs one access by `core`. Accesses spanning blocks are split by
  /// the caller (see MultiCoreSim).
  CoherenceOutcome access(std::uint32_t core, std::uint64_t address,
                          bool is_write);

  [[nodiscard]] std::uint32_t cores() const noexcept {
    return static_cast<std::uint32_t>(per_core_.size());
  }
  [[nodiscard]] const CoreStats& core_stats(std::uint32_t core) const;
  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] const CacheGeometry& geometry() const noexcept { return geo_; }

  /// Sum of invalidations across cores.
  [[nodiscard]] std::uint64_t total_invalidations() const noexcept;

  /// Current state of `block` in `core`'s cache (Invalid when absent).
  [[nodiscard]] Mesi state_of(std::uint32_t core, std::uint64_t block) const;

  /// Renders per-core statistics.
  [[nodiscard]] std::string report() const;

 private:
  struct Line {
    std::uint64_t block = 0;
    std::uint64_t last_use = 0;
    Mesi state = Mesi::Invalid;
  };

  struct Core {
    std::vector<Line> lines;
    CoreStats stats;
    // Blocks whose copy was invalidated by a remote writer; a subsequent
    // miss on them is a coherence miss.
    std::unordered_map<std::uint64_t, bool> invalidated_blocks;
  };

  Line* find_line(Core& core, std::uint64_t block);
  Line& victim_line(Core& core, std::uint64_t set);

  CacheConfig config_;
  CacheGeometry geo_;
  std::vector<Core> per_core_;
  std::uint64_t clock_ = 0;
};

}  // namespace tdt::cache
