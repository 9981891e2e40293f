// One cache level: the trace-driven simulator core, modelled on DineroIV.
// Tracks hits/misses globally, per set, and per access kind; supports
// write-back/write-through and allocate policies and four replacement
// policies including the PPC440's round-robin.
//
// Every demand miss is classified as compulsory, capacity or conflict
// (Hill's three Cs, as in the paper's modified DineroIV). Two structures
// do this without allocating in steady state:
//   - a seen-set of every block ever brought in, one 64-bit presence word
//     per 64-block page in an open-addressed table. It is written and
//     probed only on demand misses and prefetch fills: a resident block
//     was marked when it was filled, so a hit never needs it;
//   - a fully associative LRU shadow of the same capacity: an intrusive
//     doubly-linked list over a node array (grown lazily, capped at
//     num_blocks) plus an open-addressed block -> node index. A shadow
//     hit relinks its node at the front; a shadow miss at capacity
//     recycles the tail node, so it stays exactly num_blocks deep.
// A miss is compulsory when the block was never seen, a capacity miss
// when the shadow misses too, and a conflict miss otherwise.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/config.hpp"
#include "util/rng.hpp"

namespace tdt::cache {

/// Classification of one access.
enum class MissClass : std::uint8_t {
  None,        ///< the access hit
  Compulsory,  ///< first touch of the block, ever
  Capacity,    ///< would miss even in a fully associative cache
  Conflict,    ///< set conflict: fully associative cache would have hit
};

[[nodiscard]] std::string_view to_string(MissClass c) noexcept;

/// What happened on one block access.
struct AccessOutcome {
  bool hit = false;
  MissClass miss_class = MissClass::None;
  std::uint64_t set = 0;
  std::uint64_t block = 0;  ///< block number (address / block_size)
  bool evicted = false;
  std::uint64_t evicted_block = 0;
  bool writeback = false;  ///< eviction was dirty (write-back caches)
};

/// Aggregate counters for one level.
struct LevelStats {
  std::uint64_t read_hits = 0, read_misses = 0;
  std::uint64_t write_hits = 0, write_misses = 0;
  std::uint64_t compulsory = 0, capacity = 0, conflict = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t evictions = 0;
  std::uint64_t prefetches = 0;     ///< lines brought in by the prefetcher
  std::uint64_t prefetch_hits = 0;  ///< demand hits on prefetched lines

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return read_hits + write_hits;
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return read_misses + write_misses;
  }
  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return hits() + misses();
  }
  [[nodiscard]] double miss_ratio() const noexcept {
    const std::uint64_t n = accesses();
    return n == 0 ? 0.0 : static_cast<double>(misses()) / static_cast<double>(n);
  }

  [[nodiscard]] bool operator==(const LevelStats&) const = default;
};

/// Per-set hit/miss counters (the series plotted in the paper's figures).
struct SetStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  [[nodiscard]] bool operator==(const SetStats&) const = default;
};

/// A single cache level. On misses and dirty evictions the access is
/// propagated to `next` (when non-null), simulating a hierarchy.
class CacheLevel {
 public:
  explicit CacheLevel(CacheConfig config, CacheLevel* next = nullptr);

  /// Accesses one block-aligned region containing `address`. `size` must
  /// not cross a block boundary — use access_range for arbitrary spans.
  AccessOutcome access(std::uint64_t address, bool is_write);

  /// Accesses an arbitrary [address, address+size) span, splitting on
  /// block boundaries. Returns the outcome of the first block (the
  /// record's primary access) — follow-on blocks update stats only. A
  /// span that runs past the top of the address space ends at its last
  /// byte (span_last_byte).
  AccessOutcome access_range(std::uint64_t address, std::uint64_t size,
                             bool is_write);

  /// Invalidates all lines and zeroes statistics.
  void reset();

  /// Invalidates all lines but keeps statistics (cold restart).
  void flush();

  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] const LevelStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<SetStats>& set_stats() const noexcept {
    return set_stats_;
  }
  [[nodiscard]] CacheLevel* next() const noexcept { return next_; }

  /// True when `block` (block number) currently resides in the cache.
  [[nodiscard]] bool contains_block(std::uint64_t block) const;

  /// Number of valid lines currently in `set`.
  [[nodiscard]] std::uint32_t set_occupancy(std::uint64_t set) const;

 private:
  struct Line {
    std::uint64_t block = 0;
    std::uint64_t last_use = 0;   // LRU
    std::uint64_t fill_time = 0;  // FIFO
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;  // filled by the prefetcher, untouched since
  };

  /// access_range's path for a span that leaves its first block, or is
  /// empty.
  AccessOutcome access_blocks(std::uint64_t address, std::uint64_t size,
                              bool is_write);
  Line* find_line(std::uint64_t set, std::uint64_t block);
  std::uint32_t pick_victim(std::uint64_t set);
  MissClass classify_miss(std::uint64_t block, bool in_shadow);

  /// Sets `block`'s presence bit; returns whether it was already set.
  bool mark_seen(std::uint64_t block);
  void grow_seen();
  /// Moves `block` to the front of the LRU shadow, inserting it (and
  /// recycling the tail at capacity) when absent. Returns whether it was
  /// present before the touch.
  bool touch_shadow(std::uint64_t block);
  /// touch_shadow's miss path: links `block` in at the front. Kept out
  /// of line so that the hit path inlines into access().
  void shadow_insert(std::uint64_t block);
  void shadow_index_insert(std::uint64_t block, std::uint32_t node);
  void shadow_index_erase(std::uint32_t node);
  void shadow_link_front(std::uint32_t node);
  void shadow_unlink(std::uint32_t node);

  /// Fills `block` ahead of demand (no stats beyond prefetch counters,
  /// no classification); evictions it causes are real.
  void prefetch_block(std::uint64_t block);
  /// Issues the configured prefetch after a demand access.
  void maybe_prefetch(std::uint64_t block, bool demand_hit,
                      bool hit_on_prefetched);

  CacheConfig config_;
  CacheGeometry geo_;
  CacheLevel* next_;
  std::vector<Line> lines_;  // sets * ways, row-major by set
  std::vector<std::uint32_t> rr_cursor_;
  LevelStats stats_;
  std::vector<SetStats> set_stats_;
  std::uint64_t clock_ = 0;
  Xoshiro256 rng_;

  // Miss classification state (see the file comment).
  static constexpr std::uint32_t kNil = UINT32_MAX;
  /// A page number is block >> 6 < 2^58, so all-ones never names one.
  static constexpr std::uint64_t kNoPage = UINT64_MAX;
  struct SeenSlot {
    std::uint64_t page = kNoPage;
    std::uint64_t bits = 0;  ///< bit (block & 63) set once block is seen
  };
  struct ShadowNode {
    std::uint64_t block;
    std::uint32_t prev;  ///< toward the most recent end; kNil at the front
    std::uint32_t next;  ///< toward the least recent end; kNil at the tail
  };
  struct ShadowSlot {
    std::uint64_t block = 0;
    std::uint32_t node = kNil;  ///< kNil marks an empty slot
  };
  std::vector<SeenSlot> seen_;  // power-of-two size, at most half full
  std::size_t seen_pages_ = 0;
  unsigned seen_shift_ = 64;    // 64 - log2(seen_.size())
  std::vector<ShadowNode> shadow_nodes_;  // at most num_blocks
  std::vector<ShadowSlot> shadow_slots_;  // power-of-two, >= 2 * num_blocks
  unsigned shadow_shift_ = 64;  // 64 - log2(shadow_slots_.size())
  std::uint32_t shadow_head_ = kNil;  // most recently used
  std::uint32_t shadow_tail_ = kNil;  // least recently used
};

inline AccessOutcome CacheLevel::access_range(std::uint64_t address,
                                              std::uint64_t size,
                                              bool is_write) {
  // A span whose last byte is in its first block is one access. Size 0
  // wraps size - 1 to UINT64_MAX and takes the checked path.
  if (size - 1 <= geo_.offset_mask() - (address & geo_.offset_mask()))
      [[likely]] {
    return access(address, is_write);
  }
  return access_blocks(address, size, is_write);
}

}  // namespace tdt::cache
