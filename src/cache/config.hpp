// Cache geometry and policy configuration, DineroIV-style. Presets cover
// the two machines the paper simulates: a 32 KiB direct-mapped cache with
// 32-byte blocks (Figures 3-7) and the PowerPC 440 L1 (32 KiB, 64-way,
// 32-byte lines, round-robin eviction; Figures 10-11).
#pragma once

#include <cstdint>
#include <string>

namespace tdt::cache {

/// Victim selection within a set.
enum class ReplacementPolicy : std::uint8_t {
  Lru,         ///< least recently used
  Fifo,        ///< oldest fill evicted first
  Random,      ///< uniform random victim (deterministic xoshiro stream)
  RoundRobin,  ///< per-set cursor, PPC440-style
};

/// Write-hit handling.
enum class WritePolicy : std::uint8_t {
  WriteBack,     ///< dirty lines written to the next level on eviction
  WriteThrough,  ///< every write forwarded immediately
};

/// Write-miss handling.
enum class AllocPolicy : std::uint8_t {
  WriteAllocate,    ///< write misses fill the line
  NoWriteAllocate,  ///< write misses bypass the cache
};

/// Sequential (next-block) hardware prefetching, as in DineroIV's
/// -Tfetch options.
enum class PrefetchPolicy : std::uint8_t {
  None,    ///< demand fetches only
  Always,  ///< prefetch block+1 on every access
  Miss,    ///< prefetch block+1 on every demand miss
  Tagged,  ///< prefetch block+1 on the first demand reference to a block
           ///< (demand miss or first hit on a prefetched line)
};

[[nodiscard]] std::string_view to_string(PrefetchPolicy p) noexcept;

[[nodiscard]] std::string_view to_string(ReplacementPolicy p) noexcept;
[[nodiscard]] std::string_view to_string(WritePolicy p) noexcept;
[[nodiscard]] std::string_view to_string(AllocPolicy p) noexcept;

/// The geometry a valid CacheConfig implies, as shifts and masks. A
/// level decides it once, so no per-access path divides by a
/// configuration value.
struct CacheGeometry {
  unsigned block_shift = 0;    ///< log2(block_size)
  std::uint64_t set_mask = 0;  ///< set count - 1
  std::uint32_t ways = 1;      ///< effective associativity
  std::uint64_t blocks = 0;    ///< lines in the level

  [[nodiscard]] std::uint64_t block_of(std::uint64_t address) const noexcept {
    return address >> block_shift;
  }
  [[nodiscard]] std::uint64_t set_index(std::uint64_t block) const noexcept {
    return block & set_mask;
  }
  /// First byte of `block`.
  [[nodiscard]] std::uint64_t base_of(std::uint64_t block) const noexcept {
    return block << block_shift;
  }
  /// block_size - 1: an address's offset within its block.
  [[nodiscard]] std::uint64_t offset_mask() const noexcept {
    return (std::uint64_t{1} << block_shift) - 1;
  }
  [[nodiscard]] std::uint64_t sets() const noexcept { return set_mask + 1; }
};

/// The last byte of the span [address, address + size), size >= 1. A
/// span that runs past the top of the address space ends at its last
/// byte; it does not wrap to address 0.
[[nodiscard]] constexpr std::uint64_t span_last_byte(
    std::uint64_t address, std::uint64_t size) noexcept {
  return size - 1 > UINT64_MAX - address ? UINT64_MAX : address + (size - 1);
}

/// Geometry + policies of one cache level.
struct CacheConfig {
  std::string name = "L1";
  std::uint64_t size = 32 * 1024;  ///< total data bytes
  std::uint64_t block_size = 32;   ///< line size in bytes (power of two)
  std::uint32_t assoc = 1;         ///< ways per set; 0 = fully associative
  ReplacementPolicy replacement = ReplacementPolicy::Lru;
  WritePolicy write = WritePolicy::WriteBack;
  AllocPolicy alloc = AllocPolicy::WriteAllocate;
  std::uint64_t random_seed = 1;   ///< seed for ReplacementPolicy::Random
  PrefetchPolicy prefetch = PrefetchPolicy::None;

  /// Throws Error{Config} unless sizes are powers of two and consistent.
  void validate() const;

  [[nodiscard]] std::uint64_t num_blocks() const noexcept {
    return size / block_size;
  }
  [[nodiscard]] std::uint32_t effective_assoc() const noexcept {
    return assoc == 0 ? static_cast<std::uint32_t>(num_blocks()) : assoc;
  }
  [[nodiscard]] std::uint64_t num_sets() const noexcept {
    return num_blocks() / effective_assoc();
  }

  /// Validates, then returns the geometry as shifts and masks.
  [[nodiscard]] CacheGeometry geometry() const;

  /// One-line description, e.g. "L1 32 KiB, 32 B blocks, 1-way
  /// associative, lru, write-back"; a prefetch policy other than none is
  /// appended (", tagged-prefetch").
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const CacheConfig&, const CacheConfig&) = default;
};

/// The direct-mapped cache of Figures 3-7: 32 KiB, 32 B blocks, 1-way.
[[nodiscard]] CacheConfig paper_direct_mapped();

/// The PowerPC 440 L1 of Figures 10-11: 32 KiB, 32 B lines, 64-way,
/// round-robin (paper §IV-A.3: "64 ways per set ... round-robin eviction";
/// 16 sets).
[[nodiscard]] CacheConfig ppc440();

/// A typical modern L1D for the extension studies: 32 KiB, 64 B, 8-way LRU.
[[nodiscard]] CacheConfig modern_l1();

/// A 256 KiB, 64 B, 8-way LRU L2 for hierarchy studies.
[[nodiscard]] CacheConfig modern_l2();

}  // namespace tdt::cache
