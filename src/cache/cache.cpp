#include "cache/cache.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace tdt::cache {
namespace {

/// Fibonacci hashing: the top bits of key * 2^64/phi index a table of
/// 2^(64 - shift) slots, spreading runs of consecutive keys evenly.
std::size_t fib_hash(std::uint64_t key, unsigned shift) noexcept {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
}

}  // namespace

std::string_view to_string(MissClass c) noexcept {
  switch (c) {
    case MissClass::None: return "hit";
    case MissClass::Compulsory: return "compulsory";
    case MissClass::Capacity: return "capacity";
    case MissClass::Conflict: return "conflict";
  }
  return "?";
}

CacheLevel::CacheLevel(CacheConfig config, CacheLevel* next)
    : config_(std::move(config)),
      geo_(config_.geometry()),
      next_(next),
      rng_(config_.random_seed) {
  if (geo_.blocks >= kNil) {
    throw_config_error("cache '" + config_.name + "': " +
                       std::to_string(geo_.blocks) +
                       " blocks is more than a level can track");
  }
  lines_.assign(geo_.blocks, Line{});
  rr_cursor_.assign(geo_.sets(), 0);
  set_stats_.assign(geo_.sets(), SetStats{});
  // At most half full once the shadow holds num_blocks nodes.
  const std::uint64_t slots = std::bit_ceil(2 * geo_.blocks);
  shadow_slots_.assign(slots, ShadowSlot{});
  shadow_shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
}

void CacheLevel::reset() {
  for (Line& l : lines_) l = Line{};
  rr_cursor_.assign(geo_.sets(), 0);
  set_stats_.assign(geo_.sets(), SetStats{});
  stats_ = LevelStats{};
  clock_ = 0;
  seen_.clear();
  seen_pages_ = 0;
  seen_shift_ = 64;
  shadow_nodes_.clear();
  shadow_slots_.assign(shadow_slots_.size(), ShadowSlot{});
  shadow_head_ = kNil;
  shadow_tail_ = kNil;
  rng_ = Xoshiro256(config_.random_seed);
}

void CacheLevel::flush() {
  for (Line& l : lines_) {
    l.valid = false;
    l.dirty = false;
  }
  rr_cursor_.assign(geo_.sets(), 0);
}

CacheLevel::Line* CacheLevel::find_line(std::uint64_t set,
                                        std::uint64_t block) {
  const std::uint32_t ways = geo_.ways;
  Line* base = &lines_[set * ways];
  for (std::uint32_t w = 0; w < ways; ++w) {
    if (base[w].valid && base[w].block == block) return &base[w];
  }
  return nullptr;
}

std::uint32_t CacheLevel::pick_victim(std::uint64_t set) {
  const std::uint32_t ways = geo_.ways;
  Line* base = &lines_[set * ways];
  // Prefer an invalid way.
  for (std::uint32_t w = 0; w < ways; ++w) {
    if (!base[w].valid) return w;
  }
  switch (config_.replacement) {
    case ReplacementPolicy::Lru: {
      std::uint32_t victim = 0;
      for (std::uint32_t w = 1; w < ways; ++w) {
        if (base[w].last_use < base[victim].last_use) victim = w;
      }
      return victim;
    }
    case ReplacementPolicy::Fifo: {
      std::uint32_t victim = 0;
      for (std::uint32_t w = 1; w < ways; ++w) {
        if (base[w].fill_time < base[victim].fill_time) victim = w;
      }
      return victim;
    }
    case ReplacementPolicy::Random:
      return static_cast<std::uint32_t>(rng_.next_below(ways));
    case ReplacementPolicy::RoundRobin: {
      const std::uint32_t victim = rr_cursor_[set];
      rr_cursor_[set] = victim + 1 == ways ? 0 : victim + 1;
      return victim;
    }
  }
  return 0;
}

bool CacheLevel::mark_seen(std::uint64_t block) {
  if (2 * (seen_pages_ + 1) > seen_.size()) grow_seen();
  const std::uint64_t page = block >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (block & 63);
  const std::size_t mask = seen_.size() - 1;
  for (std::size_t i = fib_hash(page, seen_shift_);; i = (i + 1) & mask) {
    SeenSlot& slot = seen_[i];
    if (slot.page == page) {
      const bool seen = (slot.bits & bit) != 0;
      slot.bits |= bit;
      return seen;
    }
    if (slot.page == kNoPage) {
      slot = SeenSlot{page, bit};
      ++seen_pages_;
      return false;
    }
  }
}

void CacheLevel::grow_seen() {
  std::vector<SeenSlot> old(std::max<std::size_t>(64, 2 * seen_.size()));
  old.swap(seen_);
  seen_shift_ = 64 - static_cast<unsigned>(std::countr_zero(seen_.size()));
  const std::size_t mask = seen_.size() - 1;
  for (const SeenSlot& slot : old) {
    if (slot.page == kNoPage) continue;
    std::size_t i = fib_hash(slot.page, seen_shift_);
    while (seen_[i].page != kNoPage) i = (i + 1) & mask;
    seen_[i] = slot;
  }
}

void CacheLevel::shadow_index_insert(std::uint64_t block, std::uint32_t node) {
  const std::size_t mask = shadow_slots_.size() - 1;
  std::size_t i = fib_hash(block, shadow_shift_);
  while (shadow_slots_[i].node != kNil) i = (i + 1) & mask;
  shadow_slots_[i] = ShadowSlot{block, node};
}

void CacheLevel::shadow_index_erase(std::uint32_t node) {
  // Linear probing with backward-shift deletion: no tombstones, so probe
  // chains never outgrow the live entries.
  const std::size_t mask = shadow_slots_.size() - 1;
  std::size_t hole = fib_hash(shadow_nodes_[node].block, shadow_shift_);
  while (shadow_slots_[hole].node != node) hole = (hole + 1) & mask;
  for (std::size_t j = (hole + 1) & mask; shadow_slots_[j].node != kNil;
       j = (j + 1) & mask) {
    // An entry may fill the hole only if the hole lies on its probe path
    // (between its home slot and where it sits now).
    const std::size_t home = fib_hash(shadow_slots_[j].block, shadow_shift_);
    if (((j - hole) & mask) <= ((j - home) & mask)) {
      shadow_slots_[hole] = shadow_slots_[j];
      hole = j;
    }
  }
  shadow_slots_[hole].node = kNil;
}

void CacheLevel::shadow_link_front(std::uint32_t node) {
  shadow_nodes_[node].prev = kNil;
  shadow_nodes_[node].next = shadow_head_;
  if (shadow_head_ != kNil) shadow_nodes_[shadow_head_].prev = node;
  shadow_head_ = node;
  if (shadow_tail_ == kNil) shadow_tail_ = node;
}

void CacheLevel::shadow_unlink(std::uint32_t node) {
  const ShadowNode& n = shadow_nodes_[node];
  if (n.prev != kNil) {
    shadow_nodes_[n.prev].next = n.next;
  } else {
    shadow_head_ = n.next;
  }
  if (n.next != kNil) {
    shadow_nodes_[n.next].prev = n.prev;
  } else {
    shadow_tail_ = n.prev;
  }
}

inline bool CacheLevel::touch_shadow(std::uint64_t block) {
  // Fully associative LRU of the same block capacity; used to separate
  // capacity misses (miss here too) from conflict misses (hit here).
  if (shadow_head_ != kNil && shadow_nodes_[shadow_head_].block == block) {
    return true;  // already the most recent block
  }
  const std::size_t mask = shadow_slots_.size() - 1;
  for (std::size_t i = fib_hash(block, shadow_shift_);
       shadow_slots_[i].node != kNil; i = (i + 1) & mask) {
    if (shadow_slots_[i].block == block) {
      const std::uint32_t node = shadow_slots_[i].node;
      shadow_unlink(node);
      shadow_link_front(node);
      return true;
    }
  }
  shadow_insert(block);
  return false;
}

void CacheLevel::shadow_insert(std::uint64_t block) {
  std::uint32_t node;
  if (shadow_nodes_.size() < geo_.blocks) {
    node = static_cast<std::uint32_t>(shadow_nodes_.size());
    shadow_nodes_.push_back(ShadowNode{block, kNil, kNil});
  } else {
    // Full: the least recent block leaves and its node is reused.
    node = shadow_tail_;
    shadow_index_erase(node);
    shadow_unlink(node);
    shadow_nodes_[node].block = block;
  }
  shadow_link_front(node);
  shadow_index_insert(block, node);
}

MissClass CacheLevel::classify_miss(std::uint64_t block, bool in_shadow) {
  if (!mark_seen(block)) return MissClass::Compulsory;
  if (!in_shadow) return MissClass::Capacity;
  return MissClass::Conflict;
}

void CacheLevel::prefetch_block(std::uint64_t block) {
  const std::uint64_t set = geo_.set_index(block);
  if (find_line(set, block) != nullptr) return;  // already resident
  ++stats_.prefetches;
  if (next_ != nullptr) {
    next_->access(geo_.base_of(block), /*is_write=*/false);
  }
  const std::uint32_t way = pick_victim(set);
  Line& victim = lines_[set * geo_.ways + way];
  if (victim.valid) {
    ++stats_.evictions;
    if (victim.dirty) {
      ++stats_.writebacks;
      if (next_ != nullptr) {
        next_->access(geo_.base_of(victim.block), /*is_write=*/true);
      }
    }
  }
  victim.valid = true;
  victim.block = block;
  victim.dirty = false;
  victim.last_use = clock_;
  victim.fill_time = clock_;
  victim.prefetched = true;
  mark_seen(block);
}

void CacheLevel::maybe_prefetch(std::uint64_t block, bool demand_hit,
                                bool hit_on_prefetched) {
  switch (config_.prefetch) {
    case PrefetchPolicy::None:
      return;
    case PrefetchPolicy::Always:
      prefetch_block(block + 1);
      return;
    case PrefetchPolicy::Miss:
      if (!demand_hit) prefetch_block(block + 1);
      return;
    case PrefetchPolicy::Tagged:
      // First demand reference to a block: a demand miss, or the first
      // demand hit on a line the prefetcher brought in.
      if (!demand_hit || hit_on_prefetched) prefetch_block(block + 1);
      return;
  }
}

AccessOutcome CacheLevel::access(std::uint64_t address, bool is_write) {
  ++clock_;
  const std::uint64_t block = geo_.block_of(address);
  const std::uint64_t set = geo_.set_index(block);

  AccessOutcome out;
  out.set = set;
  out.block = block;

  const bool in_shadow = touch_shadow(block);
  bool hit_on_prefetched = false;
  Line* line = find_line(set, block);
  if (line != nullptr) {
    out.hit = true;
    if (line->prefetched) {
      hit_on_prefetched = true;
      line->prefetched = false;
      ++stats_.prefetch_hits;
    }
    line->last_use = clock_;
    if (is_write) {
      if (config_.write == WritePolicy::WriteThrough) {
        if (next_ != nullptr) next_->access(address, /*is_write=*/true);
      } else {
        line->dirty = true;
      }
      ++stats_.write_hits;
    } else {
      ++stats_.read_hits;
    }
    ++set_stats_[set].hits;
  } else {
    out.hit = false;
    out.miss_class = classify_miss(block, in_shadow);
    switch (out.miss_class) {
      case MissClass::Compulsory: ++stats_.compulsory; break;
      case MissClass::Capacity: ++stats_.capacity; break;
      case MissClass::Conflict: ++stats_.conflict; break;
      case MissClass::None: break;
    }
    if (is_write) {
      ++stats_.write_misses;
    } else {
      ++stats_.read_misses;
    }
    ++set_stats_[set].misses;

    const bool allocate =
        !is_write || config_.alloc == AllocPolicy::WriteAllocate;
    if (is_write && (config_.write == WritePolicy::WriteThrough || !allocate)) {
      // The write itself goes to the next level.
      if (next_ != nullptr) next_->access(address, /*is_write=*/true);
    }
    if (allocate) {
      // Demand fetch from the next level.
      if (next_ != nullptr) next_->access(address, /*is_write=*/false);
      const std::uint32_t way = pick_victim(set);
      Line& victim = lines_[set * geo_.ways + way];
      if (victim.valid) {
        out.evicted = true;
        out.evicted_block = victim.block;
        ++stats_.evictions;
        if (victim.dirty) {
          out.writeback = true;
          ++stats_.writebacks;
          if (next_ != nullptr) {
            next_->access(geo_.base_of(victim.block), /*is_write=*/true);
          }
        }
      }
      victim.valid = true;
      victim.block = block;
      victim.dirty =
          is_write && config_.write == WritePolicy::WriteBack;
      victim.last_use = clock_;
      victim.fill_time = clock_;
      victim.prefetched = false;
    }
  }

  maybe_prefetch(block, out.hit, hit_on_prefetched);
  return out;
}

AccessOutcome CacheLevel::access_blocks(std::uint64_t address,
                                        std::uint64_t size, bool is_write) {
  internal_check(size > 0, "access_range of zero bytes");
  std::uint64_t block = geo_.block_of(address);
  std::uint64_t left = geo_.block_of(span_last_byte(address, size)) - block;
  const AccessOutcome first = access(address, is_write);
  // Counted: the last block may be UINT64_MAX, which `block <= last`
  // never passes.
  for (; left > 0; --left) access(geo_.base_of(++block), is_write);
  return first;
}

bool CacheLevel::contains_block(std::uint64_t block) const {
  const std::uint64_t set = geo_.set_index(block);
  const std::uint32_t ways = geo_.ways;
  const Line* base = &lines_[set * ways];
  for (std::uint32_t w = 0; w < ways; ++w) {
    if (base[w].valid && base[w].block == block) return true;
  }
  return false;
}

std::uint32_t CacheLevel::set_occupancy(std::uint64_t set) const {
  const std::uint32_t ways = geo_.ways;
  const Line* base = &lines_[set * ways];
  std::uint32_t n = 0;
  for (std::uint32_t w = 0; w < ways; ++w) {
    if (base[w].valid) ++n;
  }
  return n;
}

}  // namespace tdt::cache
