// Differential oracle for the cache simulator: an obviously-correct
// list-based reference cache is replayed access-by-access against
// CacheLevel (and a CacheHierarchy's L1) on fixed-seed random streams,
// comparing every AccessOutcome field and the final LevelStats.
//
// The reference trades all efficiency for transparency: each set is an
// ordered vector (LRU recency order / FIFO fill order), the shadow cache
// is a plain front-ordered deque, the seen-set is a std::set of blocks
// marked on every access and every prefetch fill, and every policy
// decision is a direct transcription of the documented semantics. Both
// models are exact, not statistical: CacheLevel's clock_ strictly
// increases, so its min-last_use / min-fill_time victim is unique and
// equals the list front. The one exception is a prefetch fill, which
// shares its trigger's timestamp; prefetching rows therefore use at
// least two sets, so block and block + 1 never compete for one set.
//
// tests_cache runs the tier-1 rows (200k accesses each); tests_cache_slow
// compiles this file again with TDT_REFMODEL_LONG for 1M-access rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <ostream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"

namespace tdt::cache {
namespace {

/// What the reference predicts for one access.
struct RefOutcome {
  bool hit = false;
  MissClass miss_class = MissClass::None;
  std::uint64_t set = 0;
  std::uint64_t block = 0;
  bool evicted = false;
  std::uint64_t evicted_block = 0;
  bool writeback = false;
};

/// List-based single-level reference cache.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config)
      : config_(config), sets_(config.num_sets()) {}

  RefOutcome access(std::uint64_t address, bool is_write) {
    const std::uint64_t block = address / config_.block_size;
    const std::uint64_t set_idx = block % config_.num_sets();
    std::vector<Entry>& set = sets_[set_idx];

    RefOutcome out;
    out.set = set_idx;
    out.block = block;
    bool hit_on_prefetched = false;
    auto it = set.begin();
    while (it != set.end() && it->block != block) ++it;
    if (it != set.end()) {
      out.hit = true;
      if (it->prefetched) {
        hit_on_prefetched = true;
        it->prefetched = false;
        ++stats_.prefetch_hits;
      }
      // Write-through forwards the write instead of dirtying the line.
      if (is_write && config_.write == WritePolicy::WriteBack) {
        it->dirty = true;
      }
      if (config_.replacement == ReplacementPolicy::Lru) {
        // Move to the most-recently-used end; FIFO keeps fill order.
        Entry touched = *it;
        set.erase(it);
        set.push_back(touched);
      }
    } else {
      if (!ever_seen_.contains(block)) {
        out.miss_class = MissClass::Compulsory;
        ++stats_.compulsory;
      } else if (!in_shadow(block)) {
        out.miss_class = MissClass::Capacity;
        ++stats_.capacity;
      } else {
        out.miss_class = MissClass::Conflict;
        ++stats_.conflict;
      }
      // A write miss without write-allocate bypasses the cache, but the
      // block still counts as seen and enters the shadow below.
      if (!is_write || config_.alloc == AllocPolicy::WriteAllocate) {
        const Entry evicted = make_room(set);
        if (evicted.valid) {
          out.evicted = true;
          out.evicted_block = evicted.block;
          out.writeback = evicted.dirty;
        }
        const bool dirty =
            is_write && config_.write == WritePolicy::WriteBack;
        set.push_back(Entry{block, true, dirty, false});
      }
    }
    if (is_write) {
      ++(out.hit ? stats_.write_hits : stats_.write_misses);
    } else {
      ++(out.hit ? stats_.read_hits : stats_.read_misses);
    }
    ever_seen_.insert(block);
    touch_shadow(block);

    const bool first_reference = !out.hit || hit_on_prefetched;
    if (config_.prefetch == PrefetchPolicy::Always ||
        (config_.prefetch == PrefetchPolicy::Miss && !out.hit) ||
        (config_.prefetch == PrefetchPolicy::Tagged && first_reference)) {
      prefetch(block + 1);
    }
    return out;
  }

  void reset() {
    sets_.assign(config_.num_sets(), {});
    shadow_.clear();
    ever_seen_.clear();
    stats_ = LevelStats{};
  }

  [[nodiscard]] const LevelStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint64_t block;
    bool valid;
    bool dirty;
    bool prefetched;
  };

  /// Evicts the front entry (least recent / first filled) of a full set.
  Entry make_room(std::vector<Entry>& set) {
    if (set.size() < config_.effective_assoc()) {
      return Entry{0, false, false, false};
    }
    const Entry victim = set.front();
    ++stats_.evictions;
    if (victim.dirty) ++stats_.writebacks;
    set.erase(set.begin());
    return victim;
  }

  /// Next-block prefetch: fills a clean line without classification or a
  /// shadow touch, but the block counts as seen from now on.
  void prefetch(std::uint64_t block) {
    std::vector<Entry>& set = sets_[block % config_.num_sets()];
    for (const Entry& e : set) {
      if (e.block == block) return;
    }
    ++stats_.prefetches;
    make_room(set);
    set.push_back(Entry{block, true, false, true});
    ever_seen_.insert(block);
  }

  [[nodiscard]] bool in_shadow(std::uint64_t block) const {
    for (std::uint64_t b : shadow_) {
      if (b == block) return true;
    }
    return false;
  }

  /// Fully associative LRU of num_blocks capacity, most recent in front.
  void touch_shadow(std::uint64_t block) {
    for (auto it = shadow_.begin(); it != shadow_.end(); ++it) {
      if (*it == block) {
        shadow_.erase(it);
        shadow_.push_front(block);
        return;
      }
    }
    if (shadow_.size() >= config_.num_blocks()) shadow_.pop_back();
    shadow_.push_front(block);
  }

  CacheConfig config_;
  std::vector<std::vector<Entry>> sets_;
  std::deque<std::uint64_t> shadow_;
  std::set<std::uint64_t> ever_seen_;
  LevelStats stats_;
};

struct Access {
  std::uint64_t address;
  bool is_write;
};

void expect_same(const RefOutcome& expected, const AccessOutcome& got,
                 std::size_t i) {
  ASSERT_EQ(expected.hit, got.hit) << "access " << i;
  ASSERT_EQ(expected.miss_class, got.miss_class) << "access " << i;
  ASSERT_EQ(expected.set, got.set) << "access " << i;
  ASSERT_EQ(expected.block, got.block) << "access " << i;
  ASSERT_EQ(expected.evicted, got.evicted) << "access " << i;
  if (expected.evicted) {
    ASSERT_EQ(expected.evicted_block, got.evicted_block) << "access " << i;
  }
  ASSERT_EQ(expected.writeback, got.writeback) << "access " << i;
}

#ifndef TDT_REFMODEL_LONG

/// 10k accesses over a footprint a few times the cache size, so hits,
/// all three miss classes, evictions, and writebacks all occur.
std::vector<Access> fixed_seed_accesses() {
  std::mt19937_64 rng(0xB10CACE5u);
  std::vector<Access> accesses;
  accesses.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    // Mix a hot region (re-references -> hits and conflicts) with a wide
    // region (streaming -> compulsory and capacity misses).
    const bool hot = rng() % 4 != 0;
    const std::uint64_t span = hot ? 8 * 1024 : 64 * 1024;
    accesses.push_back({rng() % span, rng() % 3 == 0});
  }
  return accesses;
}

class ReferenceModelTest
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                ReplacementPolicy>> {};

TEST_P(ReferenceModelTest, MatchesCacheLevelAndHierarchyL1) {
  const auto [assoc, policy] = GetParam();
  CacheConfig config;
  config.size = 4096;
  config.block_size = 32;
  config.assoc = assoc;
  config.replacement = policy;

  ReferenceCache reference(config);
  CacheLevel level(config);
  CacheHierarchy hierarchy(config);

  const std::vector<Access> accesses = fixed_seed_accesses();
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    const auto [address, is_write] = accesses[i];
    const RefOutcome expected = reference.access(address, is_write);
    const AccessOutcome got = level.access(address, is_write);
    const AccessOutcome via_l1 = hierarchy.l1().access(address, is_write);

    expect_same(expected, got, i);
    if (HasFatalFailure()) return;
    // The hierarchy's L1 must behave identically to a bare level.
    ASSERT_EQ(got.hit, via_l1.hit) << "access " << i;
    ASSERT_EQ(got.miss_class, via_l1.miss_class) << "access " << i;
  }

  EXPECT_EQ(reference.stats(), level.stats());
  EXPECT_EQ(reference.stats(), hierarchy.l1().stats());
  // Sanity: the stream exercised every interesting event at least once.
  EXPECT_GT(level.stats().hits(), 0u);
  EXPECT_GT(level.stats().compulsory, 0u);
  EXPECT_GT(level.stats().capacity, 0u);
  EXPECT_GT(level.stats().evictions, 0u);
  EXPECT_GT(level.stats().writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReferenceModelTest,
    ::testing::Values(std::pair{1u, ReplacementPolicy::Lru},
                      std::pair{2u, ReplacementPolicy::Lru},
                      std::pair{8u, ReplacementPolicy::Lru},
                      std::pair{1u, ReplacementPolicy::Fifo},
                      std::pair{2u, ReplacementPolicy::Fifo},
                      std::pair{8u, ReplacementPolicy::Fifo}),
    [](const auto& info) {
      return "assoc" + std::to_string(info.param.first) +
             (info.param.second == ReplacementPolicy::Lru ? "Lru" : "Fifo");
    });

#endif  // TDT_REFMODEL_LONG

// ---- long streams ------------------------------------------------------

#ifdef TDT_REFMODEL_LONG
constexpr std::size_t kStreamAccesses = 1'000'000;
#else
constexpr std::size_t kStreamAccesses = 200'000;
#endif

/// Where a stream's addresses come from.
enum class Spread : std::uint8_t {
  Packed,  ///< one contiguous region four times the cache's size
  Wide,    ///< runs starting anywhere in the 64-bit address space
  Edges,   ///< runs hugging 0 and UINT64_MAX (used with 1-byte blocks)
};

struct StreamCase {
  Spread spread;
  std::uint64_t blocks;  ///< cache capacity in blocks
  std::uint64_t block_size;
  std::uint32_t assoc;
  ReplacementPolicy replacement;
  WritePolicy write = WritePolicy::WriteBack;
  AllocPolicy alloc = AllocPolicy::WriteAllocate;
  PrefetchPolicy prefetch = PrefetchPolicy::None;

  [[nodiscard]] CacheConfig config() const {
    CacheConfig c;
    c.size = blocks * block_size;
    c.block_size = block_size;
    c.assoc = assoc;
    c.replacement = replacement;
    c.write = write;
    c.alloc = alloc;
    c.prefetch = prefetch;
    return c;
  }

  [[nodiscard]] std::string name() const {
    static constexpr const char* kSpread[] = {"packed", "wide", "edges"};
    std::string n = kSpread[static_cast<int>(spread)];
    n += '_';
    n += std::to_string(blocks);
    n += "blk_b";
    n += std::to_string(block_size);
    if (assoc == 0) {
      n += "_full";
    } else {
      n += "_a";
      n += std::to_string(assoc);
    }
    n += replacement == ReplacementPolicy::Lru ? "_lru" : "_fifo";
    if (write == WritePolicy::WriteThrough) n += "_wt";
    if (alloc == AllocPolicy::NoWriteAllocate) n += "_nwa";
    if (prefetch != PrefetchPolicy::None) {
      static constexpr const char* kPrefetch[] = {"", "always", "miss",
                                                  "tagged"};
      n += std::string("_pf") + kPrefetch[static_cast<int>(prefetch)];
    }
    return n;
  }
};

// gtest prints a parameter next to each test's name; print the case name
// rather than the struct's bytes, padding included.
void PrintTo(const StreamCase& c, std::ostream* os) { *os << c.name(); }

/// A fixed-seed stream that mixes short sequential runs (hits, and
/// prefetch hits), a hot working set of half the cache (conflicts in
/// low-associativity caches), a cold pool four times the cache (capacity
/// misses) and occasional fresh blocks (compulsory misses). Run starts
/// are pool entries; each access lands at a random byte inside its block.
std::vector<Access> make_stream(const StreamCase& c, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::uint64_t bs = c.block_size;
  const auto fresh_start = [&]() -> std::uint64_t {
    switch (c.spread) {
      case Spread::Packed:
        return 0x10000 + (rng() % (4 * c.blocks)) * bs;
      case Spread::Wide:
        return rng() / bs * bs;
      case Spread::Edges: {
        // Within 4 * blocks of either end of the address space.
        const std::uint64_t d = rng() % (4 * c.blocks);
        return rng() % 2 == 0 ? d : UINT64_MAX - d;
      }
    }
    return 0;
  };
  std::vector<std::uint64_t> pool(4 * c.blocks + 4);
  for (std::uint64_t& start : pool) start = fresh_start();
  if (c.spread == Spread::Edges) {
    pool[0] = UINT64_MAX;  // the last block of the address space
    pool[1] = 0;
  }
  const std::size_t hot = c.blocks / 2 + 1;

  std::vector<Access> accesses;
  accesses.reserve(kStreamAccesses);
  while (accesses.size() < kStreamAccesses) {
    const std::uint64_t roll = rng() % 100;
    std::uint64_t start;
    if (roll < 2) {
      start = fresh_start();
    } else if (roll < 60) {
      start = pool[rng() % hot];
    } else {
      start = pool[rng() % pool.size()];
    }
    // A run of 1-4 blocks, each touched 1-3 times; block arithmetic
    // wraps at the top of the address space.
    const std::uint64_t run = 1 + rng() % 4;
    for (std::uint64_t b = 0; b < run; ++b) {
      const std::uint64_t block_base = start + b * bs;
      const std::uint64_t touches = 1 + rng() % 3;
      for (std::uint64_t t = 0; t < touches; ++t) {
        accesses.push_back({block_base + rng() % bs, rng() % 3 == 0});
      }
    }
  }
  accesses.resize(kStreamAccesses);
  return accesses;
}

class ReferenceStreamTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(ReferenceStreamTest, EveryOutcomeMatches) {
  const StreamCase& c = GetParam();
  const CacheConfig config = c.config();
  ReferenceCache reference(config);
  CacheLevel level(config);

  const std::vector<Access> accesses =
      make_stream(c, 0x5EED0000u + c.blocks * 131 + c.assoc);
  // Reset both models once, mid-stream; the first segment's totals are
  // compared before they are discarded.
  const std::size_t reset_at = accesses.size() * 3 / 5;
  LevelStats first_segment;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    if (i == reset_at) {
      ASSERT_EQ(reference.stats(), level.stats()) << "before reset";
      first_segment = level.stats();
      reference.reset();
      level.reset();
    }
    const auto [address, is_write] = accesses[i];
    expect_same(reference.access(address, is_write),
                level.access(address, is_write), i);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(reference.stats(), level.stats());

  // Sanity: the stream reached every miss class and eviction path.
  const LevelStats& s = first_segment;
  EXPECT_GT(s.hits(), 0u);
  EXPECT_GT(s.compulsory, 0u);
  EXPECT_GT(s.capacity, 0u);
  if (c.assoc != 0 && c.blocks > c.assoc) {
    EXPECT_GT(s.conflict, 0u);
  }
  EXPECT_GT(s.evictions, 0u);
  if (c.write == WritePolicy::WriteBack) {
    EXPECT_GT(s.writebacks, 0u);
  }
  if (c.prefetch != PrefetchPolicy::None) {
    EXPECT_GT(s.prefetch_hits, 0u);
  }
}

std::vector<StreamCase> stream_cases() {
  using RP = ReplacementPolicy;
  std::vector<StreamCase> cases;
  // Geometry: assoc 0/1/2/8 x LRU/FIFO over packed and wide addresses,
  // with capacities from 8 to 1024 blocks.
  const std::uint64_t capacity[] = {256, 64, 1024, 8};
  int k = 0;
  for (Spread spread : {Spread::Packed, Spread::Wide}) {
    for (std::uint32_t assoc : {0u, 1u, 2u, 8u}) {
      for (RP rp : {RP::Lru, RP::Fifo}) {
        cases.push_back({spread, capacity[k++ % 4], 32, assoc, rp});
      }
    }
  }
  // 1-byte blocks at both ends of the address space: block numbers reach
  // UINT64_MAX, where a "block + 1" empty-slot sentinel would wrap onto
  // block 0. Capacities down to a single block.
  cases.push_back({Spread::Edges, 1, 1, 1, RP::Lru});
  cases.push_back({Spread::Edges, 1, 1, 0, RP::Fifo});
  cases.push_back({Spread::Edges, 4, 1, 2, RP::Lru});
  cases.push_back({Spread::Edges, 64, 1, 0, RP::Lru});
  cases.push_back({Spread::Edges, 256, 1, 8, RP::Fifo});
  // Write misses that mark a block seen without filling it.
  for (WritePolicy write :
       {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
    cases.push_back({Spread::Packed, 64, 32, 2, RP::Lru, write,
                     AllocPolicy::NoWriteAllocate});
  }
  cases.push_back({Spread::Wide, 128, 64, 1, RP::Fifo,
                   WritePolicy::WriteThrough, AllocPolicy::WriteAllocate});
  // Prefetch fills that mark a block seen without a demand access. At
  // least two sets each: block and block + 1 then never share a set.
  for (PrefetchPolicy pf : {PrefetchPolicy::Always, PrefetchPolicy::Miss,
                            PrefetchPolicy::Tagged}) {
    cases.push_back({Spread::Packed, 64, 32, 1, RP::Lru,
                     WritePolicy::WriteBack, AllocPolicy::WriteAllocate, pf});
    cases.push_back({Spread::Packed, 256, 32, 8, RP::Fifo,
                     WritePolicy::WriteBack, AllocPolicy::WriteAllocate, pf});
    cases.push_back({Spread::Edges, 16, 1, 2, RP::Lru,
                     WritePolicy::WriteThrough, AllocPolicy::NoWriteAllocate,
                     pf});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
#ifdef TDT_REFMODEL_LONG
    LongStreams,
#else
    Streams,
#endif
    ReferenceStreamTest, ::testing::ValuesIn(stream_cases()),
    [](const auto& info) { return info.param.name(); });

}  // namespace
}  // namespace tdt::cache
