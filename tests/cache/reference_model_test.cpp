// Differential oracle for the cache simulator: an obviously-correct
// list-based reference cache is replayed access-by-access against
// CacheLevel (and a CacheHierarchy's L1) on fixed-seed random streams,
// comparing every AccessOutcome field and the final LevelStats. Record
// streams drive CacheLevel::access_range and TraceCacheSim's push_batch
// and on_record the same way, against a reference that splits each span
// into blocks itself, and also compare the per-set counters; the
// simulator rows cover its options (observers, a page mapper, instruction
// fetches, Modify as a read and a write).
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
// The reference divides by the block size and takes the set index modulo
// the set count on purpose: it must not share the simulator's shifts and
// masks. tests_cache runs the tier-1 rows (200k accesses each);
// tests_cache_slow compiles this file again with TDT_REFMODEL_LONG for
// 1M-access rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <ostream>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "cache/page_map.hpp"
#include "cache/sim.hpp"

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
      : config_(config),
        sets_(config.num_sets()),
        set_stats_(config.num_sets()) {}

  /// Accesses every block of [address, address + size) in order and
  /// returns the first block's outcome. A span that runs past the top of
  /// the address space ends at its last byte.
  RefOutcome access_range(std::uint64_t address, std::uint64_t size,
                          bool is_write) {
    const std::uint64_t bs = config_.block_size;
    const std::uint64_t last_byte =
        size - 1 > UINT64_MAX - address ? UINT64_MAX : address + size - 1;
    const RefOutcome first = access(address, is_write);
    for (std::uint64_t b = address / bs; b != last_byte / bs;) {
      ++b;
      access(b * bs, is_write);
    }
    return first;
  }

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
    ++(out.hit ? set_stats_[set_idx].hits : set_stats_[set_idx].misses);
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
    set_stats_.assign(config_.num_sets(), SetStats{});
    shadow_.clear();
    ever_seen_.clear();
    stats_ = LevelStats{};
  }

  [[nodiscard]] const LevelStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<SetStats>& set_stats() const {
    return set_stats_;
  }

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
  std::vector<SetStats> set_stats_;
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

/// Where each run of blocks starts: mostly an entry of a hot working set
/// of half the cache (conflicts in low-associativity caches), else of a
/// cold pool four times the cache (capacity misses), and now and then a
/// fresh block (compulsory misses).
class RunStarts {
 public:
  RunStarts(const StreamCase& c, std::mt19937_64& rng)
      : c_(c), rng_(rng), pool_(4 * c.blocks + 4) {
    for (std::uint64_t& start : pool_) start = fresh();
    if (c.spread == Spread::Edges) {
      pool_[0] = UINT64_MAX;  // the last block of the address space
      pool_[1] = 0;
    }
  }

  std::uint64_t next() {
    const std::uint64_t roll = rng_() % 100;
    if (roll < 2) return fresh();
    if (roll < 60) return pool_[rng_() % (c_.blocks / 2 + 1)];
    return pool_[rng_() % pool_.size()];
  }

 private:
  std::uint64_t fresh() {
    const std::uint64_t bs = c_.block_size;
    switch (c_.spread) {
      case Spread::Packed:
        return 0x10000 + (rng_() % (4 * c_.blocks)) * bs;
      case Spread::Wide:
        return rng_() / bs * bs;
      case Spread::Edges: {
        // Within 4 * blocks of either end of the address space.
        const std::uint64_t d = rng_() % (4 * c_.blocks);
        return rng_() % 2 == 0 ? d : UINT64_MAX - d;
      }
    }
    return 0;
  }

  const StreamCase& c_;
  std::mt19937_64& rng_;
  std::vector<std::uint64_t> pool_;
};

/// A fixed-seed stream of short sequential runs (hits, and prefetch
/// hits) from RunStarts. Each access lands at a random byte inside its
/// block.
std::vector<Access> make_stream(const StreamCase& c, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  RunStarts starts(c, rng);
  const std::uint64_t bs = c.block_size;
  std::vector<Access> accesses;
  accesses.reserve(kStreamAccesses);
  while (accesses.size() < kStreamAccesses) {
    const std::uint64_t start = starts.next();
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

// ---- record streams: access_range and TraceCacheSim ----------------------

/// Records over the same run starts, each of kind L, S, M or I. A record
/// starts at a random byte of its block and spans 1-3 blocks, so spans
/// cross block boundaries and, in the Edges rows, run past the top of the
/// address space. Half as many records as a stream has accesses keeps
/// the block accesses near kStreamAccesses.
std::vector<trace::TraceRecord> make_records(const StreamCase& c,
                                             std::uint64_t seed) {
  using trace::AccessKind;
  static constexpr AccessKind kKinds[] = {AccessKind::Load, AccessKind::Store,
                                          AccessKind::Modify,
                                          AccessKind::Instr};
  std::mt19937_64 rng(seed);
  RunStarts starts(c, rng);
  const std::uint64_t bs = c.block_size;
  const std::size_t count = kStreamAccesses / 2;
  std::vector<trace::TraceRecord> records;
  records.reserve(count);
  while (records.size() < count) {
    const std::uint64_t start = starts.next();
    const std::uint64_t run = 1 + rng() % 4;
    for (std::uint64_t b = 0; b < run; ++b) {
      const std::uint64_t blocks = 1 + rng() % 3;
      // Offsets of the first byte in the first block and of the last
      // byte in the last block.
      std::uint64_t first = rng() % bs;
      std::uint64_t last = rng() % bs;
      if (blocks == 1 && last < first) std::swap(first, last);
      trace::TraceRecord rec;
      rec.kind = kKinds[rng() % 4];
      rec.address = start + b * bs + first;
      rec.size =
          static_cast<std::uint32_t>((blocks - 1) * bs + last - first + 1);
      records.push_back(rec);
    }
  }
  records.resize(count);
  return records;
}

/// TraceCacheSim's contract, over the reference: instruction fetches are
/// skipped when `options.ignore_instr` is set and read otherwise; a
/// record's address goes through the page mapper, when there is one,
/// before anything is simulated; and a Modify is a write, or a read and
/// then a write when modify_is_read_write is set. The write's outcome is
/// the one observed.
std::optional<RefOutcome> reference_step(ReferenceCache& reference,
                                         const trace::TraceRecord& rec,
                                         const SimOptions& options) {
  using trace::AccessKind;
  if (rec.kind == AccessKind::Instr && options.ignore_instr) {
    return std::nullopt;
  }
  const std::uint64_t address = options.page_mapper != nullptr
                                    ? options.page_mapper->translate(rec.address)
                                    : rec.address;
  if (rec.kind == AccessKind::Modify && options.modify_is_read_write) {
    reference.access_range(address, rec.size, /*is_write=*/false);
  }
  const bool is_write =
      rec.kind == AccessKind::Store || rec.kind == AccessKind::Modify;
  return reference.access_range(address, rec.size, is_write);
}

/// Keeps every outcome TraceCacheSim hands its observers.
class OutcomeLog final : public AccessObserver {
 public:
  void on_access(const trace::TraceRecord&,
                 const AccessOutcome& outcome) override {
    outcomes.push_back(outcome);
  }
  std::vector<AccessOutcome> outcomes;
};

struct RecordCase {
  StreamCase stream;
  bool modify_is_read_write;
  /// An OutcomeLog is attached. Without one, as in a sweep point, only
  /// the statistics and the record count are compared.
  bool observe = true;
  bool map_pages = false;  ///< a first-touch PageMapper translates first
  bool ignore_instr = true;

  [[nodiscard]] SimOptions options(PageMapper* mapper) const {
    SimOptions o;
    o.ignore_instr = ignore_instr;
    o.modify_is_read_write = modify_is_read_write;
    if (map_pages) o.page_mapper = mapper;
    return o;
  }

  [[nodiscard]] std::string name() const {
    std::string n = stream.name() + (modify_is_read_write ? "_rmw" : "");
    if (!observe) n += "_unobserved";
    if (map_pages) n += "_pages";
    if (!ignore_instr) n += "_instr";
    return n;
  }
};

void PrintTo(const RecordCase& c, std::ostream* os) { *os << c.name(); }

class ReferenceRecordTest : public ::testing::TestWithParam<RecordCase> {};

TEST_P(ReferenceRecordTest, RangesAndBatchesMatch) {
  const RecordCase& rc = GetParam();
  const StreamCase& c = rc.stream;
  const CacheConfig config = c.config();
  const std::vector<trace::TraceRecord> records =
      make_records(c, 0x5EED1000u + c.blocks * 131 + c.assoc);

  if (!rc.modify_is_read_write && rc.observe && !rc.map_pages &&
      rc.ignore_instr) {
    // access_range on a bare level, one record at a time; L and I read,
    // S and M write.
    ReferenceCache reference(config);
    CacheLevel level(config);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const trace::TraceRecord& rec = records[i];
      const bool is_write = rec.kind == trace::AccessKind::Store ||
                            rec.kind == trace::AccessKind::Modify;
      expect_same(reference.access_range(rec.address, rec.size, is_write),
                  level.access_range(rec.address, rec.size, is_write), i);
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(reference.stats(), level.stats());
    EXPECT_EQ(reference.set_stats(), level.set_stats());
  }

  // TraceCacheSim over batches of 1-4096 records, once through
  // push_batch and once a record at a time through on_record, each with
  // its own page mapper.
  PageMapper reference_pages(PagePolicy::FirstTouch);
  PageMapper batched_pages(PagePolicy::FirstTouch);
  PageMapper single_pages(PagePolicy::FirstTouch);
  const SimOptions reference_options = rc.options(&reference_pages);
  ReferenceCache reference(config);
  CacheHierarchy batched_hierarchy(config);
  CacheHierarchy single_hierarchy(config);
  TraceCacheSim batched(batched_hierarchy, rc.options(&batched_pages));
  TraceCacheSim single(single_hierarchy, rc.options(&single_pages));
  OutcomeLog batched_log;
  OutcomeLog single_log;
  if (rc.observe) {
    batched.add_observer(&batched_log);
    single.add_observer(&single_log);
  }
  std::mt19937_64 rng(c.blocks * 7 + c.assoc);
  const std::span<const trace::TraceRecord> all(records);
  std::uint64_t simulated = 0;
  for (std::size_t at = 0; at < records.size();) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng() % 4096, records.size() - at);
    batched_log.outcomes.clear();
    single_log.outcomes.clear();
    batched.push_batch(all.subspan(at, n));
    for (const trace::TraceRecord& rec : all.subspan(at, n)) {
      single.on_record(rec);
    }
    std::size_t observed = 0;
    for (std::size_t i = at; i < at + n; ++i) {
      const std::optional<RefOutcome> expected =
          reference_step(reference, records[i], reference_options);
      if (!expected.has_value()) continue;
      ++simulated;
      if (!rc.observe) continue;
      ASSERT_LT(observed, batched_log.outcomes.size()) << "record " << i;
      ASSERT_LT(observed, single_log.outcomes.size()) << "record " << i;
      expect_same(*expected, batched_log.outcomes[observed], i);
      expect_same(*expected, single_log.outcomes[observed], i);
      if (HasFatalFailure()) return;
      ++observed;
    }
    ASSERT_EQ(observed, batched_log.outcomes.size()) << "batch at " << at;
    ASSERT_EQ(observed, single_log.outcomes.size()) << "batch at " << at;
    ASSERT_EQ(reference.stats(), batched_hierarchy.l1().stats())
        << "batch at " << at;
    ASSERT_EQ(reference.stats(), single_hierarchy.l1().stats())
        << "batch at " << at;
    at += n;
  }
  for (const CacheHierarchy* hierarchy :
       {&batched_hierarchy, &single_hierarchy}) {
    EXPECT_EQ(reference.set_stats(), hierarchy->l1().set_stats());
  }
  EXPECT_EQ(batched.records_simulated(), simulated);
  EXPECT_EQ(single.records_simulated(), simulated);

  // Sanity: the records reached every miss class and eviction path.
  const LevelStats& s = batched_hierarchy.l1().stats();
  EXPECT_GT(s.hits(), 0u);
  EXPECT_GT(s.compulsory, 0u);
  EXPECT_GT(s.capacity, 0u);
  EXPECT_GT(s.evictions, 0u);
  if (c.write == WritePolicy::WriteBack) {
    EXPECT_GT(s.writebacks, 0u);
  }
}

std::vector<RecordCase> record_cases() {
  std::vector<RecordCase> cases;
  const std::vector<StreamCase> streams = stream_cases();
  for (const StreamCase& c : streams) {
    cases.push_back({c, false});
    cases.push_back({c, true});
  }
  // The other options on every third stream: packed, wide and edge
  // addresses, LRU and FIFO, no-write-allocate and three prefetchers.
  for (std::size_t k = 0; k < streams.size(); k += 3) {
    for (const bool rmw : {false, true}) {
      cases.push_back({streams[k], rmw, /*observe=*/false});
      cases.push_back({streams[k], rmw, true, /*map_pages=*/true});
      cases.push_back({streams[k], rmw, true, false, /*ignore_instr=*/false});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
#ifdef TDT_REFMODEL_LONG
    LongRecords,
#else
    Records,
#endif
    ReferenceRecordTest, ::testing::ValuesIn(record_cases()),
    [](const auto& info) { return info.param.name(); });

}  // namespace
}  // namespace tdt::cache
