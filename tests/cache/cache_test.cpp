#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace tdt::cache {
namespace {

CacheConfig tiny_dm() {
  CacheConfig c;
  c.name = "tiny";
  c.size = 256;  // 8 blocks of 32
  c.block_size = 32;
  c.assoc = 1;
  return c;
}

TEST(Cache, FirstTouchMisses) {
  CacheLevel cache(tiny_dm());
  const AccessOutcome o = cache.access(0x1000, false);
  EXPECT_FALSE(o.hit);
  EXPECT_EQ(o.miss_class, MissClass::Compulsory);
  EXPECT_EQ(cache.stats().read_misses, 1u);
}

TEST(Cache, SecondTouchHits) {
  CacheLevel cache(tiny_dm());
  (void)cache.access(0x1000, false);
  const AccessOutcome o = cache.access(0x1000, false);
  EXPECT_TRUE(o.hit);
  EXPECT_EQ(o.miss_class, MissClass::None);
}

TEST(Cache, SameBlockDifferentByteHits) {
  CacheLevel cache(tiny_dm());
  (void)cache.access(0x1000, false);
  EXPECT_TRUE(cache.access(0x101f, false).hit);
  EXPECT_FALSE(cache.access(0x1020, false).hit);  // next block
}

TEST(Cache, SetAndBlockComputedCorrectly) {
  CacheLevel cache(tiny_dm());
  const AccessOutcome o = cache.access(0x1234, false);
  EXPECT_EQ(o.block, 0x1234u / 32u);
  EXPECT_EQ(o.set, (0x1234u / 32u) % 8u);
}

TEST(Cache, DirectMappedConflictEvicts) {
  CacheLevel cache(tiny_dm());
  // Two addresses 256 bytes apart share a set in an 8-set cache.
  (void)cache.access(0x0, false);
  const AccessOutcome o = cache.access(0x100, false);
  EXPECT_FALSE(o.hit);
  EXPECT_TRUE(o.evicted);
  EXPECT_EQ(o.evicted_block, 0u);
  EXPECT_FALSE(cache.access(0x0, false).hit);  // evicted
}

TEST(Cache, TwoWaySurvivesTwoConflictingBlocks) {
  CacheConfig c = tiny_dm();
  c.assoc = 2;  // 4 sets
  CacheLevel cache(c);
  (void)cache.access(0x0, false);    // set 0
  (void)cache.access(0x80, false);   // 128 = block 4, set 0
  EXPECT_TRUE(cache.access(0x0, false).hit);
  EXPECT_TRUE(cache.access(0x80, false).hit);
}

TEST(Cache, HitsPlusMissesEqualsAccesses) {
  CacheLevel cache(tiny_dm());
  for (int i = 0; i < 1000; ++i) {
    (void)cache.access(static_cast<std::uint64_t>(i * 13) % 4096, i % 3 == 0);
  }
  const LevelStats& s = cache.stats();
  EXPECT_EQ(s.accesses(), 1000u);
  EXPECT_EQ(s.hits() + s.misses(), 1000u);
  EXPECT_EQ(s.compulsory + s.capacity + s.conflict, s.misses());
}

TEST(Cache, PerSetStatsSumToTotals) {
  CacheLevel cache(tiny_dm());
  for (int i = 0; i < 500; ++i) {
    (void)cache.access(static_cast<std::uint64_t>(i * 37) % 2048, false);
  }
  std::uint64_t hits = 0, misses = 0;
  for (const SetStats& s : cache.set_stats()) {
    hits += s.hits;
    misses += s.misses;
  }
  EXPECT_EQ(hits, cache.stats().hits());
  EXPECT_EQ(misses, cache.stats().misses());
}

TEST(Cache, WriteBackMarksDirtyAndWritesBackOnEviction) {
  CacheConfig c = tiny_dm();
  CacheConfig next_cfg = tiny_dm();
  next_cfg.size = 4096;
  CacheLevel l2(next_cfg);
  CacheLevel l1(c, &l2);
  (void)l1.access(0x0, true);            // write-allocate, dirty
  (void)l1.access(0x100, false);         // evicts dirty block 0
  EXPECT_EQ(l1.stats().writebacks, 1u);
  // L2 saw: fetch 0x0, fetch 0x100, writeback 0x0.
  EXPECT_EQ(l2.stats().accesses(), 3u);
  EXPECT_EQ(l2.stats().write_hits + l2.stats().write_misses, 1u);
}

TEST(Cache, CleanEvictionDoesNotWriteBack) {
  CacheLevel cache(tiny_dm());
  (void)cache.access(0x0, false);
  (void)cache.access(0x100, false);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().writebacks, 0u);
}

TEST(Cache, WriteThroughForwardsEveryWrite) {
  CacheConfig l1_cfg = tiny_dm();
  l1_cfg.write = WritePolicy::WriteThrough;
  CacheConfig l2_cfg = tiny_dm();
  l2_cfg.size = 4096;
  CacheLevel l2(l2_cfg);
  CacheLevel l1(l1_cfg, &l2);
  (void)l1.access(0x0, true);  // miss: fetch + forwarded write
  (void)l1.access(0x0, true);  // hit: forwarded write
  EXPECT_EQ(l1.stats().write_hits, 1u);
  EXPECT_EQ(l2.stats().write_hits + l2.stats().write_misses, 2u);
  // Write-through lines are never dirty: evicting produces no writeback.
  (void)l1.access(0x100, false);
  EXPECT_EQ(l1.stats().writebacks, 0u);
}

TEST(Cache, NoWriteAllocateBypassesOnWriteMiss) {
  CacheConfig c = tiny_dm();
  c.alloc = AllocPolicy::NoWriteAllocate;
  CacheLevel cache(c);
  (void)cache.access(0x0, true);
  EXPECT_FALSE(cache.contains_block(0));  // not allocated
  (void)cache.access(0x0, false);         // read miss allocates
  EXPECT_TRUE(cache.contains_block(0));
}

TEST(Cache, AccessRangeSplitsAcrossBlocks) {
  CacheLevel cache(tiny_dm());
  // 8 bytes starting 4 before a block boundary -> two blocks touched.
  (void)cache.access_range(0x101c, 8, false);
  EXPECT_TRUE(cache.contains_block(0x101c / 32));
  EXPECT_TRUE(cache.contains_block(0x1020 / 32));
  EXPECT_EQ(cache.stats().accesses(), 2u);
}

TEST(Cache, AccessRangeWithinBlockSingleAccess) {
  CacheLevel cache(tiny_dm());
  (void)cache.access_range(0x1000, 8, false);
  EXPECT_EQ(cache.stats().accesses(), 1u);
}

TEST(Cache, AccessRangeEndsAtTheTopOfTheAddressSpace) {
  CacheConfig c;
  c.size = 1024;
  c.block_size = 1;
  c.assoc = 1;
  CacheLevel cache(c);
  // The record's block is UINT64_MAX, which `block <= last` never passes.
  (void)cache.access_range(UINT64_MAX, 1, false);
  EXPECT_EQ(cache.stats().accesses(), 1u);
  // A span that runs past the top ends at its last byte: two blocks, and
  // no wrap onto block 0.
  (void)cache.access_range(UINT64_MAX - 1, 4, false);
  EXPECT_EQ(cache.stats().accesses(), 3u);
  EXPECT_TRUE(cache.contains_block(UINT64_MAX - 1));
  EXPECT_FALSE(cache.contains_block(0));

  CacheLevel wide(tiny_dm());
  (void)wide.access_range(UINT64_MAX - 40, 100, true);
  EXPECT_EQ(wide.stats().accesses(), 2u);
  EXPECT_TRUE(wide.contains_block(UINT64_MAX / 32));
  EXPECT_FALSE(wide.contains_block(0));
}

TEST(Cache, ZeroSizeRangeRejected) {
  CacheLevel cache(tiny_dm());
  EXPECT_THROW((void)cache.access_range(0x1000, 0, false), Error);
}

TEST(Cache, MoreBlocksThanTrackableRejected) {
  // 2^32 one-byte blocks: a valid geometry, but the LRU shadow indexes
  // its nodes with 32 bits. Rejected before anything is allocated.
  CacheConfig c;
  c.size = std::uint64_t{1} << 32;
  c.block_size = 1;
  c.assoc = 1;
  EXPECT_THROW(CacheLevel{c}, Error);
}

TEST(Cache, ResetClearsEverything) {
  CacheLevel cache(tiny_dm());
  (void)cache.access(0x0, true);
  cache.reset();
  EXPECT_EQ(cache.stats().accesses(), 0u);
  EXPECT_FALSE(cache.contains_block(0));
  const AccessOutcome o = cache.access(0x0, false);
  EXPECT_EQ(o.miss_class, MissClass::Compulsory);  // seen-set cleared too
}

TEST(Cache, FlushKeepsStats) {
  CacheLevel cache(tiny_dm());
  (void)cache.access(0x0, false);
  cache.flush();
  EXPECT_EQ(cache.stats().accesses(), 1u);
  EXPECT_FALSE(cache.contains_block(0));
  // Re-access misses but is NOT compulsory (block was seen before).
  const AccessOutcome o = cache.access(0x0, false);
  EXPECT_FALSE(o.hit);
  EXPECT_NE(o.miss_class, MissClass::Compulsory);
}

TEST(Cache, SetOccupancyGrowsToAssoc) {
  CacheConfig c = tiny_dm();
  c.assoc = 4;  // 2 sets
  CacheLevel cache(c);
  for (int i = 0; i < 4; ++i) {
    (void)cache.access(static_cast<std::uint64_t>(i) * 64, false);  // set 0
  }
  EXPECT_EQ(cache.set_occupancy(0), 4u);
  EXPECT_EQ(cache.set_occupancy(1), 0u);
}

TEST(Cache, FullyAssociativeNoConflictMisses) {
  CacheConfig c;
  c.size = 256;
  c.block_size = 32;
  c.assoc = 0;
  CacheLevel cache(c);
  // Touch 8 blocks (exactly capacity) twice: all second touches hit.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 8; ++i) {
      (void)cache.access(static_cast<std::uint64_t>(i) * 4096, false);
    }
  }
  EXPECT_EQ(cache.stats().misses(), 8u);
  EXPECT_EQ(cache.stats().conflict, 0u);
}

TEST(Cache, MissRatioComputed) {
  CacheLevel cache(tiny_dm());
  (void)cache.access(0x0, false);
  (void)cache.access(0x0, false);
  EXPECT_DOUBLE_EQ(cache.stats().miss_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(LevelStats{}.miss_ratio(), 0.0);
}

}  // namespace
}  // namespace tdt::cache
