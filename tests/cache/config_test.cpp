#include "cache/config.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace tdt::cache {
namespace {

TEST(Config, GeometryDerivations) {
  CacheConfig c;
  c.size = 32768;
  c.block_size = 32;
  c.assoc = 1;
  EXPECT_EQ(c.num_blocks(), 1024u);
  EXPECT_EQ(c.num_sets(), 1024u);
  EXPECT_EQ(c.effective_assoc(), 1u);
  const CacheGeometry g = c.geometry();
  EXPECT_EQ(g.block_shift, 5u);
  EXPECT_EQ(g.set_mask, 1023u);
  EXPECT_EQ(g.ways, 1u);
  EXPECT_EQ(g.blocks, 1024u);
  EXPECT_EQ(g.offset_mask(), 31u);
}

TEST(Config, FullyAssociativeHasOneSet) {
  CacheConfig c;
  c.size = 4096;
  c.block_size = 64;
  c.assoc = 0;
  EXPECT_EQ(c.effective_assoc(), 64u);
  EXPECT_EQ(c.num_sets(), 1u);
  EXPECT_EQ(c.geometry().set_mask, 0u);
  EXPECT_EQ(c.geometry().ways, 64u);
}

TEST(Config, SetMappingModulo) {
  CacheConfig c;
  c.size = 32768;
  c.block_size = 32;
  c.assoc = 64;  // 16 sets (PPC440)
  EXPECT_EQ(c.num_sets(), 16u);
  const CacheGeometry g = c.geometry();
  const auto set_of = [&](std::uint64_t address) {
    return g.set_index(g.block_of(address));
  };
  EXPECT_EQ(set_of(0), 0u);
  EXPECT_EQ(set_of(32), 1u);
  EXPECT_EQ(set_of(16 * 32), 0u);
  EXPECT_EQ(set_of(512 + 31), 0u);
  EXPECT_EQ(g.block_of(95), 2u);
  EXPECT_EQ(g.base_of(2), 64u);
}

TEST(Config, SpanLastByteStopsAtTheTopOfTheAddressSpace) {
  EXPECT_EQ(span_last_byte(0x1000, 8), 0x1007u);
  EXPECT_EQ(span_last_byte(UINT64_MAX, 1), UINT64_MAX);
  EXPECT_EQ(span_last_byte(UINT64_MAX - 1, 2), UINT64_MAX);
  EXPECT_EQ(span_last_byte(UINT64_MAX - 1, 3), UINT64_MAX);
  EXPECT_EQ(span_last_byte(UINT64_MAX, 0xFFFFFFFF), UINT64_MAX);
}

TEST(Config, ValidateRejectsNonPowerOfTwo) {
  CacheConfig c;
  c.size = 3000;
  c.block_size = 32;
  EXPECT_THROW(c.validate(), Error);
  c.size = 32768;
  c.block_size = 48;
  EXPECT_THROW(c.validate(), Error);
  EXPECT_THROW((void)c.geometry(), Error);
}

TEST(Config, ValidateRejectsBadAssociativity) {
  CacheConfig c;
  c.size = 32768;
  c.block_size = 32;
  c.assoc = 3;  // 1024 blocks not divisible into power-of-two sets by 3
  EXPECT_THROW(c.validate(), Error);
}

TEST(Config, ValidateRejectsSizeBelowBlock) {
  CacheConfig c;
  c.size = 16;
  c.block_size = 32;
  EXPECT_THROW(c.validate(), Error);
}

TEST(Config, PresetsAreValid) {
  EXPECT_NO_THROW(paper_direct_mapped().validate());
  EXPECT_NO_THROW(ppc440().validate());
  EXPECT_NO_THROW(modern_l1().validate());
  EXPECT_NO_THROW(modern_l2().validate());
}

TEST(Config, PaperPresetMatchesFigures3to7) {
  const CacheConfig c = paper_direct_mapped();
  EXPECT_EQ(c.size, 32768u);
  EXPECT_EQ(c.block_size, 32u);
  EXPECT_EQ(c.assoc, 1u);
  EXPECT_EQ(c.num_sets(), 1024u);
}

TEST(Config, Ppc440PresetMatchesSection4) {
  // "32k bytes, 64 ways per set with 32 bytes per cache line and ...
  // round-robin eviction" -> 16 sets, 2048 bytes per set.
  const CacheConfig c = ppc440();
  EXPECT_EQ(c.num_sets(), 16u);
  EXPECT_EQ(c.effective_assoc(), 64u);
  EXPECT_EQ(c.replacement, ReplacementPolicy::RoundRobin);
  EXPECT_EQ(c.effective_assoc() * c.block_size, 2048u);
}

TEST(Config, DescribeMentionsEverything) {
  const std::string d = ppc440().describe();
  EXPECT_NE(d.find("32 KiB"), std::string::npos);
  EXPECT_NE(d.find("64-way"), std::string::npos);
  EXPECT_NE(d.find("round-robin"), std::string::npos);
}

TEST(Config, PolicyNames) {
  EXPECT_EQ(to_string(ReplacementPolicy::Lru), "lru");
  EXPECT_EQ(to_string(ReplacementPolicy::Fifo), "fifo");
  EXPECT_EQ(to_string(ReplacementPolicy::Random), "random");
  EXPECT_EQ(to_string(ReplacementPolicy::RoundRobin), "round-robin");
  EXPECT_EQ(to_string(WritePolicy::WriteBack), "write-back");
  EXPECT_EQ(to_string(WritePolicy::WriteThrough), "write-through");
  EXPECT_EQ(to_string(AllocPolicy::WriteAllocate), "write-allocate");
  EXPECT_EQ(to_string(AllocPolicy::NoWriteAllocate), "no-write-allocate");
}

}  // namespace
}  // namespace tdt::cache
