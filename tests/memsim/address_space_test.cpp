#include "memsim/address_space.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"

namespace tdt::memsim {
namespace {

TEST(AddressSpace, GlobalsGrowUpwardFromBase) {
  AddressSpace space;
  const std::uint64_t a = space.alloc_global(4, 4);
  const std::uint64_t b = space.alloc_global(4, 4);
  EXPECT_EQ(a, space.config().global_base);
  EXPECT_EQ(b, a + 4);
}

TEST(AddressSpace, GlobalAlignmentRespected) {
  AddressSpace space;
  (void)space.alloc_global(1, 1);
  const std::uint64_t d = space.alloc_global(8, 8);
  EXPECT_EQ(d % 8, 0u);
}

TEST(AddressSpace, StackGrowsDownward) {
  AddressSpace space;
  const std::uint64_t a = space.alloc_stack(8, 8);
  const std::uint64_t b = space.alloc_stack(8, 8);
  EXPECT_LT(a, space.config().stack_base);
  EXPECT_LT(b, a);
}

TEST(AddressSpace, StackAlignmentRespected) {
  AddressSpace space;
  (void)space.alloc_stack(3, 1);
  const std::uint64_t d = space.alloc_stack(8, 8);
  EXPECT_EQ(d % 8, 0u);
  const std::uint64_t i = space.alloc_stack(4, 4);
  EXPECT_EQ(i % 4, 0u);
}

TEST(AddressSpace, FramesNestAndRelease) {
  AddressSpace space;
  EXPECT_EQ(space.current_frame(), 0u);
  const std::uint64_t outer = space.alloc_stack(16, 8);
  space.push_frame();
  EXPECT_EQ(space.current_frame(), 1u);
  const std::uint64_t inner = space.alloc_stack(16, 8);
  EXPECT_LT(inner, outer);
  space.pop_frame();
  EXPECT_EQ(space.current_frame(), 0u);
  // Allocation after pop reuses the released region.
  const std::uint64_t again = space.alloc_stack(16, 8);
  EXPECT_EQ(again, inner);
}

TEST(AddressSpace, PopOutermostFrameIsInternalError) {
  AddressSpace space;
  EXPECT_THROW(space.pop_frame(), Error);
}

TEST(AddressSpace, StackOverflowDetected) {
  AddressSpaceConfig cfg;
  cfg.stack_base = 0x7ff000000;
  cfg.stack_limit = 0x7fefff000;  // 4 KiB of stack
  AddressSpace space(cfg);
  EXPECT_THROW((void)space.alloc_stack(1 << 20, 8), Error);
}

TEST(AddressSpace, StackOverflowNamesTheLimitInHex) {
  AddressSpace space;  // limit 0x7fe000000
  try {
    (void)space.alloc_stack(std::uint64_t{1} << 30, 8);
    FAIL() << "no overflow";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Config);
    EXPECT_NE(std::string(e.what()).find("limit 0x7fe000000)"),
              std::string::npos)
        << e.what();
  }
}

TEST(AddressSpace, StackAllocationLargerThanTheTopDoesNotWrap) {
  // frame.top - size would wrap past zero to an address above the limit.
  AddressSpace space;
  const std::uint64_t top = space.config().stack_base;
  EXPECT_THROW((void)space.alloc_stack(top + 64, 8), Error);
  EXPECT_THROW((void)space.alloc_stack(~std::uint64_t{0} - 7, 8), Error);
  EXPECT_THROW((void)space.alloc_stack(60'000'000'000ULL, 8), Error);
  // A failed allocation leaves the frame as it was.
  EXPECT_EQ(space.alloc_stack(8, 8), top - 8);
}

TEST(AddressSpace, StackFillsExactlyToTheLimit) {
  AddressSpaceConfig cfg;
  cfg.stack_base = 0x7ff000000;
  cfg.stack_limit = 0x7fefff000;  // 4 KiB of stack
  AddressSpace space(cfg);
  EXPECT_EQ(space.alloc_stack(4096, 8), cfg.stack_limit);
  EXPECT_THROW((void)space.alloc_stack(1, 1), Error);
}

TEST(AddressSpace, HeapAllocSixteenByteAligned) {
  AddressSpace space;
  const std::uint64_t a = space.heap_alloc(5);
  const std::uint64_t b = space.heap_alloc(17);
  EXPECT_EQ(a % 16, 0u);
  EXPECT_EQ(b % 16, 0u);
  EXPECT_GE(b, a + 16);
}

TEST(AddressSpace, HeapFillsExactlyToTheLimit) {
  AddressSpace space;  // heap [0xa00000, 0x7fe000000)
  const AddressSpaceConfig& cfg = space.config();
  const std::uint64_t room = cfg.stack_limit - cfg.heap_base;
  EXPECT_EQ(space.heap_alloc(room - 64), cfg.heap_base);
  EXPECT_EQ(space.heap_alloc(64), cfg.stack_limit - 64);
  EXPECT_THROW((void)space.heap_alloc(1), Error);
  // Freed room is reused up to the limit, and no further.
  space.heap_free(cfg.stack_limit - 64);
  EXPECT_EQ(space.heap_alloc(64), cfg.stack_limit - 64);
}

TEST(AddressSpace, HeapOverflowNamesTheLimitInHex) {
  AddressSpace space;
  const AddressSpaceConfig& cfg = space.config();
  try {
    (void)space.heap_alloc(cfg.stack_limit - cfg.heap_base + 1);
    FAIL() << "no overflow";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Config);
    EXPECT_NE(std::string(e.what()).find("simulated heap overflow (limit "
                                         "0x7fe000000)"),
              std::string::npos)
        << e.what();
  }
}

TEST(AddressSpace, HeapBlockNearTwoToTheSixtyFourDoesNotWrap) {
  // Rounded up to 16 bytes, these sizes would wrap to a block of 0.
  AddressSpace space;
  EXPECT_THROW((void)space.heap_alloc(~std::uint64_t{0} - 7), Error);
  EXPECT_THROW((void)space.heap_alloc(~std::uint64_t{0}), Error);
  // A failed allocation leaves the heap as it was.
  EXPECT_EQ(space.heap_alloc(16), space.config().heap_base);
  EXPECT_EQ(space.heap_live_bytes(), 16u);
}

TEST(AddressSpace, HeapFitsChecksCountTimesSizeWithoutOverflow) {
  const AddressSpaceConfig cfg;
  const std::uint64_t room = cfg.stack_limit - cfg.heap_base;
  EXPECT_NO_THROW(check_heap_fits(cfg, room / 16, 16));
  EXPECT_THROW(check_heap_fits(cfg, room / 16 + 1, 16), Error);
  // 2^61 x 8 wraps to 0 in 64 bits.
  EXPECT_THROW(check_heap_fits(cfg, std::uint64_t{1} << 61, 8), Error);
}

TEST(AddressSpace, HeapLiveBytesTracked) {
  AddressSpace space;
  const std::uint64_t a = space.heap_alloc(32);
  EXPECT_EQ(space.heap_live_bytes(), 32u);
  space.heap_free(a);
  EXPECT_EQ(space.heap_live_bytes(), 0u);
}

TEST(AddressSpace, HeapFreeListReuse) {
  AddressSpace space;
  const std::uint64_t a = space.heap_alloc(64);
  (void)space.heap_alloc(64);
  space.heap_free(a);
  // Next fitting allocation reuses the hole.
  EXPECT_EQ(space.heap_alloc(64), a);
}

TEST(AddressSpace, HeapCoalescingMergesNeighbours) {
  AddressSpace space;
  const std::uint64_t a = space.heap_alloc(32);
  const std::uint64_t b = space.heap_alloc(32);
  const std::uint64_t guard = space.heap_alloc(32);
  (void)guard;
  space.heap_free(a);
  space.heap_free(b);  // coalesces with a
  EXPECT_EQ(space.heap_alloc(64), a);
}

TEST(AddressSpace, HeapDoubleFreeRejected) {
  AddressSpace space;
  const std::uint64_t a = space.heap_alloc(16);
  space.heap_free(a);
  EXPECT_THROW(space.heap_free(a), Error);
  EXPECT_THROW(space.heap_free(0xdead0000), Error);
}

TEST(AddressSpace, SplitFreeBlockKeepsRemainder) {
  AddressSpace space;
  const std::uint64_t a = space.heap_alloc(64);
  (void)space.heap_alloc(16);
  space.heap_free(a);
  const std::uint64_t small = space.heap_alloc(16);
  EXPECT_EQ(small, a);
  const std::uint64_t rest = space.heap_alloc(48);
  EXPECT_EQ(rest, a + 16);
}

TEST(AddressSpace, SegmentClassification) {
  AddressSpace space;
  EXPECT_EQ(space.segment_of(0x7ff000000 - 8), Segment::Stack);
  EXPECT_EQ(space.segment_of(0x000601040), Segment::Globals);
  EXPECT_EQ(space.segment_of(0x000a00010), Segment::Heap);
}

TEST(AddressSpace, PaperLikeAddressRanges) {
  // Default configuration should produce addresses in the ranges visible
  // in the paper's traces: locals near 0x7ff000000, globals near 0x601000.
  AddressSpace space;
  const std::uint64_t local = space.alloc_stack(8, 8);
  const std::uint64_t global = space.alloc_global(4, 4);
  EXPECT_LT(local, 0x7ff000000ULL);
  EXPECT_GE(local, 0x7ff000000ULL - 4096);
  EXPECT_EQ(global >> 12, 0x601u);
}

}  // namespace
}  // namespace tdt::memsim
