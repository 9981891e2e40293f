#include "util/small_vector.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace tdt {
namespace {

TEST(SmallVector, StartsEmptyAndInline) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.capacity(), 4u);
}

TEST(SmallVector, PushWithinInlineCapacity) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, SpillsToHeapPreservingContents) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, InitializerList) {
  SmallVector<int, 2> v{1, 2, 3};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 3);
}

TEST(SmallVector, CopyIndependent) {
  SmallVector<std::string, 2> a{"x", "y", "z"};
  SmallVector<std::string, 2> b(a);
  b[0] = "changed";
  EXPECT_EQ(a[0], "x");
  EXPECT_EQ(b[0], "changed");
  EXPECT_EQ(a, a);
  EXPECT_FALSE(a == b);
}

TEST(SmallVector, CopyAssign) {
  SmallVector<int, 2> a{1, 2, 3, 4};
  SmallVector<int, 2> b{9};
  b = a;
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b[3], 4);
}

TEST(SmallVector, MoveFromHeapStealsStorage) {
  SmallVector<int, 2> a;
  for (int i = 0; i < 50; ++i) a.push_back(i);
  const int* data = a.data();
  SmallVector<int, 2> b(std::move(a));
  EXPECT_EQ(b.data(), data);  // storage stolen, no copy
  EXPECT_EQ(b.size(), 50u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(SmallVector, MoveFromInlineMovesElements) {
  SmallVector<std::unique_ptr<int>, 4> a;
  a.push_back(std::make_unique<int>(7));
  SmallVector<std::unique_ptr<int>, 4> b(std::move(a));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(*b[0], 7);
}

TEST(SmallVector, MoveAssign) {
  SmallVector<int, 2> a{1, 2, 3};
  SmallVector<int, 2> b{8, 9};
  b = std::move(a);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b[2], 3);
}

TEST(SmallVector, PopBackDestroys) {
  SmallVector<std::shared_ptr<int>, 2> v;
  auto p = std::make_shared<int>(1);
  v.push_back(p);
  EXPECT_EQ(p.use_count(), 2);
  v.pop_back();
  EXPECT_EQ(p.use_count(), 1);
  EXPECT_TRUE(v.empty());
}

TEST(SmallVector, ClearKeepsCapacity) {
  SmallVector<int, 2> v{1, 2, 3, 4, 5};
  const std::size_t cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
}

TEST(SmallVector, ResizeGrowsWithDefaults) {
  SmallVector<int, 2> v;
  v.resize(5);
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v[4], 0);
  v.resize(1);
  EXPECT_EQ(v.size(), 1u);
}

TEST(SmallVector, IterationMatchesIndexing) {
  SmallVector<int, 3> v{10, 20, 30, 40};
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 100);
  EXPECT_EQ(v.front(), 10);
  EXPECT_EQ(v.back(), 40);
}

TEST(SmallVector, EqualityIsElementwise) {
  SmallVector<int, 2> a{1, 2, 3};
  SmallVector<int, 8> b_different_capacity;  // same type family not required
  (void)b_different_capacity;
  SmallVector<int, 2> c{1, 2, 3};
  SmallVector<int, 2> d{1, 2};
  EXPECT_TRUE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(SmallVector, ReserveAvoidsLaterReallocation) {
  SmallVector<int, 2> v;
  v.reserve(64);
  const int* data = v.data();
  for (int i = 0; i < 64; ++i) v.push_back(i);
  EXPECT_EQ(v.data(), data);
}

TEST(SmallVector, StressAgainstStdVector) {
  SmallVector<int, 4> sv;
  std::vector<int> ref;
  for (int i = 0; i < 1000; ++i) {
    if (i % 7 == 3 && !ref.empty()) {
      sv.pop_back();
      ref.pop_back();
    } else {
      sv.push_back(i * 13);
      ref.push_back(i * 13);
    }
  }
  ASSERT_EQ(sv.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(sv[i], ref[i]);
}

// The counters are 32-bit: a request for more elements throws before any
// allocation. 2^32 elements of 64 KiB would be 2^48 bytes, more than an
// address space holds, so a reserve that allocated first would throw
// std::bad_alloc instead.
TEST(SmallVector, ReserveAboveMaxSizeThrowsBeforeAllocating) {
  using Big = std::array<char, 65536>;
  static_assert(SmallVector<Big, 1>::max_size() == UINT32_MAX);
  SmallVector<Big, 1> v;
  v.push_back(Big{'x'});
  const Big* data = v.data();
  EXPECT_THROW(v.reserve(std::size_t{UINT32_MAX} + 1), std::length_error);
  EXPECT_THROW(v.resize(std::size_t{1} << 40), std::length_error);
  EXPECT_EQ(v.data(), data);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.capacity(), 1u);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0][0], 'x');
}

// Elements move intact when the storage changes: out of the inline
// buffer at the fourth element of a SmallVector<T, 3> (VarRef's steps),
// and from 4 to 8 slots when a SmallVector<T, 4> spills and then doubles.
TEST(SmallVector, ElementsSurviveEachStorageMove) {
  SmallVector<std::unique_ptr<int>, 3> three;
  for (int i = 0; i < 7; ++i) {
    three.push_back(std::make_unique<int>(i));
    EXPECT_EQ(three.is_inline(), i < 3) << i;
    for (int k = 0; k <= i; ++k) {
      ASSERT_EQ(*three[static_cast<std::size_t>(k)], k) << "after " << i;
    }
  }
  EXPECT_EQ(three.capacity(), 12u);  // 3 inline, then 6, then 12

  SmallVector<std::string, 4> four;
  std::vector<std::size_t> capacities;
  for (int i = 0; i < 9; ++i) {
    four.push_back("element " + std::to_string(i));
    capacities.push_back(four.capacity());
    for (int k = 0; k <= i; ++k) {
      ASSERT_EQ(four[static_cast<std::size_t>(k)],
                "element " + std::to_string(k))
          << "after " << i;
    }
  }
  EXPECT_EQ(capacities,
            (std::vector<std::size_t>{4, 4, 4, 4, 8, 8, 8, 8, 16}));
}

}  // namespace
}  // namespace tdt
