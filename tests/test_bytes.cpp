#include "core/bytes.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pc = padico::core;

TEST(Bytes, ViewOfVariants) {
  pc::Bytes b{1, 2, 3};
  pc::ByteView v = pc::view_of(b);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.data(), b.data());  // borrowed, not copied
  EXPECT_EQ(v[2], 3);

  pc::ByteView lit = pc::view_of("ping");
  EXPECT_EQ(lit.size(), 4u);  // no trailing NUL
  EXPECT_EQ(lit[0], 'p');

  std::string s = "xy";
  EXPECT_EQ(pc::view_of(s).size(), 2u);

  EXPECT_EQ(pc::view_of(b.data(), 2).size(), 2u);
}

TEST(Bytes, ViewSubviewAndToBytes) {
  pc::Bytes b{9, 8, 7, 6};
  pc::ByteView v = pc::view_of(b).subview(1, 2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 8);
  pc::Bytes copy = v.to_bytes();
  EXPECT_EQ(copy, (pc::Bytes{8, 7}));
}

TEST(IoVec, RefSegmentsAreZeroCopy) {
  pc::Bytes chunk(64, 0xab);
  pc::IoVec v;
  v.append_ref(pc::view_of(chunk));
  v.append_ref(pc::view_of(chunk));
  EXPECT_EQ(v.segments(), 2u);
  EXPECT_EQ(v.byte_size(), 128u);
  // The IoVec points straight at the caller's buffer.
  EXPECT_EQ(v.view(0).data(), chunk.data());
  EXPECT_EQ(v.view(1).data(), chunk.data());
}

TEST(IoVec, FlattenMixedOwnedAndRefSegments) {
  pc::Bytes header{0x10, 0x20};
  pc::Bytes body{1, 2, 3, 4};

  pc::IoVec v;
  v.append(std::move(header));        // owned (header adopted)
  v.append_ref(pc::view_of(body));    // borrowed payload
  v.append(pc::Bytes{0xff});          // owned trailer

  EXPECT_EQ(v.segments(), 3u);
  EXPECT_EQ(v.byte_size(), 7u);
  EXPECT_EQ(v.flatten(), (pc::Bytes{0x10, 0x20, 1, 2, 3, 4, 0xff}));
}

TEST(IoVec, EmptyFlattens) {
  pc::IoVec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.flatten(), pc::Bytes{});
}

TEST(IoVec, OwnedSegmentSurvivesSourceDestruction) {
  pc::IoVec v;
  {
    pc::Bytes tmp{5, 6, 7};
    v.append(std::move(tmp));
  }  // source gone; the IoVec owns the segment
  EXPECT_EQ(v.flatten(), (pc::Bytes{5, 6, 7}));
}

TEST(IoVec, PrependPutsHeaderFirstWithoutShiftingSegments) {
  pc::IoVec v;
  v.append(pc::Bytes{3, 4});
  v.append_ref(pc::view_of("xy"));
  v.prepend(pc::Bytes{1, 2});  // flush-time header lands in front

  EXPECT_EQ(v.segments(), 3u);
  EXPECT_EQ(v.view(0)[0], 1);
  EXPECT_EQ(v.flatten(), (pc::Bytes{1, 2, 3, 4, 'x', 'y'}));
}

TEST(IoVec, SecondPrependDemotesTheOldFront) {
  pc::IoVec v;
  v.append(pc::Bytes{9});
  v.prepend(pc::Bytes{5});     // inner-layer header
  v.prepend(pc::Bytes{1, 2});  // outer-layer header wraps it

  EXPECT_EQ(v.segments(), 3u);
  EXPECT_EQ(v.flatten(), (pc::Bytes{1, 2, 5, 9}));
}

TEST(BytesPool, RecyclesReleasedCapacity) {
  pc::BytesPool pool;
  pc::Bytes b = pool.acquire(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(pool.misses(), 1u);  // nothing to recycle yet

  const std::uint8_t* data = b.data();
  pool.release(std::move(b));
  EXPECT_EQ(pool.pooled(), 1u);

  pc::Bytes again = pool.acquire(64);  // smaller fits the same storage
  EXPECT_EQ(again.size(), 64u);
  EXPECT_EQ(again.data(), data);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(BytesPool, OversizedBuffersAreNeverHoarded) {
  pc::BytesPool pool;
  pc::Bytes big(pc::BytesPool::kMaxPooledCapacity + 1);
  pool.release(std::move(big));
  EXPECT_EQ(pool.pooled(), 0u);

  pc::Bytes huge = pool.acquire(pc::BytesPool::kMaxPooledCapacity + 1);
  EXPECT_EQ(huge.size(), pc::BytesPool::kMaxPooledCapacity + 1);
}

TEST(BytesPool, FreeListIsBounded) {
  pc::BytesPool pool;
  for (std::size_t i = 0; i < pc::BytesPool::kMaxFree + 10; ++i) {
    pool.release(pc::Bytes(8));
  }
  EXPECT_EQ(pool.pooled(), pc::BytesPool::kMaxFree);
}
